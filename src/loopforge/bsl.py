"""Barred Simple Loop and its cubic restriction: types, verifier, solvers.

A puzzle is a rectangular grid with bars on some internal edges; a
solution is a single loop through every cell crossing no bar.  The cubic
variant additionally guarantees every cell has at most three accessible
neighbours.  Two independent exact deciders are provided: a backtracking
solver built on the shared search engine, and the broken-profile DP in
:mod:`loopforge.dp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import dp
from .errors import CapabilityError
from .genres.base import SolveResult, build_cell_graph, run_search
from .grid import (
    SIDE_DELTAS,
    Cell,
    CellLoop,
    Edge,
    GridDims,
    Violation,
    edge_in_bounds,
    edge_sort_key,
    side_edge,
    validate_loop,
)
from .search import EXACT2, LoopSearch

DEFAULT_PROFILE_CAP = 14


@dataclass(frozen=True, slots=True)
class BslPuzzle:
    """Grid plus barred internal edges."""

    dims: GridDims
    bars: frozenset[Edge]

    def __post_init__(self) -> None:
        for edge in self.bars:
            if not edge_in_bounds(self.dims, edge):
                raise ValueError(f"bar {edge} is not an internal edge of the grid")


@dataclass(frozen=True, slots=True)
class CubicBslPuzzle:
    """A barred puzzle whose every cell has at most 3 accessible neighbours."""

    inner: BslPuzzle

    def __post_init__(self) -> None:
        bad = check_cubic(self.inner)
        if bad:
            raise ValueError(f"cell {bad[0]} has 4 accessible neighbours; not cubic")

    @property
    def dims(self) -> GridDims:
        return self.inner.dims

    @property
    def bars(self) -> frozenset[Edge]:
        return self.inner.bars


def verify_bsl(puzzle: BslPuzzle, sol: CellLoop) -> Optional[Violation]:
    """Valid iff the loop covers every cell exactly once and avoids all bars."""
    crossing = sol.transitions & puzzle.bars
    if crossing:
        return Violation("bar", "loop crosses a bar", edge=min(crossing, key=edge_sort_key))
    return validate_loop(puzzle.dims, sol, must_visit=puzzle.dims.cells())


def check_cubic(puzzle: BslPuzzle) -> list[Cell]:
    """Cells with four accessible neighbours (empty list means cubic)."""
    return [cell for cell, sides in open_sides(puzzle).items() if len(sides) > 3]


def open_sides(puzzle: BslPuzzle) -> dict[Cell, set[str]]:
    """Each cell's sides that lead to a neighbour on the grid across no bar,
    with the cells in row-major order."""
    w, h, bars = puzzle.dims.width, puzzle.dims.height, puzzle.bars
    return {
        (c, r): {
            side
            for side, (dc, dr) in SIDE_DELTAS.items()
            if 0 <= c + dc < w and 0 <= r + dr < h and side_edge((c, r), side) not in bars
        }
        for c, r in puzzle.dims.cells()
    }


def degenerate_cells(puzzle: BslPuzzle) -> list[Cell]:
    """Cells with fewer than two accessible neighbours; any one proves unsat."""
    return [cell for cell, sides in open_sides(puzzle).items() if len(sides) < 2]


def solve_bsl_backtrack(puzzle: BslPuzzle, budget_ms: Optional[float] = None) -> SolveResult:
    """Exact search; returns the canonically least solution when one exists."""
    edges, pairs, _ = build_cell_graph(puzzle.dims, bars=puzzle.bars)
    n = puzzle.dims.cell_count
    search = LoopSearch(
        n,
        pairs,
        [EXACT2] * n,
        budget_ms=budget_ms,
        connectivity_every=32,
    )
    return run_search(search, edges, CellLoop, lambda loop: verify_bsl(puzzle, loop))


def solve_bsl_dp(puzzle: BslPuzzle) -> bool:
    """Independent solvability oracle over the shorter grid dimension."""
    w, h = puzzle.dims.width, puzzle.dims.height
    if min(w, h) > DEFAULT_PROFILE_CAP:
        raise CapabilityError(f"profile width {min(w, h)} exceeds cap {DEFAULT_PROFILE_CAP}")
    if w <= h:
        return dp.hamiltonian_cycle_exists(w, h, puzzle.bars)
    # Transpose so the profile runs across the shorter dimension.
    flipped = frozenset(
        ("v", r, c) if axis == "h" else ("h", r, c) for axis, c, r in puzzle.bars
    )
    return dp.hamiltonian_cycle_exists(h, w, flipped)
