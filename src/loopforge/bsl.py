"""Barred Simple Loop and its cubic restriction: types, verifier, solvers.

A puzzle is a rectangular grid with bars on some internal edges; a
solution is a single loop through every cell crossing no bar.  The cubic
variant additionally guarantees every cell has at most three accessible
neighbours.  Two independent exact deciders are provided: a backtracking
solver built on the shared search engine, and the broken-profile DP in
:mod:`loopforge.dp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Optional

from . import dp
from .errors import CapabilityError
from .genres.base import SolveResult, build_cell_graph, grid_faces, run_search
from .grid import ALL_SIDES, MASK_SIDES, OPPOSITE_BIT, Cell, CellLoop, E, Edge, GridDims, S, Violation
from .grid import edge_in_bounds, edge_sort_key, grid_sides, side_steps, validate_loop
from .search import EXACT2, LoopSearch

DEFAULT_PROFILE_CAP = 14


@dataclass(frozen=True, slots=True)
class BslPuzzle:
    """Grid plus barred internal edges.  ``sides`` holds each cell's sides
    that lead to a neighbour across no bar, one ``grid`` side mask per cell
    in row-major order, built in the pass that checks the bars."""

    dims: GridDims
    bars: frozenset[Edge]
    sides: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        w = self.dims.width
        masks = grid_sides(self.dims)
        step = side_steps(w)
        for edge in self.bars:
            if not edge_in_bounds(self.dims, edge):
                off = [bar for bar in self.bars if not edge_in_bounds(self.dims, bar)]
                raise ValueError(f"bar {min(off, key=edge_sort_key)} is not an internal edge of the grid")
            axis, c, r = edge
            i, out = r * w + c, E if axis == "h" else S
            masks[i] &= ~out
            masks[i + step[out]] &= ~OPPOSITE_BIT[out]
        object.__setattr__(self, "sides", bytes(masks))


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

    @property
    def sides(self) -> bytes:
        return self.inner.sides


def verify_bsl(puzzle: BslPuzzle, sol: CellLoop) -> Optional[Violation]:
    """Valid iff the loop covers every cell exactly once and avoids all bars.
    The least crossed bar (``edge_sort_key``) is reported first."""
    if sol.size == (puzzle.dims.width, puzzle.dims.height):
        bar = _crossed_bar(puzzle, sol.east, sol.south)
    else:
        bar = min(puzzle.bars & sol.transitions, key=edge_sort_key, default=None)
    if bar:
        return Violation("bar", "loop crosses a bar", edge=bar)
    return validate_loop(puzzle.dims, sol, must_visit=b"\1" * puzzle.dims.cell_count)


# Side mask -> 1 when all four sides are open, and when fewer than two are.
_FOUR_OPEN = bytes(m == ALL_SIDES for m in range(256))
_FEW_OPEN = bytes(len(MASK_SIDES[m & ALL_SIDES]) < 2 for m in range(256))


def _cells(puzzle: BslPuzzle, table: bytes) -> list[Cell]:
    """The cells whose side mask ``table`` maps to 1, in row-major order."""
    w, n = puzzle.dims.width, puzzle.dims.cell_count
    return [(i % w, i // w) for i in compress(range(n), puzzle.sides.translate(table))]


def check_cubic(puzzle: BslPuzzle) -> list[Cell]:
    """Cells with four accessible neighbours (empty list means cubic)."""
    return _cells(puzzle, _FOUR_OPEN)


def degenerate_cells(puzzle: BslPuzzle) -> list[Cell]:
    """Cells with fewer than two accessible neighbours; any one proves unsat."""
    return _cells(puzzle, _FEW_OPEN)


# Side mask -> 1 when its east side, or its south side, is shut.
_SHUT = tuple(bytes(not m & side for m in range(256)) for side in (E, S))


def _crossed_bar(puzzle: BslPuzzle, east: bytearray, south: bytearray) -> Optional[Edge]:
    """The least bar a flat loop crosses, by its side masks: a side shut off the
    last column or row is a bar.  Byte i of ``hit`` is 2 for an "h" bar
    crossed at id i and 1 for a "v" bar, so its first nonzero byte names it."""
    w, n = puzzle.dims.width, puzzle.dims.cell_count
    east_bars, south_bars = (bytearray(puzzle.sides.translate(table)) for table in _SHUT)
    east_bars[w - 1 :: w], south_bars[n - w :] = bytes(puzzle.dims.height), bytes(w)
    hit = (int.from_bytes(east[:n], "little") & int.from_bytes(east_bars, "little")) << 1
    hit |= int.from_bytes(south[:n], "little") & int.from_bytes(south_bars, "little")
    data = hit.to_bytes(n, "little")
    i = n - len(data.lstrip(b"\0"))
    return ("h" if data[i] & 2 else "v", i % w, i // w) if i < n else None


def solve_bsl_backtrack(puzzle: BslPuzzle, budget_ms: Optional[float] = None) -> SolveResult:
    """Exact search; returns the canonically least solution when one exists."""
    pairs = build_cell_graph(puzzle.dims, sides=puzzle.sides)
    n = puzzle.dims.cell_count
    faces = grid_faces(puzzle.dims, pairs)
    search = LoopSearch(n, pairs, [EXACT2] * n, budget_ms=budget_ms, connectivity_every=32, faces=faces)
    return run_search(search, puzzle.dims, lambda loop: verify_bsl(puzzle, loop))


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
