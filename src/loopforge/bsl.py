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
from typing import Optional

from . import dp
from .errors import CapabilityError
from .genres.base import SolveResult, build_cell_graph, grid_faces, run_search
from .grid import SIDES, Cell, CellLoop, Edge, GridDims, Violation, edge_in_bounds, edge_sort_key, validate_loop
from .search import EXACT2, LoopSearch

DEFAULT_PROFILE_CAP = 14


@dataclass(frozen=True, slots=True)
class BslPuzzle:
    """Grid plus barred internal edges."""

    dims: GridDims
    bars: frozenset[Edge]
    # Filled by ``open_sides``: one mask byte per cell, row-major.
    sides_cache: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)

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
    """Valid iff the loop covers every cell exactly once and avoids all bars.
    The least crossed bar (``edge_sort_key``) is reported first."""
    if sol.size == (puzzle.dims.width, puzzle.dims.height) and isinstance(puzzle, BslPuzzle):
        bar = _crossed_bar(puzzle, sol.east, sol.south)
    else:
        bar = min(puzzle.bars & sol.transitions, key=edge_sort_key, default=None)
    if bar:
        return Violation("bar", "loop crosses a bar", edge=bar)
    return validate_loop(puzzle.dims, sol, must_visit=b"\1" * puzzle.dims.cell_count)


def check_cubic(puzzle: BslPuzzle) -> list[Cell]:
    """Cells with four accessible neighbours (empty list means cubic)."""
    return [cell for cell, sides in open_sides(puzzle).items() if len(sides) > 3]


# Every subset of SIDES as a frozenset, indexed by its bit mask (bit k for SIDES[k]).
_SIDE_SETS = tuple(frozenset(side for k, side in enumerate(SIDES) if mask >> k & 1) for mask in range(16))
_N, _E, _S, _W = (1 << k for k in range(4))


def open_sides(puzzle: BslPuzzle) -> dict[Cell, frozenset[str]]:
    """Each cell's sides that lead to a neighbour on the grid across no bar,
    with the cells in row-major order.

    The sides are worked out once per puzzle and kept on it as one mask
    byte per cell, so cubicity, degeneracy, the cubic stage's ``blocked``
    and the genre placements read that one pass, and ``orient`` and
    ``verify_bsl`` read the bytes themselves.  Each call returns a new dict
    over those bytes: a dict kept on every puzzle would hold two objects
    per cell for as long as the puzzle lives.
    """
    masks = puzzle.sides_cache
    if masks is None:
        w, h = puzzle.dims.width, puzzle.dims.height
        grid = bytearray(w * h)
        for r in range(h):
            row = (_N if r else 0) | (_S if r < h - 1 else 0)
            for c in range(w):
                grid[r * w + c] = row | (_W if c else 0) | (_E if c < w - 1 else 0)
        for axis, c, r in puzzle.bars:
            i = r * w + c
            if axis == "h":
                grid[i] &= ~_E
                grid[i + 1] &= ~_W
            else:
                grid[i] &= ~_S
                grid[i + w] &= ~_N
        masks = bytes(grid)
        object.__setattr__(puzzle, "sides_cache", masks)
    return dict(zip(puzzle.dims.cells(), map(_SIDE_SETS.__getitem__, masks)))


# Map a sides mask to 1 when its east side, or its south side, is shut.
_SHUT = tuple(bytes(not m & side for m in range(256)) for side in (_E, _S))


def _crossed_bar(puzzle: BslPuzzle, east: bytearray, south: bytearray) -> Optional[Edge]:
    """The least bar a flat loop crosses, by its side masks: a side shut off the
    last column or row is a bar.  Byte i of ``hit`` is 2 for an "h" bar
    crossed at id i and 1 for a "v" bar, so its first nonzero byte names it."""
    w, n = puzzle.dims.width, puzzle.dims.cell_count
    if puzzle.sides_cache is None:
        open_sides(puzzle)
    east_bars, south_bars = (bytearray(puzzle.sides_cache.translate(table)) for table in _SHUT)
    east_bars[w - 1 :: w], south_bars[n - w :] = bytes(puzzle.dims.height), bytes(w)
    hit = (int.from_bytes(east[:n], "little") & int.from_bytes(east_bars, "little")) << 1
    hit |= int.from_bytes(south[:n], "little") & int.from_bytes(south_bars, "little")
    data = hit.to_bytes(n, "little")
    i = n - len(data.lstrip(b"\0"))
    return ("h" if data[i] & 2 else "v", i % w, i // w) if i < n else None


def degenerate_cells(puzzle: BslPuzzle) -> list[Cell]:
    """Cells with fewer than two accessible neighbours; any one proves unsat."""
    return [cell for cell, sides in open_sides(puzzle).items() if len(sides) < 2]


def solve_bsl_backtrack(puzzle: BslPuzzle, budget_ms: Optional[float] = None) -> SolveResult:
    """Exact search; returns the canonically least solution when one exists."""
    edges, pairs, _ = build_cell_graph(puzzle.dims, bars=puzzle.bars)
    n = puzzle.dims.cell_count
    faces = grid_faces(puzzle.dims, edges)
    search = LoopSearch(n, pairs, [EXACT2] * n, budget_ms=budget_ms, connectivity_every=32, faces=faces)
    return run_search(search, edges, lambda loop: verify_bsl(puzzle, loop))


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
