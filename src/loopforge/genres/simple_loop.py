"""Simple Loop: a single loop through every unshaded cell."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..grid import Cell, CellLoop, GridDims, Violation, loop_ids
from ..search import EXACT2, OPT, LoopSearch
from .base import CUT_CHECK_EVERY, build_cell_graph, check_art, run_search


@dataclass(frozen=True, slots=True)
class SimpleLoopPuzzle:
    dims: GridDims
    shaded: frozenset[Cell]

    def __post_init__(self) -> None:
        if self.dims.contains_all(self.shaded):
            return
        for cell in self.shaded:
            self.dims.require(cell)


def from_art(dims: GridDims, art: dict[Cell, str]) -> SimpleLoopPuzzle:
    """Tile art as a puzzle: ``#`` is a shaded cell."""
    check_art(art, "#")
    return SimpleLoopPuzzle(dims, frozenset(art))


def verify(puzzle: SimpleLoopPuzzle, sol: CellLoop) -> Optional[Violation]:
    """The loop must visit exactly the unshaded cells."""
    w, h = puzzle.dims.width, puzzle.dims.height
    loop = loop_ids(w, h, sol.transitions)
    if isinstance(loop, Violation):
        return loop
    unshaded = bytearray(b"\1" * (w * h))
    for c, r in puzzle.shaded:
        unshaded[r * w + c] = 0
    return loop.cover(unshaded)


def solve(
    puzzle: SimpleLoopPuzzle,
    budget_ms: Optional[float] = None,
    seeds_in=(),
    enumerate_all: bool = False,
):
    """Exact solver; with ``enumerate_all`` returns a solution generator."""
    edges, pairs, index = build_cell_graph(puzzle.dims, closed=puzzle.shaded)
    n = puzzle.dims.cell_count
    req = [EXACT2] * n
    for cell in puzzle.shaded:
        req[index[cell]] = OPT  # no incident edges, never required
    search = LoopSearch(
        n, pairs, req, budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True
    )
    return run_search(search, edges, CellLoop, lambda sol: verify(puzzle, sol), seeds_in, enumerate_all)
