"""Simple Loop: a single loop through every unshaded cell."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import json_int
from ..grid import Cell, CellLoop, GridDims, Violation
from ..search import EXACT2, OPT, LoopSearch
from .base import CUT_CHECK_EVERY, ArtBoard, art_mask, build_cell_graph, check_art, entry_grid, run_search


@dataclass(frozen=True, slots=True, init=False)
class SimpleLoopPuzzle(ArtBoard):
    """Shaded cells as the art byte ``#``."""

    def __init__(self, dims: GridDims, shaded: Iterable[Cell]) -> None:
        grid = entry_grid(dims, ((cell, "#") for cell in shaded), ("#",), b"#", "", "shaded cell")
        ArtBoard.__init__(self, dims, grid)


def from_art(dims: GridDims, cells: bytes) -> SimpleLoopPuzzle:
    """Tile art as a puzzle: ``#`` is a shaded cell."""
    check_art(dims, cells, b"#")
    return SimpleLoopPuzzle.grid(dims, cells)


PUZZLE = SimpleLoopPuzzle
FRAME_OFFSET = 0


def to_json(puzzle: SimpleLoopPuzzle) -> dict:
    return {"shaded": puzzle.entry_list({ord("#"): ""})}


def from_json(dims: GridDims, doc: dict) -> SimpleLoopPuzzle:
    return SimpleLoopPuzzle(dims, [(json_int(i["col"]), json_int(i["row"])) for i in doc.get("shaded", [])])


def verify(puzzle: SimpleLoopPuzzle, sol: CellLoop) -> Optional[Violation]:
    """The loop must visit exactly the unshaded cells."""
    loop = sol.ids(puzzle.dims.width, puzzle.dims.height)
    if isinstance(loop, Violation):
        return loop
    return loop.cover(art_mask(puzzle.cells, b"\0"))


def solve(puzzle: SimpleLoopPuzzle, budget_ms: Optional[float] = None, enumerate_all: bool = False):
    """Exact solver; with ``enumerate_all`` returns a solution generator."""
    pairs = build_cell_graph(puzzle.dims, puzzle.cells)
    n = puzzle.dims.cell_count
    # A shaded cell has no incident edges and is never required.
    req = [EXACT2 if b == 0 else OPT for b in puzzle.cells]
    search = LoopSearch(
        n, pairs, req, budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True
    )
    return run_search(search, puzzle.dims, lambda sol: verify(puzzle, sol), enumerate_all)
