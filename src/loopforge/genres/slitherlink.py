"""Slitherlink: a single loop on the dot lattice; a clue counts the loop
edges around its cell.

The dots of a W x H board form an ordinary (W+1) x (H+1) node grid, so a
solution is a ``CellLoop`` on that grid: ("h", i, j) joins dots (i, j)
and (i+1, j), ("v", i, j) joins (i, j) and (i, j+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import json_int
from ..grid import Cell, CellLoop, Edge, GridDims, Violation
from ..search import OPT, OUT, LoopSearch
from .base import CUT_CHECK_EVERY, build_cell_graph, check_art, run_search


DIGITS = {str(d): d for d in range(10)}


@dataclass(frozen=True, slots=True)
class SlitherlinkPuzzle:
    dims: GridDims  # cells; the dot lattice is (width+1) x (height+1)
    clues: tuple[tuple[Cell, int], ...]

    def __post_init__(self) -> None:
        # Whole-collection tests first; the loop below names the first bad clue.
        cells, counts = zip(*self.clues) if self.clues else ((), ())
        if (
            self.dims.contains_all(cells)
            and 0 <= min(counts, default=0)
            and max(counts, default=0) <= 3
            and len(set(cells)) == len(cells)
        ):
            return
        seen = set()
        for cell, count in self.clues:
            self.dims.require(cell)
            if not 0 <= count <= 3:
                raise ValueError(f"clue {count} at {cell} out of range")
            if cell in seen:
                raise ValueError(f"duplicate clue at {cell}")
            seen.add(cell)


def from_art(dims: GridDims, art: dict[Cell, str]) -> SlitherlinkPuzzle:
    """Tile art as a puzzle: each digit is the clue of its cell."""
    check_art(art, "0123456789")
    return SlitherlinkPuzzle(dims, tuple(sorted((cell, DIGITS[ch]) for cell, ch in art.items())))


PUZZLE = SlitherlinkPuzzle
# The loop runs on the dots: a tile of W x H cells spans a (W+1) x (H+1)
# frame, and a solution's edges are "lattice_edges".
FRAME_OFFSET = 1


def to_json(puzzle: SlitherlinkPuzzle) -> dict:
    return {"clues": [{"col": c, "row": r, "count": n} for (c, r), n in sorted(puzzle.clues)]}


def from_json(dims: GridDims, doc: dict) -> SlitherlinkPuzzle:
    clues = tuple(
        ((json_int(i["col"]), json_int(i["row"])), json_int(i["count"])) for i in doc.get("clues", [])
    )
    return SlitherlinkPuzzle(dims, tuple(sorted(clues)))


def cell_border_edges(cell: Cell) -> list[Edge]:
    c, r = cell
    return [("h", c, r), ("h", c, r + 1), ("v", c, r), ("v", c + 1, r)]


LATTICE_LOOP_WORDS = ("a loop must be drawn", "edge outside the lattice", "dot has degree {}")


def verify(puzzle: SlitherlinkPuzzle, sol: CellLoop) -> Optional[Violation]:
    dw = puzzle.dims.width + 1
    loop = sol.ids(dw, puzzle.dims.height + 1, LATTICE_LOOP_WORDS)
    if isinstance(loop, Violation):
        return loop
    # The four sides of cell (c, r) are the "h" edges of dots (c, r) and
    # (c, r+1) and the "v" edges of dots (c, r) and (c+1, r).  All clues
    # are compared at once first, as little-endian integers of one byte
    # per dot: byte d of ``got`` is cell d's count, at most 4, so the sum
    # has no carry.  Only when a clue fails does the loop below name the
    # first one.
    east, south = loop.east, loop.south
    e, s = int.from_bytes(east, "little"), int.from_bytes(south, "little")
    got = e + (e >> (8 * dw)) + s + (s >> 8)
    want, mask = bytearray(len(east)), bytearray(len(east))
    for (c, r), count in puzzle.clues:
        want[r * dw + c] = count
        mask[r * dw + c] = 7
    if got & int.from_bytes(mask, "little") == int.from_bytes(want, "little"):
        return None
    for (c, r), count in puzzle.clues:
        d = r * dw + c
        got = east[d] + east[d + dw] + south[d] + south[d + 1]
        if got != count:
            return Violation("clue", f"cell has {got} edges, expected {count}", cell=(c, r))
    return None


class _SlitherlinkSearch(LoopSearch):
    def __init__(self, puzzle: SlitherlinkPuzzle, edges, pairs, n_dots, **kw):
        super().__init__(n_dots, pairs, [OPT] * n_dots, **kw)
        eidx = {e: i for i, e in enumerate(edges)}
        # Clue counters: (target, edge ids); edge -> clue ids.
        self.cells: list[tuple[int, list[int]]] = []
        self.cell_in: list[int] = []
        self.cell_unk: list[int] = []
        self.edge_cells: dict[int, list[int]] = {}
        for cell, count in puzzle.clues:
            ids = [eidx[e] for e in cell_border_edges(cell)]
            ci = len(self.cells)
            self.cells.append((count, ids))
            self.cell_in.append(0)
            self.cell_unk.append(len(ids))
            for ei in ids:
                self.edge_cells.setdefault(ei, []).append(ci)

    def on_assigned(self, ei: int, val: int) -> bool:
        for ci in self.edge_cells.get(ei, ()):
            self.trail_extra((ci, self.cell_in[ci], self.cell_unk[ci]))
            self.cell_unk[ci] -= 1
            if val == 1:
                self.cell_in[ci] += 1
            target, ids = self.cells[ci]
            got, unk = self.cell_in[ci], self.cell_unk[ci]
            if got > target or got + unk < target:
                return False
            if unk:
                if got == target:
                    for e2 in ids:
                        if not self.state[e2]:
                            self.queue.append((e2, OUT))
                elif got + unk == target:
                    for e2 in ids:
                        if not self.state[e2]:
                            self.queue.append((e2, 1))
        return True

    def undo_extra(self, entry: tuple) -> None:
        ci, got, unk = entry
        self.cell_in[ci] = got
        self.cell_unk[ci] = unk


def solve(
    puzzle: SlitherlinkPuzzle,
    budget_ms: Optional[float] = None,
    seeds_in=(),
    enumerate_all: bool = False,
):
    edges, pairs, dots = build_cell_graph(GridDims(puzzle.dims.width + 1, puzzle.dims.height + 1))
    search = _SlitherlinkSearch(
        puzzle, edges, pairs, len(dots), budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True
    )
    return run_search(search, edges, CellLoop, lambda sol: verify(puzzle, sol), seeds_in, enumerate_all)
