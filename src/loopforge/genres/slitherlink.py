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
from ..grid import Cell, CellLoop, GridDims, Violation, least_cell
from ..search import OPT, OUT, LoopSearch
from .base import CUT_CHECK_EVERY, ArtBoard, art_mask, build_cell_graph, check_art, entry_grid, run_search, side_table


@dataclass(frozen=True, slots=True, init=False)
class SlitherlinkPuzzle(ArtBoard):
    """Clues as the art digits ``0`` to ``3``; the dot lattice is
    (width+1) x (height+1)."""

    def __init__(self, dims: GridDims, clues: tuple[tuple[Cell, int], ...]) -> None:
        grid = entry_grid(dims, clues, (0, 1, 2, 3), b"0123", "clue {value} at {cell} out of range", "clue")
        ArtBoard.__init__(self, dims, grid)

    @property
    def clues(self) -> tuple[tuple[Cell, int], ...]:
        return tuple(((c, r), ch - ZERO) for c, r, ch in self.scan())


ZERO = ord("0")
# Maps an art byte to its clue's count.
COUNT = bytes(b - ZERO if ZERO <= b <= ZERO + 3 else 0 for b in range(256))


def from_art(dims: GridDims, cells: bytes) -> SlitherlinkPuzzle:
    """Tile art as a puzzle: each digit is the clue of its cell."""
    check_art(dims, cells, b"0123456789")
    puzzle = SlitherlinkPuzzle.grid(dims, cells)
    if cells.translate(None, b"\x000123"):
        SlitherlinkPuzzle(dims, puzzle.clues)  # names the first digit above 3
    return puzzle


PUZZLE = SlitherlinkPuzzle
# The loop runs on the dots: a tile of W x H cells spans a (W+1) x (H+1)
# frame, and a solution's edges are "lattice_edges".
FRAME_OFFSET = 1


def to_json(puzzle: SlitherlinkPuzzle) -> dict:
    return {"clues": puzzle.entry_list({ZERO + k: '"count":%d,' % k for k in range(4)})}


def from_json(dims: GridDims, doc: dict) -> SlitherlinkPuzzle:
    clues = tuple(
        ((json_int(i["col"]), json_int(i["row"])), json_int(i["count"])) for i in doc.get("clues", [])
    )
    return SlitherlinkPuzzle(dims, tuple(sorted(clues)))


LATTICE_LOOP_WORDS = ("a loop must be drawn", "edge outside the lattice", "dot has degree {}")


def verify(puzzle: SlitherlinkPuzzle, sol: CellLoop) -> Optional[Violation]:
    dw = puzzle.dims.width + 1
    loop = sol.ids(dw, puzzle.dims.height + 1, LATTICE_LOOP_WORDS)
    if isinstance(loop, Violation):
        return loop
    # The four sides of cell (c, r) are the "h" edges of dots (c, r) and
    # (c, r+1) and the "v" edges of dots (c, r) and (c+1, r).  All clues
    # are compared at once, as little-endian integers of one byte per
    # dot: byte d of ``got`` is cell d's count, at most 4, so the sum has
    # no carry.  The clues are laid out on dot ids by copying the grid's
    # rows with a zero byte, the row's last dot, after each.  A byte of
    # ``wrong`` is nonzero where a clue fails; the least one is named.
    e, s = int.from_bytes(loop.east, "little"), int.from_bytes(loop.south, "little")
    got = e + (e >> (8 * dw)) + s + (s >> 8)
    w, cells = puzzle.dims.width, puzzle.cells
    dots = b"\0".join([cells[i : i + w] for i in range(0, len(cells), w)])
    clued = 7 * int.from_bytes(art_mask(dots, b"0123"), "little")
    wrong = (got & clued) ^ int.from_bytes(dots.translate(COUNT), "little")
    if not wrong:
        return None
    c, r = least_cell(dw, wrong.to_bytes(len(dots), "little"))
    d = r * dw + c
    return Violation("clue", f"cell has {got >> 8 * d & 255} edges, expected {COUNT[dots[d]]}", cell=(c, r))


class _SlitherlinkSearch(LoopSearch):
    """Clue counters on the flat dot-grid graph.  Cell (c, r) is bordered by
    the E sides of dots (c, r) and (c, r+1) and the S sides of dots (c, r)
    and (c+1, r), as ``side_table`` names them."""

    def __init__(self, puzzle: SlitherlinkPuzzle, pairs, **kw):
        dw = puzzle.dims.width + 1
        n_dots = dw * (puzzle.dims.height + 1)
        super().__init__(n_dots, pairs, [OPT] * n_dots, **kw)
        # Clue counters: (target, border edge ids); edge -> clue ids.
        side = side_table(dw, n_dots, pairs)
        self.cells = []
        for (c, r), count in puzzle.clues:
            d = r * dw + c
            self.cells.append((count, [side[d]["E"], side[d + dw]["E"], side[d]["S"], side[d + 1]["S"]]))
        self.cell_in = [0] * len(self.cells)
        self.cell_unk = [len(ids) for _, ids in self.cells]
        self.edge_cells: dict[int, list[int]] = {}
        for ci, (_, ids) in enumerate(self.cells):
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
    dots = GridDims(puzzle.dims.width + 1, puzzle.dims.height + 1)
    pairs = build_cell_graph(dots)
    search = _SlitherlinkSearch(
        puzzle, pairs, budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True
    )
    return run_search(search, dots, lambda sol: verify(puzzle, sol), seeds_in, enumerate_all)
