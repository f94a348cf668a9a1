"""Slitherlink: a single loop on the dot lattice; a clue counts the loop
edges around its cell."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..grid import Cell, Edge, GridDims, Violation, edge_sort_key, loop_ids
from ..search import OPT, OUT, LoopSearch
from .base import run_search


@dataclass(frozen=True, slots=True)
class SlitherlinkPuzzle:
    dims: GridDims  # cells; the dot lattice is (width+1) x (height+1)
    clues: tuple[tuple[Cell, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for cell, count in self.clues:
            self.dims.require(cell)
            if not 0 <= count <= 3:
                raise ValueError(f"clue {count} at {cell} out of range")
            if cell in seen:
                raise ValueError(f"duplicate clue at {cell}")
            seen.add(cell)

    def clue_map(self) -> dict[Cell, int]:
        return dict(self.clues)


@dataclass(frozen=True, slots=True)
class LatticeLoop:
    """Loop on the dot lattice: ("h", i, j) joins dots (i,j)-(i+1,j),
    ("v", i, j) joins (i,j)-(i,j+1)."""

    edges: frozenset[Edge]


def lattice_edges(dims: GridDims) -> list[Edge]:
    """All lattice edges of a (W+1) x (H+1) dot grid, canonical order."""
    dw, dh = dims.width + 1, dims.height + 1
    edges: list[Edge] = []
    for j in range(dh):
        for i in range(dw):
            if i + 1 < dw:
                edges.append(("h", i, j))
            if j + 1 < dh:
                edges.append(("v", i, j))
    edges.sort(key=edge_sort_key)
    return edges


def cell_border_edges(cell: Cell) -> list[Edge]:
    c, r = cell
    return [("h", c, r), ("h", c, r + 1), ("v", c, r), ("v", c + 1, r)]


LATTICE_LOOP_WORDS = ("a loop must be drawn", "edge outside the lattice", "dot has degree {}")


def verify(puzzle: SlitherlinkPuzzle, sol: LatticeLoop) -> Optional[Violation]:
    dw = puzzle.dims.width + 1
    loop = loop_ids(dw, puzzle.dims.height + 1, sol.edges, LATTICE_LOOP_WORDS)
    if isinstance(loop, Violation):
        return loop
    # The four sides of cell (c, r) are the "h" edges of dots (c, r) and
    # (c, r+1) and the "v" edges of dots (c, r) and (c+1, r).
    east, south = loop.east, loop.south
    for (c, r), count in puzzle.clues:
        d = r * dw + c
        got = (d in east) + (d + dw in east) + (d in south) + (d + 1 in south)
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
    seeds_out=(),
    enumerate_all: bool = False,
):
    dw = puzzle.dims.width + 1
    edges = lattice_edges(puzzle.dims)
    idx = lambda i, j: j * dw + i
    pairs = []
    for axis, i, j in edges:
        if axis == "h":
            pairs.append((idx(i, j), idx(i + 1, j)))
        else:
            pairs.append((idx(i, j), idx(i, j + 1)))
    n_dots = dw * (puzzle.dims.height + 1)
    search = _SlitherlinkSearch(puzzle, edges, pairs, n_dots, budget_ms=budget_ms, connectivity_every=1, branch_frontier=True)
    return run_search(search, edges, LatticeLoop, lambda sol: verify(puzzle, sol), seeds_in, seeds_out, enumerate_all)
