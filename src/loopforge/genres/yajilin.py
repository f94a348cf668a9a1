"""Yajilin: loop between cell centres; grey cells stay off the loop;
unvisited plain cells are shaded, no two shaded cells touch, and a grey
clue counts the shaded cells along its arrow."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..grid import SIDE_DELTAS, Cell, CellLoop, GridDims, Violation, least_cell, loop_ids
from ..search import EXACT2, OPT, OUT, LoopSearch
from .base import CUT_CHECK_EVERY, build_cell_graph, check_art, grid_faces, run_search

UNDET, VISITED, SHADED = 0, 1, 2


@dataclass(frozen=True, slots=True)
class YajilinPuzzle:
    dims: GridDims
    grey: frozenset[Cell]
    clues: tuple[tuple[Cell, int, str], ...] = ()  # (grey cell, count, direction)

    def __post_init__(self) -> None:
        # Whole-collection tests first; the loops below name the first bad entry.
        cells, counts, directions = zip(*self.clues) if self.clues else ((), (), ())
        if (
            self.dims.contains_all(self.grey)
            and self.grey.issuperset(cells)
            and min(counts, default=0) >= 0
            and SIDE_DELTAS.keys() >= set(directions)
        ):
            return
        for cell in self.grey:
            self.dims.require(cell)
        for cell, count, direction in self.clues:
            if cell not in self.grey:
                raise ValueError(f"clue at {cell} is not on a grey cell")
            if count < 0 or direction not in SIDE_DELTAS:
                raise ValueError(f"bad clue {count}{direction} at {cell}")

    def ray(self, cell: Cell, direction: str) -> list[Cell]:
        dc, dr = SIDE_DELTAS[direction]
        c, r = cell
        out = []
        while True:
            c, r = c + dc, r + dr
            if not self.dims.contains((c, r)):
                return out
            out.append((c, r))


def from_art(dims: GridDims, art: dict[Cell, str]) -> YajilinPuzzle:
    """Tile art as a puzzle: ``#`` is a grey cell."""
    check_art(art, "#")
    return YajilinPuzzle(dims, frozenset(art))


def verify(puzzle: YajilinPuzzle, sol: CellLoop) -> Optional[Violation]:
    w, h = puzzle.dims.width, puzzle.dims.height
    loop = loop_ids(w, h, sol.transitions)
    if isinstance(loop, Violation):
        return loop
    # Cell masks as little-endian integers, one 0/1 byte per flat id.
    n = w * h
    grey_mask = bytearray(n)
    for c, r in puzzle.grey:
        grey_mask[r * w + c] = 1
    grey = int.from_bytes(grey_mask, "little")
    visited = int.from_bytes(loop.visited, "little")
    hit = visited & grey
    if hit:
        return Violation("grey", "loop passes through a grey cell", cell=least_cell(w, hit.to_bytes(n, "little")))
    shaded = int.from_bytes(b"\1" * n, "little") ^ visited ^ grey
    # A shaded cell whose east neighbour (not across the row end) or south
    # neighbour is shaded too.
    not_last_column = int.from_bytes((b"\1" * (w - 1) + b"\0") * h, "little")
    touching = shaded & (((shaded >> 8) & not_last_column) | (shaded >> (8 * w)))
    if touching:
        cell = least_cell(w, touching.to_bytes(n, "little"))
        return Violation("shading", "two shaded cells are adjacent", cell=cell)
    shaded_mask = shaded.to_bytes(n, "little")
    for cell, count, direction in puzzle.clues:
        got = sum(shaded_mask[r * w + c] for c, r in puzzle.ray(cell, direction))
        if got != count:
            return Violation("clue", f"arrow count is {got}, expected {count}", cell=cell)
    return None


class _YajilinSearch(LoopSearch):
    def __init__(self, puzzle: YajilinPuzzle, edges, pairs, index, **kw):
        n = puzzle.dims.cell_count
        req = [OPT] * n
        super().__init__(n, pairs, req, **kw)
        self.puzzle = puzzle
        self.index = index
        self.cells = list(puzzle.dims.cells())
        self.grey_idx = {index[c] for c in puzzle.grey}
        self.status = [UNDET] * n
        for gi in self.grey_idx:
            self.status[gi] = SHADED  # never visited; not subject to shading rules
        self.nbrs = [[] for _ in range(n)]
        for cell in puzzle.dims.cells():
            i = index[cell]
            if i in self.grey_idx:
                continue
            c, r = cell
            for d in SIDE_DELTAS.values():
                x = (c + d[0], r + d[1])
                if puzzle.dims.contains(x) and index[x] not in self.grey_idx:
                    self.nbrs[i].append(index[x])
        # clue -> ray node ids; node -> clue ids
        self.rays = []
        self.watch: dict[int, list[int]] = {}
        for ci, (cell, count, direction) in enumerate(puzzle.clues):
            ray = [index[x] for x in puzzle.ray(cell, direction)]
            self.rays.append((count, ray))
            for x in ray:
                self.watch.setdefault(x, []).append(ci)

    def node_rules_extra(self, x: int) -> bool:
        if x in self.grey_idx:
            return True
        old = self.status[x]
        if old == UNDET:
            if self.in_cnt[x] > 0:
                new = VISITED
            elif self.unk_cnt[x] == 0:
                new = SHADED
            else:
                return True
            self.trail_extra(("status", x, old))
            self.status[x] = new
            if new == SHADED:
                for y in self.nbrs[x]:
                    if self.status[y] == SHADED:
                        return False
                    if self.req[y] != EXACT2:
                        self.require(y)
                        if not self._node_rules(y):
                            return False
            for ci in self.watch.get(x, ()):
                if not self._check_clue(ci):
                    return False
        return True

    def _check_clue(self, ci: int) -> bool:
        count, ray = self.rays[ci]
        shaded = undet = 0
        status = self.status
        grey = self.grey_idx
        undet_nodes = []
        for x in ray:
            if x in grey:
                continue
            st = status[x]
            if st == SHADED:
                shaded += 1
            elif st == UNDET:
                undet += 1
                undet_nodes.append(x)
        if shaded > count or shaded + undet < count:
            return False
        if undet:
            if shaded == count:
                # Remaining ray cells must be visited.
                for x in undet_nodes:
                    if self.req[x] != EXACT2:
                        self.require(x)
                        if not self._node_rules(x):
                            return False
            elif shaded + undet == count:
                # Remaining ray cells must be shaded: all their edges out.
                for x in undet_nodes:
                    for _, ei in self.incident[x]:
                        if not self.state[ei]:
                            self.queue.append((ei, OUT))
        return True

    def undo_extra(self, entry: tuple) -> None:
        _, x, old = entry
        self.status[x] = old


def solve(
    puzzle: YajilinPuzzle,
    budget_ms: Optional[float] = None,
    seeds_in=(),
    enumerate_all: bool = False,
):
    edges, pairs, index = build_cell_graph(puzzle.dims, closed=puzzle.grey)
    search = _YajilinSearch(
        puzzle,
        edges,
        pairs,
        index,
        budget_ms=budget_ms,
        connectivity_every=CUT_CHECK_EVERY,
        branch_frontier=True,
        faces=grid_faces(puzzle.dims, edges),
    )
    return run_search(search, edges, CellLoop, lambda sol: verify(puzzle, sol), seeds_in, enumerate_all)
