"""Yajilin: loop between cell centres; grey cells stay off the loop;
unvisited plain cells are shaded, no two shaded cells touch, and a grey
clue counts the shaded cells along its arrow."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import json_int
from ..grid import SIDE_DELTAS, Cell, CellLoop, GridDims, Violation, least_cell
from ..search import EXACT2, OPT, OUT, LoopSearch
from .base import CUT_CHECK_EVERY, ArtBoard, art_mask, build_cell_graph, check_art, entry_grid, grid_faces, run_search


@dataclass(frozen=True, slots=True, init=False)
class YajilinPuzzle(ArtBoard):
    """Grey cells as the art byte ``#``; arrow clues are not art."""

    clues: tuple[tuple[Cell, int, str], ...]  # (grey cell, count, direction)

    def __init__(self, dims: GridDims, grey: Iterable[Cell], clues: tuple[tuple[Cell, int, str], ...] = ()) -> None:
        grid = entry_grid(dims, ((cell, "#") for cell in grey), ("#",), b"#", "", "grey cell")
        entry_grid(dims, ((cell, "#") for cell, _, _ in clues), ("#",), b"#", "", "clue")  # a second clue on a cell
        for cell, count, direction in clues:
            if not grid[cell[1] * dims.width + cell[0]]:
                raise ValueError(f"clue at {cell} is not on a grey cell")
            if count < 0 or direction not in SIDE_DELTAS:
                raise ValueError(f"bad clue {count}{direction} at {cell}")
        ArtBoard.__init__(self, dims, grid, clues)

    def ray(self, cell: Cell, direction: str) -> list[Cell]:
        dc, dr = SIDE_DELTAS[direction]
        c, r = cell
        out = []
        while True:
            c, r = c + dc, r + dr
            if not self.dims.contains((c, r)):
                return out
            out.append((c, r))


def from_art(dims: GridDims, cells: bytes) -> YajilinPuzzle:
    """Tile art as a puzzle: ``#`` is a grey cell."""
    check_art(dims, cells, b"#")
    return YajilinPuzzle.grid(dims, cells, ())


PUZZLE = YajilinPuzzle
FRAME_OFFSET = 0


def to_json(puzzle: YajilinPuzzle) -> dict:
    """Every grey cell, with its clue's count and direction or two nulls."""
    clue_at = {cell: '"count":%d,"dir":"%s",' % (n, d) for cell, n, d in puzzle.clues}
    return {"grey": puzzle.entry_list({ord("#"): '"count":null,"dir":null,'}, clue_at)}


def from_json(dims: GridDims, doc: dict) -> YajilinPuzzle:
    grey = []
    clues = []
    for i in doc.get("grey", []):
        cell = (json_int(i["col"]), json_int(i["row"]))
        grey.append(cell)
        if i.get("count") is not None:
            clues.append((cell, json_int(i["count"]), i.get("dir")))
        elif i.get("dir") is not None:
            raise ValueError(f"clue direction {i['dir']!r} without a count at {cell}")
    return YajilinPuzzle(dims, grey, tuple(sorted(clues)))


def verify(puzzle: YajilinPuzzle, sol: CellLoop) -> Optional[Violation]:
    w, h = puzzle.dims.width, puzzle.dims.height
    loop = sol.ids(w, h)
    if isinstance(loop, Violation):
        return loop
    # Cell masks as little-endian integers, one 0/1 byte per flat id.
    n = w * h
    grey = int.from_bytes(art_mask(puzzle.cells, b"#"), "little")
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
    """Shading and arrow clues on the flat cell graph, read off the
    engine's counts: a cell that is not grey is visited once it has an
    ``IN`` edge and shaded once every edge of it is ``OUT``; otherwise it is
    undetermined.  A shaded cell's neighbours, read off ``incident``, must
    be visited, and a clue is checked whenever a cell on its ray is
    visited or shaded."""

    def __init__(self, puzzle: YajilinPuzzle, pairs, **kw):
        w, n = puzzle.dims.width, puzzle.dims.cell_count
        super().__init__(n, pairs, [OPT] * n, **kw)
        # Grey cells (nonzero art bytes) have no edges and are never shaded.
        self.grey = puzzle.cells
        # clue -> ray node ids; node -> clue ids
        self.rays = []
        self.watch: dict[int, list[int]] = {}
        for ci, (cell, count, direction) in enumerate(puzzle.clues):
            ray = [r * w + c for c, r in puzzle.ray(cell, direction)]
            self.rays.append((count, ray))
            for x in ray:
                self.watch.setdefault(x, []).append(ci)

    def node_rules_extra(self, x: int) -> bool:
        in_cnt, unk_cnt = self.in_cnt, self.unk_cnt
        if not in_cnt[x]:
            if unk_cnt[x] or self.grey[x]:
                return True
            # x is shaded; its neighbours (never grey) must not be.
            for y, _ in self.incident[x]:
                if not (in_cnt[y] or unk_cnt[y]):
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
        in_cnt, unk_cnt = self.in_cnt, self.unk_cnt
        shaded = 0
        undet_nodes = []
        for x in ray:
            if not in_cnt[x]:
                if unk_cnt[x]:
                    undet_nodes.append(x)
                elif not self.grey[x]:
                    shaded += 1
        undet = len(undet_nodes)
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


def solve(puzzle: YajilinPuzzle, budget_ms: Optional[float] = None, enumerate_all: bool = False):
    pairs = build_cell_graph(puzzle.dims, puzzle.cells)
    faces = grid_faces(puzzle.dims, pairs)
    search = _YajilinSearch(
        puzzle, pairs, budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True, faces=faces
    )
    return run_search(search, puzzle.dims, lambda sol: verify(puzzle, sol), enumerate_all)
