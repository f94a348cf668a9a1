"""Masyu: a single loop through every pearl.  The loop turns on black
pearls and runs straight through the cells on either side; it runs
straight through white pearls and turns on at least one side."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..grid import (
    OPPOSITE_SIDE,
    SIDES,
    Cell,
    CellLoop,
    GridDims,
    Violation,
    loop_ids,
    side_edge,
)
from ..search import EXACT2, OPT, OUT, LoopSearch
from .base import CUT_CHECK_EVERY, build_cell_graph, check_art, run_search


@dataclass(frozen=True, slots=True)
class MasyuPuzzle:
    dims: GridDims
    pearls: tuple[tuple[Cell, str], ...]  # (cell, "white" | "black")

    def __post_init__(self) -> None:
        # Whole-collection tests first; the loop below names the first bad pearl.
        cells, colours = zip(*self.pearls) if self.pearls else ((), ())
        if (
            self.dims.contains_all(cells)
            and colours.count("white") + colours.count("black") == len(colours)
            and len(set(cells)) == len(cells)
        ):
            return
        seen = set()
        for cell, colour in self.pearls:
            self.dims.require(cell)
            if colour not in ("white", "black"):
                raise ValueError(f"bad pearl colour {colour!r}")
            if cell in seen:
                raise ValueError(f"duplicate pearl at {cell}")
            seen.add(cell)

    def pearl_map(self) -> dict[Cell, str]:
        return dict(self.pearls)


PEARL_COLOURS = {"B": "black", "W": "white"}


def from_art(dims: GridDims, art: dict[Cell, str]) -> MasyuPuzzle:
    """Tile art as a puzzle: ``B`` is a black pearl, ``W`` a white one."""
    check_art(art, "BW")
    return MasyuPuzzle(dims, tuple(sorted((cell, PEARL_COLOURS[ch]) for cell, ch in art.items())))


def verify(puzzle: MasyuPuzzle, sol: CellLoop) -> Optional[Violation]:
    w = puzzle.dims.width
    loop = loop_ids(w, puzzle.dims.height, sol.transitions)
    if isinstance(loop, Violation):
        return loop
    # A pearl at id p reads the sides it leaves through (north south[p - w],
    # south south[p], east east[p], west east[p - 1]) and the same side of
    # the neighbour beyond, which is set when the loop runs straight on
    # through that neighbour.  Look-ups off the grid read the zero padding.
    east, south, visited = loop.east, loop.south, loop.visited
    for (c, r), colour in puzzle.pearls:
        p = r * w + c
        if not visited[p]:
            return Violation("pearl", "pearl not on the loop", cell=(c, r))
        north_in, south_in, east_in, west_in = south[p - w], south[p], east[p], east[p - 1]
        if colour == "white":
            if north_in and south_in:
                turns = not (south[p - 2 * w] and south[p + w])
            elif east_in and west_in:
                turns = not (east[p + 1] and east[p - 2])
            else:
                return Violation("pearl", "loop must run straight through a white pearl", cell=(c, r))
            if not turns:
                return Violation("pearl", "neither side of a white pearl turns", cell=(c, r))
        else:
            if (north_in and south_in) or (east_in and west_in):
                return Violation("pearl", "loop must turn on a black pearl", cell=(c, r))
            # A visited pearl that does not run straight uses one side of each axis.
            vertical = south[p - 2 * w] if north_in else south[p + w]
            horizontal = east[p + 1] if east_in else east[p - 2]
            if not (vertical and horizontal):
                return Violation("pearl", "loop must run straight beside a black pearl", cell=(c, r))
    return None


class _MasyuSearch(LoopSearch):
    def __init__(self, puzzle: MasyuPuzzle, edges, pairs, index, **kw):
        n = puzzle.dims.cell_count
        pearls = puzzle.pearl_map()
        req = [OPT] * n
        for cell in pearls:
            req[index[cell]] = EXACT2
        super().__init__(n, pairs, req, **kw)
        # For every cell: side -> edge id, to express the local pearl rules.
        self.side_edge: list[dict[str, int]] = [dict() for _ in range(n)]
        eidx = {e: i for i, e in enumerate(edges)}
        for cell in puzzle.dims.cells():
            for d in SIDES:
                edge = side_edge(cell, d)
                if edge in eidx:
                    self.side_edge[index[cell]][d] = eidx[edge]
        # node -> pearls to recheck (the pearl itself and cells whose
        # edges appear in its straight-continuation rules).
        self.pearl_at: dict[int, str] = {index[c]: colour for c, colour in puzzle.pearls}
        self.watch: dict[int, list[int]] = {}
        for cell, colour in puzzle.pearls:
            p = index[cell]
            for node in self._rule_nodes(p):
                self.watch.setdefault(node, []).append(p)

    def _rule_nodes(self, p: int) -> list[int]:
        """The pearl at node ``p`` and up to two nodes beyond it on each side."""
        nodes = [p]
        for d in SIDES:
            x = self._side_neighbor(p, d)
            if x is not None:
                nodes.append(x)
                y = self._side_neighbor(x, d)
                if y is not None:
                    nodes.append(y)
        return nodes

    def _edge_state(self, node: int, side: str) -> int:
        ei = self.side_edge[node].get(side)
        return OUT if ei is None else self.state[ei]

    def _force(self, node: int, side: str, val: int) -> bool:
        ei = self.side_edge[node].get(side)
        if ei is None:
            return val == OUT
        st = self.state[ei]
        if st:
            return st == val
        self.queue.append((ei, val))
        return True

    def node_rules_extra(self, x: int) -> bool:
        for p in self.watch.get(x, ()):
            if not self._pearl_rules(p):
                return False
        return True

    def _pearl_rules(self, p: int) -> bool:
        colour = self.pearl_at[p]
        state = self._edge_state
        if colour == "black":
            # Exactly one of each axis; straight continuation beyond both.
            for d in SIDES:
                o = OPPOSITE_SIDE[d]
                if state(p, d) == 1:
                    if not self._force(p, o, OUT):
                        return False
                    nxt = self._side_neighbor(p, d)
                    if nxt is None or not self._force(nxt, d, 1):
                        return False
                # One opening per axis: a dead side forces the opposite one in.
                if state(p, d) == OUT and not self._force(p, o, 1):
                    return False
                # An opening is unusable when its straight continuation
                # cannot exist.
                if state(p, d) == 0:
                    nxt = self._side_neighbor(p, d)
                    if nxt is None or state(nxt, d) == OUT:
                        if not self._force(p, d, OUT):
                            return False
        else:
            for d in ("N", "E"):
                o = OPPOSITE_SIDE[d]
                a, b = state(p, d), state(p, o)
                if a == 1 and not self._force(p, o, 1):
                    return False
                if b == 1 and not self._force(p, d, 1):
                    return False
                if a == OUT and not self._force(p, o, OUT):
                    return False
                if b == OUT and not self._force(p, d, OUT):
                    return False
            # If the loop runs through along axis d, at least one side turns.
            for d in ("N", "E"):
                o = OPPOSITE_SIDE[d]
                if state(p, d) == 1 and state(p, o) == 1:
                    na, nb = self._side_neighbor(p, d), self._side_neighbor(p, o)
                    a_straight = state(na, d) == 1
                    b_straight = state(nb, o) == 1
                    if a_straight and b_straight:
                        return False
                    if a_straight and not self._force(nb, o, OUT):
                        return False
                    if b_straight and not self._force(na, d, OUT):
                        return False
        return True

    def _side_neighbor(self, p: int, d: str) -> Optional[int]:
        ei = self.side_edge[p].get(d)
        if ei is None:
            return None
        u, v = self.edges[ei]
        return v if u == p else u


def solve(
    puzzle: MasyuPuzzle,
    budget_ms: Optional[float] = None,
    seeds_in=(),
    enumerate_all: bool = False,
):
    edges, pairs, index = build_cell_graph(puzzle.dims)
    search = _MasyuSearch(
        puzzle, edges, pairs, index, budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True
    )
    return run_search(search, edges, CellLoop, lambda sol: verify(puzzle, sol), seeds_in, enumerate_all)
