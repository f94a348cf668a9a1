"""Masyu: a single loop through every pearl.  The loop turns on black
pearls and runs straight through the cells on either side; it runs
straight through white pearls and turns on at least one side."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..grid import (
    OPPOSITE_SIDE,
    SIDE_DELTAS,
    SIDES,
    Cell,
    CellLoop,
    GridDims,
    Violation,
    loop_ids,
    side_edge,
)
from ..search import EXACT2, OPT, OUT, LoopSearch
from .base import build_cell_graph, run_search


@dataclass(frozen=True, slots=True)
class MasyuPuzzle:
    dims: GridDims
    pearls: tuple[tuple[Cell, str], ...]  # (cell, "white" | "black")

    def __post_init__(self) -> None:
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


def _step(cell: Cell, direction: str) -> Cell:
    dc, dr = SIDE_DELTAS[direction]
    return (cell[0] + dc, cell[1] + dr)


def verify(puzzle: MasyuPuzzle, sol: CellLoop) -> Optional[Violation]:
    w = puzzle.dims.width
    loop = loop_ids(w, puzzle.dims.height, sol.transitions)
    if isinstance(loop, Violation):
        return loop
    east, south = loop.east, loop.south
    for (c, r), colour in puzzle.pearls:
        p = r * w + c
        if p not in loop.visited:
            return Violation("pearl", "pearl not on the loop", cell=(c, r))
        # Sides N, E, S, W the loop leaves p through, each with whether the
        # loop runs on straight beyond that neighbour (else it turns there).
        sides = (
            (p - w in south, p - 2 * w in south),
            (p in east, p + 1 in east),
            (p in south, p + w in south),
            (p - 1 in east, p - 2 in east),
        )
        continues = [beyond for used, beyond in sides if used]
        straight_here = (sides[0][0] and sides[2][0]) or (sides[1][0] and sides[3][0])
        if colour == "white":
            if not straight_here:
                return Violation("pearl", "loop must run straight through a white pearl", cell=(c, r))
            if all(continues):
                return Violation("pearl", "neither side of a white pearl turns", cell=(c, r))
        else:
            if straight_here:
                return Violation("pearl", "loop must turn on a black pearl", cell=(c, r))
            if not all(continues):
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
        self.puzzle = puzzle
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
        self.index = index
        for cell, colour in puzzle.pearls:
            p = index[cell]
            for node in self._rule_nodes(cell):
                self.watch.setdefault(node, []).append(p)

    def _rule_nodes(self, cell: Cell) -> list[int]:
        nodes = [self.index[cell]]
        for d in SIDES:
            x = _step(cell, d)
            if self.puzzle.dims.contains(x):
                nodes.append(self.index[x])
                y = _step(x, d)
                if self.puzzle.dims.contains(y):
                    nodes.append(self.index[y])
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
    seeds_out=(),
    enumerate_all: bool = False,
):
    edges, pairs, index = build_cell_graph(puzzle.dims)
    search = _MasyuSearch(puzzle, edges, pairs, index, budget_ms=budget_ms, connectivity_every=1, branch_frontier=True)
    return run_search(search, edges, CellLoop, lambda sol: verify(puzzle, sol), seeds_in, seeds_out, enumerate_all)
