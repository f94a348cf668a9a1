"""Masyu: a single loop through every pearl.  The loop turns on black
pearls and runs straight through the cells on either side; it runs
straight through white pearls and turns on at least one side."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import json_int
from ..grid import OPPOSITE_SIDE, SIDES, Cell, CellLoop, GridDims, LoopIds, Violation, least_cell
from ..search import EXACT2, OPT, OUT, LoopSearch
from .base import CUT_CHECK_EVERY, ArtBoard, art_mask, build_cell_graph, check_art, entry_grid, run_search, side_table


@dataclass(frozen=True, slots=True, init=False)
class MasyuPuzzle(ArtBoard):
    """Pearls as the art bytes ``B`` (black) and ``W`` (white)."""

    def __init__(self, dims: GridDims, pearls: tuple[tuple[Cell, str], ...]) -> None:
        ArtBoard.__init__(self, dims, entry_grid(dims, pearls, COLOURS, b"BW", "bad pearl colour {value!r}", "pearl"))

    @property
    def pearls(self) -> tuple[tuple[Cell, str], ...]:
        """(cell, "white" | "black") in canonical order."""
        return tuple(((c, r), COLOUR[ch]) for c, r, ch in self.scan())


COLOURS = ("black", "white")  # as the art bytes B and W
COLOUR = dict(zip(b"BW", COLOURS))


def from_art(dims: GridDims, cells: bytes) -> MasyuPuzzle:
    """Tile art as a puzzle: ``B`` is a black pearl, ``W`` a white one."""
    check_art(dims, cells, b"BW")
    return MasyuPuzzle.grid(dims, cells)


PUZZLE = MasyuPuzzle
FRAME_OFFSET = 0


def to_json(puzzle: MasyuPuzzle) -> dict:
    return {"pearls": puzzle.entry_list({ch: '"color":"%s",' % colour for ch, colour in COLOUR.items()})}


def from_json(dims: GridDims, doc: dict) -> MasyuPuzzle:
    pearls = tuple(((json_int(i["col"]), json_int(i["row"])), i["color"]) for i in doc.get("pearls", []))
    return MasyuPuzzle(dims, tuple(sorted(pearls)))


def verify(puzzle: MasyuPuzzle, sol: CellLoop) -> Optional[Violation]:
    w = puzzle.dims.width
    loop = sol.ids(w, puzzle.dims.height)
    if isinstance(loop, Violation):
        return loop
    rules = _pearl_faults(puzzle.cells, loop)
    failing = 0
    for _, mask in rules:
        failing |= mask
    if not failing:
        return None
    # The least failing pearl, and the first of its rules that fails.
    c, r = least_cell(w, failing.to_bytes(len(puzzle.cells), "little"))
    shift = 8 * (r * w + c)
    return next(Violation("pearl", text, cell=(c, r)) for text, mask in rules if mask >> shift & 1)


def _pearl_faults(cells: bytes, loop: LoopIds) -> list[tuple[str, int]]:
    """Each pearl rule's message and the pearls that break it, in the order
    a pearl's rules are checked.  The loop is read as integers of one 0/1
    byte per id, little-endian, so that shifting by 8k bits reads the byte
    k ids away.  A pearl reads the sides it leaves through and the same
    side of the neighbour beyond, which is set when the loop runs straight
    on through that neighbour.  A shift off either end reads 0."""
    w = loop.width
    e, s = int.from_bytes(loop.east, "little"), int.from_bytes(loop.south, "little")
    east_in, west_in, south_in, north_in = e, e << 8, s, s << (8 * w)
    # The same side of the neighbour beyond.
    east2, west2, south2, north2 = e >> 8, e << 16, s >> (8 * w), s << (16 * w)
    white = int.from_bytes(art_mask(cells, b"W"), "little")
    black = int.from_bytes(art_mask(cells, b"B"), "little")
    through_ns, through_ew = north_in & south_in, east_in & west_in
    straight = through_ns | through_ew
    # A pearl the loop runs straight through and straight on beyond on both sides.
    no_turn = (through_ns & north2 & south2) | (through_ew & east2 & west2)
    # A visited pearl that does not run straight uses one side of each axis.
    vertical = (north_in & north2) | (south_in & south2)
    horizontal = (east_in & east2) | (west_in & west2)
    pearls = white | black
    # ``mask ^ (mask & x)`` is the ids of ``mask`` not in ``x``.
    return [
        ("pearl not on the loop", pearls ^ (pearls & int.from_bytes(loop.visited, "little"))),
        ("loop must run straight through a white pearl", white ^ (white & straight)),
        ("neither side of a white pearl turns", white & no_turn),
        ("loop must turn on a black pearl", black & straight),
        ("loop must run straight beside a black pearl", black ^ (black & vertical & horizontal)),
    ]


class _MasyuSearch(LoopSearch):
    """Pearl rules as propagation on the flat cell graph: a pearl reads its
    own sides and the same sides of the nodes beyond through ``side_table``."""

    def __init__(self, puzzle: MasyuPuzzle, pairs, **kw):
        w, n = puzzle.dims.width, puzzle.dims.cell_count
        super().__init__(n, pairs, [EXACT2 if ch else OPT for ch in puzzle.cells], **kw)
        # For every node: side -> edge id, to express the local pearl rules.
        self.side_edge = side_table(w, n, pairs)
        # node -> pearls to recheck (the pearl itself and cells whose
        # edges appear in its straight-continuation rules).
        self.pearl_at: dict[int, str] = {r * w + c: COLOUR[ch] for c, r, ch in puzzle.scan()}
        self.watch: dict[int, list[int]] = {}
        for p in self.pearl_at:
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
    edges, pairs = build_cell_graph(puzzle.dims)
    search = _MasyuSearch(puzzle, pairs, budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True)
    return run_search(search, edges, lambda sol: verify(puzzle, sol), seeds_in, enumerate_all)
