"""Masyu: a single loop through every pearl.  The loop turns on black
pearls and runs straight through the cells on either side; it runs
straight through white pearls and turns on at least one side."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import json_int
from ..grid import SIDES, Cell, CellLoop, GridDims, LoopIds, Violation, least_cell
from ..search import EXACT2, IN, OPT, OUT, LoopSearch
from .base import CUT_CHECK_EVERY, ArtBoard, art_mask, build_cell_graph, check_art, entry_grid, run_search, side_table


@dataclass(frozen=True, slots=True, init=False)
class MasyuPuzzle(ArtBoard):
    """Pearls as the art bytes ``B`` (black) and ``W`` (white)."""

    def __init__(self, dims: GridDims, pearls: tuple[tuple[Cell, str], ...]) -> None:
        ArtBoard.__init__(self, dims, entry_grid(dims, pearls, COLOURS, b"BW", "bad pearl colour {value!r}", "pearl"))


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
    """Pearl rules as propagation on the flat cell graph.  Each pearl keeps
    two 4-tuples of edge ids in ``SIDES`` order, read off ``side_table``
    once: its own sides, and the same side of the node beyond each, which
    the loop holds when it runs straight on through that node.  -1 stands
    where there is no such edge, and reads as ``OUT``."""

    def __init__(self, puzzle: MasyuPuzzle, pairs, **kw):
        w, n = puzzle.dims.width, puzzle.dims.cell_count
        super().__init__(n, pairs, [EXACT2 if ch else OPT for ch in puzzle.cells], **kw)
        side = side_table(w, n, pairs)
        # node -> (black, own sides, sides beyond); node -> the pearls to
        # recheck: the pearl itself and up to two nodes beyond it on each side.
        self.pearl_at: dict[int, tuple[bool, tuple[int, ...], tuple[int, ...]]] = {}
        self.watch: dict[int, list[int]] = {}
        for c, r, ch in puzzle.scan():
            p = r * w + c
            nodes, own, beyond = [p], [], []
            for d in SIDES:
                e, f = side[p].get(d, -1), -1
                if e >= 0:
                    x = sum(pairs[e]) - p
                    f = side[x].get(d, -1)
                    nodes += [x] if f < 0 else [x, sum(pairs[f]) - x]
                own.append(e)
                beyond.append(f)
            self.pearl_at[p] = (COLOUR[ch] == "black", tuple(own), tuple(beyond))
            for x in nodes:
                self.watch.setdefault(x, []).append(p)

    def _force(self, ei: int, val: int) -> bool:
        if ei < 0:
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
        black, own, beyond = self.pearl_at[p]
        state, force = self.state, self._force
        at = [state[e] if e >= 0 else OUT for e in own]
        if black:
            # Exactly one of each axis; straight continuation beyond both.
            for k in range(4):
                e, o, f = own[k], own[k ^ 2], beyond[k]
                if at[k] == IN:
                    if not (force(o, OUT) and force(f, IN)):
                        return False
                # One opening per axis: a dead side forces the opposite one in.
                elif at[k] == OUT:
                    if not force(o, IN):
                        return False
                # An opening is unusable when its straight continuation
                # cannot exist.
                elif (f < 0 or state[f] == OUT) and not force(e, OUT):
                    return False
        else:
            # The two sides on each axis agree: a decided side forces the other.
            for k in (0, 2, 1, 3):
                if at[k] and not force(own[k ^ 2], at[k]):
                    return False
            # If the loop runs through along an axis, at least one side turns.
            for k in (0, 1):
                if at[k] == IN and at[k + 2] == IN:
                    a, b = beyond[k], beyond[k + 2]
                    a_straight = a >= 0 and state[a] == IN
                    b_straight = b >= 0 and state[b] == IN
                    if a_straight and b_straight:
                        return False
                    if a_straight and not force(b, OUT):
                        return False
                    if b_straight and not force(a, OUT):
                        return False
        return True


def solve(
    puzzle: MasyuPuzzle,
    budget_ms: Optional[float] = None,
    seeds_in=(),
    enumerate_all: bool = False,
):
    pairs = build_cell_graph(puzzle.dims)
    search = _MasyuSearch(puzzle, pairs, budget_ms=budget_ms, connectivity_every=CUT_CHECK_EVERY, branch_frontier=True)
    return run_search(search, puzzle.dims, lambda sol: verify(puzzle, sol), seeds_in, enumerate_all)
