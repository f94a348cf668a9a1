"""Pins the order in which ``LoopSearch`` walks its tree.

For each board the tests record the first solution, as a digest of its
sorted edges, and the number of decisions the search made (``_calls``).
Enumeration is pinned by a digest of the ordered solution sequence.  Any
change to which edge is branched on, to IN before OUT, to the deadline
or to the cut-check cadence (``genres.base.CUT_CHECK_EVERY`` for the
genres, 32 for BSL) moves these numbers; a cadence that stops refuting
the degenerate two-tile images shows as a jump in their decision counts.
So does any change to propagation: a rule that prunes only dead branches
leaves every status and first-solution digest as it is, but it lowers the
decision counts, which are then re-pinned.  It may also reorder a
frontier enumeration, because the chain end extended next
(``LoopSearch._last_end``) is not rolled back and so depends on the dead
branches explored; the set of ring solutions, pinned apart from their
order, must not change.  A faster cut check with the same
verdicts moves nothing; its verdicts are compared here with a
brute-force cut analysis.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loopforge import bsl, reduction
from loopforge.bsl import BslPuzzle, CubicBslPuzzle, solve_bsl_backtrack, verify_bsl
from loopforge.catalog import (
    RING_2X2,
    RING_2X2_TOUR,
    RING_2X3,
    RING_2X3_TOUR,
    _ring_required_pairs,
    assemble_board,
    load_gadget,
    place_fragment,
)
from loopforge.errors import SearchTimeout
from loopforge.genres import GENRES
from loopforge.genres.base import build_cell_graph
from loopforge.genres.yajilin import YajilinPuzzle
from loopforge.grid import GridDims, edge_sort_key
from loopforge.search import EXACT2, IN, OPT, OUT, UNKNOWN, LoopSearch
from loopforge.tiling import crossings
from conftest import fixture_puzzle, internal_edges, perfbench_module, solve_seeded
from test_bsl import SMALL_BOARDS
from test_dp import planted_bars


def _digest(solutions) -> str:
    """SHA-256 of the sorted edges of each solution, in order."""
    text = "\n".join(repr(sorted(s.transitions)) for s in solutions)
    return hashlib.sha256(text.encode()).hexdigest()


def _capture(monkeypatch, module) -> list:
    """Record every LoopSearch that ``module`` hands to ``run_search``."""
    searches = []
    original = module.run_search

    def wrapper(search, *args, **kwargs):
        searches.append(search)
        return original(search, *args, **kwargs)

    monkeypatch.setattr(module, "run_search", wrapper)
    return searches


def _planted_board(seed: int) -> BslPuzzle:
    """An even board around a loop doubled from a random spanning tree.

    A tenth of the edges off the loop are barred; every third seed also
    bars one loop edge, which leaves the answer to the solver.
    """
    rng = random.Random(seed)
    w, h = rng.choice((4, 6, 8, 10, 12)), rng.choice((4, 6, 8, 10, 12))
    cw, ch = w // 2, h // 2
    loop = set()
    for i in range(cw):
        for j in range(ch):
            loop |= {("h", 2 * i, 2 * j), ("h", 2 * i, 2 * j + 1), ("v", 2 * i, 2 * j), ("v", 2 * i + 1, 2 * j)}
    joined = {(0, 0)}
    while len(joined) < cw * ch:
        i, j = rng.choice(sorted(joined))
        di, dj = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        if not (0 <= i + di < cw and 0 <= j + dj < ch) or (i + di, j + dj) in joined:
            continue
        joined.add((i + di, j + dj))
        # Merge the two 2x2 block cycles across their shared side.
        x, y = 2 * min(i, i + di), 2 * min(j, j + dj)
        if di:
            loop -= {("v", x + 1, y), ("v", x + 2, y)}
            loop |= {("h", x + 1, y), ("h", x + 1, y + 1)}
        else:
            loop -= {("h", x, y + 1), ("h", x, y + 2)}
            loop |= {("v", x, y + 1), ("v", x + 1, y + 1)}
    dims = GridDims(w, h)
    off = [e for e in internal_edges(dims) if e not in loop]
    bars = set(rng.sample(off, len(off) // 10))
    if seed % 3 == 2:
        bars.add(rng.choice(sorted(loop)))
    return BslPuzzle(dims, frozenset(bars))


# Backtracking BSL: index-order branching with a cut check every 32
# decisions.  (board, status, decisions, first 16 hex digits of the digest)
BSL_PINS = [
    ("planted0", "sat", 42, "731ab94c2f88eda8"),
    ("planted1", "sat", 22, "ee3252b6ec96716f"),
    ("planted2", "sat", 1, "975c36164e27a815"),
    ("planted3", "sat", 22, "9db1c200a2fd3d26"),
    ("planted4", "sat", 16, "1bf7776acbcd6531"),
    ("planted5", "sat", 35, "e0f5e62901b9dcbf"),
    ("planted6", "sat", 13, "468ca7728cf3231e"),
    ("planted7", "sat", 18, "d32a59497c17d317"),
    ("planted8", "sat", 11, "e3b996bc35c39ded"),
    ("planted9", "sat", 52, "2720031bde06e222"),
    ("planted10", "sat", 15, "9a2bcea01ebb354d"),
    ("planted11", "unsat", 0, None),
    ("planted24", "sat", 51, "9966ce69ad7ac00f"),
    ("planted95", "sat", 65, "ef258cd6195754c9"),
    ("barless5x5", "unsat", 0, None),
    ("barless7x7", "unsat", 0, None),
    ("barless4x9", "sat", 10, "9d61b2832e199f17"),
    ("barless10x10", "sat", 60, "aa97f9ea70a7f059"),
]


@pytest.mark.parametrize("board,status,calls,digest", BSL_PINS, ids=[p[0] for p in BSL_PINS])
def test_bsl_backtrack_traversal(monkeypatch, board, status, calls, digest):
    if board.startswith("planted"):
        puzzle = _planted_board(int(board[len("planted"):]))
    else:
        w, h = map(int, board[len("barless"):].split("x"))
        puzzle = BslPuzzle(GridDims(w, h), frozenset())
    searches = _capture(monkeypatch, bsl)
    result = solve_bsl_backtrack(puzzle)
    assert result.status == status
    assert searches[0]._calls == calls
    assert (_digest([result.solution])[:16] if result.solution else None) == digest


def test_face_parity_cuts_a_heavy_tail_board(monkeypatch):
    """A 20x14 board around a planted loop with 30 % of the other edges
    barred.  Index-order search without face parity made 3,000,000
    decisions (174 s) without finding a loop; with it, BSL backtracking
    finds the least loop in 4,557."""
    puzzle = BslPuzzle(GridDims(20, 14), planted_bars(random.Random(82), 20, 14, 0.3, False))
    searches = _capture(monkeypatch, bsl)
    result = solve_bsl_backtrack(puzzle)
    assert (result.status, searches[0]._calls) == ("sat", 4557)
    assert verify_bsl(puzzle, result.solution) is None


def _ring_board(genre: str, tiles_w: int):
    """A genre ring board seeded with its crossings and every tile but (0, 0)."""
    desc = load_gadget(genre)
    layout, ring = (RING_2X2, RING_2X2_TOUR) if tiles_w == 2 else (RING_2X3, RING_2X3_TOUR)
    board = assemble_board(desc, layout, tiles_w, 2)
    cross = crossings(desc, layout)
    seeds = {cross[edge] for edge in ring.transitions}
    for pos, pair in _ring_required_pairs(layout, ring).items():
        if pos != (0, 0):
            seeds |= place_fragment(desc, desc.bank[pair], layout[pos], pos)
    return board, sorted(seeds, key=edge_sort_key)


# Genre solvers: frontier branching, a cut check at every
# ``CUT_CHECK_EVERY``-th decision.
# (genre, ring width in tiles, status, decisions, first 16 hex digits)
GENRE_PINS = [
    ("masyu", 2, "sat", 27, "b6adebc1ed61395e"),
    ("masyu", 3, "sat", 27, "e0b2c4fd2edbdccd"),
    ("simple-loop", 2, "sat", 1, "20c680bcb24875b0"),
    ("simple-loop", 3, "sat", 1, "667be645b4fe3c53"),
    ("slitherlink", 2, "sat", 283, "bca8635c4f0bd751"),
    ("slitherlink", 3, "sat", 283, "acd5e1a47bfcc25c"),
    ("yajilin", 2, "sat", 5, "20c680bcb24875b0"),
    ("yajilin", 3, "sat", 5, "667be645b4fe3c53"),
]


@pytest.mark.parametrize("genre,tiles_w,status,calls,digest", GENRE_PINS)
def test_genre_ring_traversal(monkeypatch, genre, tiles_w, status, calls, digest):
    board, seeds = _ring_board(genre, tiles_w)
    module = GENRES[genre]
    searches = _capture(monkeypatch, module)
    result = solve_seeded(monkeypatch, module, board, seeds)
    assert result.status == status
    assert searches[0]._calls == calls
    assert _digest([result.solution])[:16] == digest


@pytest.mark.parametrize(
    "genre,count,calls,digest",
    [
        ("simple-loop", 16, 15, "3dc82bbbb685dacc109c57b5f1dc2a0503dd650270b6fecdc002209cc03cb5b0"),
        ("yajilin", 100, 900, "1ef02a4293cf2c1b39ece75fa7a869bb335e023a1e28b1d7d70c89b0815817ec"),
    ],
    ids=["simple-loop", "yajilin"],
)
def test_enumeration_order(monkeypatch, genre, count, calls, digest):
    board = assemble_board(load_gadget(genre), RING_2X2, 2, 2)
    module = GENRES[genre]
    searches = _capture(monkeypatch, module)
    taken = list(itertools.islice(module.solve(board, enumerate_all=True), count))
    assert len(taken) == count
    assert searches[0]._calls == calls
    assert _digest(taken) == digest


# SHA-256 of every ring solution's sorted edges, the lines sorted: a
# pruning rule may reorder the enumeration but never change this set.
RING_SET_DIGESTS = {
    "simple-loop": "810d008cf838caee4196b1dc4f6b458998a7b0693fa4db6dd54f679fa5d7e91d",
    "yajilin": "3979816af6006c2b119ed50f445375f1f0b321694fd01389c6f9981b08c051a7",
}


@pytest.mark.parametrize("genre,count", [("simple-loop", 16), ("yajilin", 1080)])
def test_ring_enumeration_counts(genre, count):
    board = assemble_board(load_gadget(genre), RING_2X2, 2, 2)
    solutions = list(GENRES[genre].solve(board, enumerate_all=True))
    assert len(solutions) == len(set(solutions)) == count
    text = "\n".join(sorted(repr(sorted(s.transitions)) for s in solutions))
    assert hashlib.sha256(text.encode()).hexdigest() == RING_SET_DIGESTS[genre]


# Every degenerate cubic source reduces to one two-tile image per genre,
# which no loop can cover.  (genre, decisions)
DEGENERATE_PINS = [("masyu", 8), ("simple-loop", 0), ("yajilin", 6)]


@pytest.mark.parametrize("genre,calls", DEGENERATE_PINS, ids=[p[0] for p in DEGENERATE_PINS])
def test_degenerate_image_traversal(monkeypatch, genre, calls):
    corner = frozenset({("h", 0, 0), ("v", 0, 0)})
    board, _ = reduction.reduce_to_genre(CubicBslPuzzle(BslPuzzle(GridDims(2, 2), corner)), genre)
    module = GENRES[genre]
    searches = _capture(monkeypatch, module)
    assert module.solve(board, budget_ms=5000).status == "unsat"
    assert searches[0]._calls == calls


def _small_cubic_source(width: int, height: int, kind: str) -> BslPuzzle:
    """The benchmark's small cubic source of this size and kind for ``random.Random(7)``."""
    source = perfbench_module("inputs").small_cubic_source(random.Random(7), width, height, kind)
    return BslPuzzle(GridDims(width, height), source.bars)


# Genre images of small cubic sources, whole boards beyond the tile
# rings.  (genre, source size, kind, status, decisions, first 16 hex digits)
IMAGE_PINS = [
    ("yajilin", (4, 2), "sat", "sat", 319, "273aa3d18a9817c6"),
    ("yajilin", (2, 4), "unsat", "unsat", 7550, None),
    ("masyu", (2, 2), "sat", "sat", 849, "b02811dfc3c180b7"),
]


@pytest.mark.parametrize(
    "genre,size,kind,status,calls,digest", IMAGE_PINS, ids=[f"{p[0]}-{p[2]}-{p[1][0]}x{p[1][1]}" for p in IMAGE_PINS]
)
def test_small_source_image_traversal(monkeypatch, genre, size, kind, status, calls, digest):
    board, _ = reduction.reduce_to_genre(CubicBslPuzzle(_small_cubic_source(*size, kind)), genre)
    module = GENRES[genre]
    searches = _capture(monkeypatch, module)
    result = module.solve(board)
    assert result.status == status
    assert searches[0]._calls == calls
    assert (_digest([result.solution])[:16] if result.solution else None) == digest


def _clued_yajilin(seed: int) -> YajilinPuzzle:
    """A 5-7 x 5-7 Yajilin board with about an eighth of its cells grey, an
    arrow clue of count 0 or 1 on most of them."""
    rng = random.Random(seed)
    dims = GridDims(rng.choice((5, 6, 7)), rng.choice((5, 6, 7)))
    grey = [c for c in dims.cells() if rng.random() < 0.12]
    clues = tuple((c, rng.randint(0, 1), rng.choice("ENSW")) for c in grey if rng.random() < 0.6)
    return YajilinPuzzle(dims, grey, clues)


# Yajilin boards with arrow clues: the fixture and seeded boards.  (board,
# status, decisions, first 16 hex digits, solutions, enumeration decisions,
# first 16 hex digits of the solution set's digest as in RING_SET_DIGESTS)
CLUED_YAJILIN_PINS = [
    ("fixture", "sat", 3, "76e32848df251c23", 1, 7, "76e32848df251c23"),
    ("seed2", "sat", 9, "e1615235955ce64f", 23, 61, "2a479785a18a04bf"),
    ("seed3", "unsat", 86, None, 0, 86, "e3b0c44298fc1c14"),
    ("seed6", "sat", 15, "b920e1eae4dcce5c", 112, 290, "be3b686785f43506"),
    ("seed14", "sat", 8, "3043fccdc93da2d5", 145, 644, "9750f181627c30d2"),
    ("seed19", "sat", 14, "7693c19543a4f3a7", 162, 451, "3dcda2796c02cd44"),
    ("seed20", "unsat", 103, None, 0, 103, "e3b0c44298fc1c14"),
    ("seed22", "sat", 5, "f83b5b6bd7b92cdf", 38, 94, "4095de79bc06ed0f"),
    ("seed23", "unsat", 78, None, 0, 78, "e3b0c44298fc1c14"),
    ("seed31", "unsat", 157, None, 0, 157, "e3b0c44298fc1c14"),
    ("seed35", "sat", 9, "b0fe248e24801188", 151, 313, "a9b2a8093921abcb"),
]


@pytest.mark.parametrize(
    "board,status,calls,digest,count,enum_calls,set_digest", CLUED_YAJILIN_PINS, ids=[p[0] for p in CLUED_YAJILIN_PINS]
)
def test_clued_yajilin_traversal(monkeypatch, board, status, calls, digest, count, enum_calls, set_digest):
    puzzle = fixture_puzzle("yajilin_example") if board == "fixture" else _clued_yajilin(int(board[len("seed"):]))
    assert puzzle.clues
    module = GENRES["yajilin"]
    searches = _capture(monkeypatch, module)
    result = module.solve(puzzle, budget_ms=60000)
    solutions = list(module.solve(puzzle, budget_ms=60000, enumerate_all=True))
    assert result.status == status
    assert searches[0]._calls == calls
    assert (_digest([result.solution])[:16] if result.solution else None) == digest
    assert len(solutions) == len(set(solutions)) == count
    assert searches[1]._calls == enum_calls
    text = "\n".join(sorted(repr(sorted(s.transitions)) for s in solutions))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == set_digest


def _reach(n: int, pairs, start: int) -> list:
    """Breadth-first distances from ``start`` over ``pairs``; None where unreached."""
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    dist = [None] * n
    dist[start] = 0
    todo = [start]
    for x in todo:
        for y in adj[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                todo.append(y)
    return dist


def _split(n: int, pairs, required: set) -> bool:
    """Whether the nodes in ``required`` lie in more than one component."""
    if not required:
        return False
    dist = _reach(n, pairs, min(required))
    return any(dist[x] is None for x in required)


def _brute_cut_ok(search: LoopSearch) -> bool:
    """The verdict of ``_connected_ok`` by exhaustion.

    Required nodes are the must-visit and on-loop ones.  The branch is
    dead when they do not share one component of the non-OUT graph, when
    removing any one node or edge splits them, or when the graph is
    bipartite, the live component has no optional node with an undecided
    edge, and the required nodes are not split evenly between the sides.
    """
    n = search.n_nodes
    live = [e for e, st in zip(search.edges, search.state) if st != OUT]
    required = {x for x in range(n) if search.req[x] == EXACT2 or search.in_cnt[x]}
    if not required:
        return True
    if _split(n, live, required):
        return False
    for x in range(n):
        if _split(n, [e for e in live if x not in e], required - {x}):
            return False
    for i in range(len(live)):
        if _split(n, live[:i] + live[i + 1:], required):
            return False
    side = [None] * n
    for x in range(n):
        if side[x] is None:
            for y, d in enumerate(_reach(n, search.edges, x)):
                if d is not None:
                    side[y] = d % 2
    if any(side[u] == side[v] for u, v in search.edges):
        return True
    undecided = [0] * n
    for (u, v), st in zip(search.edges, search.state):
        if st == UNKNOWN:
            undecided[u] += 1
            undecided[v] += 1
    dist = _reach(n, live, min(required))
    if any(dist[x] is not None and x not in required and undecided[x] for x in range(n)):
        return True
    return 2 * sum(side[x] for x in required) == len(required)


def _compare_cuts(monkeypatch, every: int = 1) -> list[bool]:
    """Check ``_connected_ok`` against the brute force before every ``every``-th decision."""
    verdicts = []
    original = LoopSearch._branch

    def branch(self, lo):
        if self._calls % every == 0:
            fast = self._connected_ok()
            assert fast == _brute_cut_ok(self)
            verdicts.append(fast)
        return original(self, lo)

    monkeypatch.setattr(LoopSearch, "_branch", branch)
    return verdicts


def _compare_checks(monkeypatch) -> list[bool]:
    """Check every verdict of ``_connected_ok`` the search asks for, the
    one before the first decision included, against the brute force."""
    verdicts = []
    original = LoopSearch._connected_ok

    def checked(self):
        fast = original(self)
        assert fast == _brute_cut_ok(self)
        verdicts.append(fast)
        return fast

    monkeypatch.setattr(LoopSearch, "_connected_ok", checked)
    return verdicts


def test_cut_check_matches_brute_force_on_small_boards(monkeypatch):
    verdicts = _compare_checks(monkeypatch)
    odd = [BslPuzzle(GridDims(5, 5), frozenset()), BslPuzzle(GridDims(5, 7), frozenset())]
    for puzzle in SMALL_BOARDS + odd:
        pairs = build_cell_graph(puzzle.dims, sides=puzzle.sides)
        n = puzzle.dims.cell_count
        list(LoopSearch(n, pairs, [EXACT2] * n, connectivity_every=1).solutions())
    assert True in verdicts and False in verdicts


def test_cut_check_matches_brute_force_on_random_states():
    """Random partial assignments reach cut nodes that the solvers' own runs rarely do."""
    verdicts = []
    for seed in range(40):
        rng = random.Random(seed)
        dims = GridDims(rng.randint(3, 6), rng.randint(3, 6))
        pairs = build_cell_graph(dims)
        n = dims.cell_count
        search = LoopSearch(n, pairs, [EXACT2 if rng.random() < 0.6 else OPT for _ in range(n)])
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for ei in order:
            mark = len(search.trail)
            search.queue.append((ei, IN if rng.random() < 0.3 else OUT))
            if not search._propagate() or search.closed:
                search._rollback(mark)
                continue
            fast = search._connected_ok()
            assert fast == _brute_cut_ok(search), seed
            verdicts.append(fast)
    assert True in verdicts and False in verdicts


def _grid3(ids: list[int]) -> list[tuple[int, int]]:
    """Edges of a 3x3 grid whose nodes, row by row, are ``ids``."""
    return [(ids[i], ids[i + 1]) for i in range(9) if i % 3 < 2] + [(ids[i], ids[i + 3]) for i in range(6)]


@pytest.mark.parametrize(
    "pairs,must_visit,start",
    [
        # Two optional 3x3 grids joined by the bridge 0-9: its two ends
        # can only meet across it once.
        ([(0, 9)] + _grid3(list(range(9))) + _grid3(list(range(9, 18))), (), 0),
        # Two 3x3 grids sharing the corner 0, each with a must-visit centre.
        (_grid3(list(range(9))) + _grid3([0] + list(range(9, 17))), (4, 12), 0),
        # Two 3x3 grids sharing the corner 8, the far one with a must-visit
        # centre; the IN edge 0-1 pulls in 0-3 as well.
        (_grid3(list(range(9))) + _grid3([8] + list(range(9, 17))), (12,), 1),
    ],
    ids=["bridge-at-start", "cut-node-at-start", "cut-node"],
)
def test_cut_between_required_nodes_is_dead(pairs, must_visit, start):
    """The walk starts at a chain end; a cut there and one away from it take different rules."""
    n = max(map(max, pairs)) + 1
    search = LoopSearch(n, pairs, [EXACT2 if x in must_visit else OPT for x in range(n)])
    search.queue.append((0, IN))
    assert search._propagate() and next(iter(search.ends)) == start
    assert search._connected_ok() is _brute_cut_ok(search) is False


def test_cut_check_matches_brute_force_on_rings(monkeypatch):
    required = []
    require = LoopSearch.require

    def counted_require(self, x):
        required.append(x)
        require(self, x)

    monkeypatch.setattr(LoopSearch, "require", counted_require)
    seen = []
    # On Slitherlink's 21x21 dot grid one brute-force pass is about 1,100
    # graph walks, so its ring is compared at every 80th decision only.
    for genre, every in (("masyu", 1), ("simple-loop", 1), ("slitherlink", 80), ("yajilin", 1)):
        board, seeds = _ring_board(genre, 2)
        with monkeypatch.context() as m:
            verdicts = _compare_cuts(m, every)
            assert solve_seeded(m, GENRES[genre], board, seeds).status == "sat"
        seen += verdicts
    # The unseeded Yajilin ring shades cells, which raises their
    # neighbours to must-visit through ``require``.
    verdicts = _compare_cuts(monkeypatch)
    assert GENRES["yajilin"].solve(assemble_board(load_gadget("yajilin"), RING_2X2, 2, 2)).status == "sat"
    assert required and verdicts
    seen += verdicts
    assert True in seen and False in seen


def test_forcing_against_a_decided_edge_is_a_conflict():
    """A forcing popped for an edge already decided is skipped when it agrees
    and a conflict when it does not."""
    pairs = build_cell_graph(GridDims(3, 3))
    search = LoopSearch(9, pairs, [OPT] * 9)
    search.queue.append((0, OUT))
    assert search._propagate()
    mark = len(search.trail)
    search.queue.append((0, OUT))
    assert search._propagate() and len(search.trail) == mark
    free = search.state.index(UNKNOWN)
    search.queue += [(0, IN), (free, IN)]
    assert not search._propagate() and not search.queue and search.state[free] == UNKNOWN


def test_spent_budget_stops_before_the_seeds_propagate():
    pairs = build_cell_graph(GridDims(4, 4))
    search = LoopSearch(16, pairs, [EXACT2] * 16, budget_ms=0)
    search.deadline = time.monotonic() - 1.0
    with pytest.raises(SearchTimeout):
        next(search.solutions([(0, IN)]))
    assert search._ticks == 0 and search._calls == 0


# Solving a barless 40x40 board nests 1,462 decisions deep.
DEEP_SOLVE = """
import sys
from loopforge.bsl import BslPuzzle, solve_bsl_backtrack, verify_bsl
from loopforge.grid import GridDims
limit = sys.getrecursionlimit()
puzzle = BslPuzzle(GridDims(40, 40), frozenset())
result = solve_bsl_backtrack(puzzle)
print(result.status, verify_bsl(puzzle, result.solution) is None, sys.getrecursionlimit() == limit)
"""


def test_deep_search_runs_on_a_small_stack():
    resource = pytest.importorskip("resource")

    def small_stack():
        hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
        resource.setrlimit(resource.RLIMIT_STACK, (512 * 1024, hard))

    src = str(Path(bsl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_SOLVE],
        env=env,
        preexec_fn=small_stack,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["sat", "True", "True"]


def test_solve_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    puzzle = BslPuzzle(GridDims(40, 40), frozenset())
    result = solve_bsl_backtrack(puzzle)
    assert result.status == "sat" and verify_bsl(puzzle, result.solution) is None
    assert sys.getrecursionlimit() == limit
