"""Face parity in ``LoopSearch`` prunes only dead branches.

The loop is a Jordan curve on a planar grid graph, so each face lies
inside or outside it and an edge is ``IN`` exactly when its two faces
differ.  On seeded small boards every solution is enumerated with face
ids and without them, and the two sets must be equal.  On BSL boards and
cubic images, searched as BSL backtracking searches them, the two
enumerations must also come in the same order, so its first solution
stays the least one.  Hand-built cases check the parity union-find itself.
"""

from __future__ import annotations

import random

import pytest

from conftest import cell_mask, internal_edges, pair_edges
from loopforge.bsl import BslPuzzle, solve_bsl_backtrack
from loopforge.genres.base import CUT_CHECK_EVERY, build_cell_graph, grid_faces
from loopforge.genres.masyu import MasyuPuzzle, _MasyuSearch
from loopforge.genres.slitherlink import SlitherlinkPuzzle, _SlitherlinkSearch
from loopforge.genres import yajilin
from loopforge.genres.yajilin import YajilinPuzzle, _YajilinSearch
from loopforge.grid import GridDims
from loopforge.metacell import reduce_to_cubic
from loopforge.search import EXACT2, IN, OPT, OUT, LoopSearch


def _both(make, dims: GridDims, pairs) -> tuple[set, set]:
    """Every solution of the search ``make`` builds, without and with face ids."""
    plain = set(make().solutions())
    faced = make(faces=grid_faces(dims, pairs))
    return plain, set(faced.solutions())


def _modes(rng: random.Random) -> dict:
    """A branching mode and cut-check cadence, as the genres or BSL use them."""
    return rng.choice(
        (
            {"connectivity_every": CUT_CHECK_EVERY, "branch_frontier": True},
            {"connectivity_every": 0, "branch_frontier": False},
            {"connectivity_every": 1, "branch_frontier": False},
        )
    )


@pytest.mark.parametrize("seed", range(45))
def test_cell_grids_with_closed_cells(seed):
    """Optional cells, must-visit cells (Simple Loop) and Yajilin's shading rule."""
    rng = random.Random(seed)
    dims = GridDims(rng.randint(2, 5), rng.randint(2, 5))
    cells = list(dims.cells())
    closed = frozenset(rng.sample(cells, round(len(cells) * rng.uniform(0, 0.3))))
    grid_edges = internal_edges(dims)
    bars = frozenset(rng.sample(grid_edges, rng.randint(0, len(grid_edges) // 8)))
    pairs = build_cell_graph(dims, cell_mask(dims, closed), BslPuzzle(dims, bars).sides)
    mode = _modes(rng)
    kind = seed % 3
    if kind == 2:
        puzzle = YajilinPuzzle(dims, closed)
        plain, faced = _both(lambda **kw: _YajilinSearch(puzzle, pairs, **mode, **kw), dims, pairs)
    else:
        req = [OPT if kind == 0 or cell in closed else EXACT2 for cell in cells]
        plain, faced = _both(lambda **kw: LoopSearch(len(cells), pairs, req, **mode, **kw), dims, pairs)
    assert faced == plain


@pytest.mark.parametrize("seed", range(30))
def test_full_cell_grids_with_optional_nodes(seed):
    """Masyu style: every cell optional unless a pearl sits on it."""
    rng = random.Random(seed)
    dims = GridDims(rng.randint(2, 4), rng.randint(2, 4))
    cells = list(dims.cells())
    pearls = tuple((cell, rng.choice(("white", "black"))) for cell in rng.sample(cells, rng.randint(0, 2)))
    puzzle = MasyuPuzzle(dims, pearls)
    pairs = build_cell_graph(dims)
    mode = _modes(rng)
    plain, faced = _both(lambda **kw: _MasyuSearch(puzzle, pairs, **mode, **kw), dims, pairs)
    assert faced == plain


@pytest.mark.parametrize("seed", range(30))
def test_dot_lattices_with_clues(seed):
    """Slitherlink clues, mostly read off one loop of the lattice so the board is sat."""
    rng = random.Random(seed)
    cells = GridDims(rng.randint(1, 3), rng.randint(1, 3))
    dots = GridDims(cells.width + 1, cells.height + 1)
    pairs = build_cell_graph(dots)
    edges = pair_edges(dots.width, pairs)
    clued = rng.sample(list(cells.cells()), rng.randint(1, min(4, cells.cell_count)))
    if seed % 4:
        loops = sorted(sorted(s) for s in LoopSearch(dots.cell_count, pairs, [OPT] * dots.cell_count).solutions())
        on = {edges[i] for i in rng.choice(loops)}
        counts = {(c, r): len({("h", c, r), ("h", c, r + 1), ("v", c, r), ("v", c + 1, r)} & on) for c, r in clued}
        clues = tuple((cell, n) for cell, n in counts.items() if n < 4)
    else:
        clues = tuple((cell, rng.randint(0, 3)) for cell in clued)
    puzzle = SlitherlinkPuzzle(cells, clues)
    mode = _modes(rng)
    plain, faced = _both(lambda **kw: _SlitherlinkSearch(puzzle, pairs, **mode, **kw), dots, pairs)
    assert faced == plain


def _bsl_orders(puzzle: BslPuzzle) -> tuple[list, list]:
    """Every solution of ``puzzle`` in the order BSL backtracking finds them
    (index order, a cut check every 32 decisions), without and with face ids."""
    pairs = build_cell_graph(puzzle.dims, sides=puzzle.sides)
    edges = pair_edges(puzzle.dims.width, pairs)
    n = puzzle.dims.cell_count

    def order(**kw) -> list:
        search = LoopSearch(n, pairs, [EXACT2] * n, connectivity_every=32, **kw)
        return [frozenset(edges[i] for i in ids) for ids in search.solutions()]

    return order(), order(faces=grid_faces(puzzle.dims, pairs))


def _barred_board(seed: int) -> BslPuzzle:
    """A seeded board up to 6x6 with up to 8 % of its edges barred, three in
    four of them an even width wide so that most can have a loop."""
    rng = random.Random(seed)
    dims = GridDims(rng.randint(2, 6) if seed % 4 == 0 else rng.choice((2, 4, 6)), rng.randint(2, 6))
    edges = internal_edges(dims)
    return BslPuzzle(dims, frozenset(rng.sample(edges, round(len(edges) * rng.uniform(0, 0.08)))))


def _cubic_image(seed: int) -> BslPuzzle:
    """The cubic image of a seeded 2x2, 2x3 or 3x2 source with up to two bars."""
    rng = random.Random(seed)
    dims = GridDims(*rng.choice(((2, 2), (2, 3), (3, 2))))
    source = BslPuzzle(dims, frozenset(rng.sample(internal_edges(dims), rng.randint(0, 2))))
    return reduce_to_cubic(source)[0].inner


BSL_BOARDS = [_barred_board(seed) for seed in range(40)] + [_cubic_image(seed) for seed in range(8)]


@pytest.mark.parametrize("index", range(len(BSL_BOARDS)))
def test_bsl_boards_keep_their_enumeration_order(index):
    """Face parity keeps BSL backtracking's enumeration order and first solution."""
    puzzle = BSL_BOARDS[index]
    plain, faced = _bsl_orders(puzzle)
    assert faced == plain
    result = solve_bsl_backtrack(puzzle)
    assert (result.solution.transitions if result.solution else None) == (plain[0] if plain else None)


def test_bsl_boards_have_both_verdicts_and_long_enumerations():
    counts = [len(_bsl_orders(puzzle)[0]) for puzzle in BSL_BOARDS]
    assert counts.count(0) >= 10 and sum(count > 1 for count in counts) >= 10 and max(counts) >= 1000


def _square_search() -> tuple[LoopSearch, dict]:
    """A 3x3 node grid with faces: squares 1 2 / 3 4 around the centre, 0 outside."""
    dims = GridDims(3, 3)
    pairs = build_cell_graph(dims)
    search = LoopSearch(dims.cell_count, pairs, [OPT] * dims.cell_count, faces=grid_faces(dims, pairs))
    return search, {e: i for i, e in enumerate(pair_edges(dims.width, pairs))}


def test_grid_face_ids():
    dims = GridDims(3, 3)
    pairs = build_cell_graph(dims, cell_mask(dims, {(2, 2)}))
    edges = pair_edges(dims.width, pairs)
    faces, absent = grid_faces(dims, pairs)
    got = dict(zip(edges, faces))
    assert got[("h", 0, 0)] == (0, 1)
    assert got[("v", 1, 0)] == (1, 2)
    assert got[("h", 0, 1)] == (1, 3)
    assert got[("v", 1, 1)] == (3, 4)
    # The two edges into the closed corner node are absent.
    assert absent == [(4, 0), (4, 0)]


@pytest.mark.parametrize("width,height", [(1, 1), (1, 3), (3, 1)])
def test_yajilin_boards_without_faces(width, height):
    """A board one cell wide has only the outer face, or no edge at all."""
    puzzle = YajilinPuzzle(GridDims(width, height), frozenset())
    assert yajilin.solve(puzzle).status == "unsat"


def test_odd_cycle_of_relations_is_a_conflict():
    search, _ = _square_search()
    assert search._join_faces(1, 2, 1)
    assert search._join_faces(2, 4, 1)
    assert not search._join_faces(1, 4, 1)
    assert search._join_faces(1, 4, 0)
    # Odd cycles through the outer face, and a relation that repeats.
    assert search._join_faces(0, 1, 0)
    assert not search._join_faces(0, 2, 0)
    assert search._join_faces(2, 0, 1)


def test_transitive_relation_forces_an_edge():
    search, eidx = _square_search()
    assert search._join_faces(1, 0, 1)
    search.queue.clear()
    # 0 and 2 on one side, so 1 and 2 differ: the edge between them is IN.
    assert search._join_faces(0, 2, 0)
    assert (eidx[("v", 1, 0)], IN) in search.queue
    assert (eidx[("h", 1, 0)], OUT) in search.queue
    assert (eidx[("v", 2, 0)], OUT) in search.queue


def test_solutions_restore_the_face_union_find():
    dims = GridDims(4, 4)
    closed = frozenset({(1, 1)})
    pairs = build_cell_graph(dims, cell_mask(dims, closed))
    search = _YajilinSearch(
        YajilinPuzzle(dims, closed),
        pairs,
        connectivity_every=CUT_CHECK_EVERY,
        branch_frontier=True,
        faces=grid_faces(dims, pairs),
    )
    before = (list(search.face_root), list(search.face_par), [list(c) for c in search.face_class])
    # The closed node's four absent edges joined its four squares already.
    assert len({search.face_root[f] for f in (1, 2, 4, 5)}) == 1
    assert len(list(search.solutions())) > 0
    assert (search.face_root, search.face_par, search.face_class) == before
