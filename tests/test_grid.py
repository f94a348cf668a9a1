import random

import pytest

from conftest import ring
from loopforge.errors import BoundsError
from loopforge.grid import (
    CellLoop,
    GridDims,
    boundary_edges,
    checkerboard_color,
    edge_between,
    edge_cells,
    edge_sort_key,
    internal_edges,
    loop_ids,
    neighbors,
    validate_loop,
)
from loopforge.genres.slitherlink import LatticeLoop, SlitherlinkPuzzle, lattice_edges
from loopforge.genres.slitherlink import verify as verify_slitherlink

SQUARE_2X2 = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))


def test_dims_validation():
    with pytest.raises(ValueError):
        GridDims(0, 3)
    with pytest.raises(ValueError):
        GridDims(3, -1)
    assert GridDims(1, 1).cell_count == 1


def test_neighbors_corner_and_interior():
    d = GridDims(4, 4)
    assert [n for n, _ in neighbors(d, (0, 0))] == [(1, 0), (0, 1)]
    assert len(neighbors(d, (1, 1))) == 4
    assert [n for n, _ in neighbors(GridDims(1, 3), (0, 1))] == [(0, 0), (0, 2)]
    with pytest.raises(BoundsError):
        neighbors(d, (4, 0))


def test_checkerboard():
    assert checkerboard_color((0, 0)) == "black"
    assert checkerboard_color((1, 0)) == "white"
    assert checkerboard_color((2, 3)) == "white"


@pytest.mark.parametrize("w,h", [(1, 1), (2, 2), (3, 4), (5, 5), (7, 2)])
def test_checkerboard_partition(w, h):
    blacks = sum(1 for r in range(h) for c in range(w) if checkerboard_color((c, r)) == "black")
    assert blacks == (w * h + 1) // 2


def test_canonical_order_is_total():
    rng = random.Random(11)
    d = GridDims(5, 4)
    pool = internal_edges(d) + boundary_edges(d)
    for _ in range(50):
        sample = rng.sample(pool, 12)
        once = sorted(sample, key=edge_sort_key)
        assert sorted(once, key=edge_sort_key) == once
        keys = [edge_sort_key(e) for e in pool]
        assert len(set(keys)) == len(keys)


def test_edge_helpers():
    assert edge_cells(("h", 2, 1)) == ((2, 1), (3, 1))
    assert edge_between((2, 1), (2, 2)) == ("v", 2, 1)
    with pytest.raises(ValueError):
        edge_between((0, 0), (2, 0))


def test_validate_loop_accepts_square():
    assert validate_loop(GridDims(2, 2), SQUARE_2X2, must_visit=GridDims(2, 2).cells()) is None


def test_validate_loop_rejects_open_path():
    broken = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0)}))
    v = validate_loop(GridDims(2, 2), broken)
    assert v is not None and v.code == "degree"


def test_validate_loop_rejects_two_components():
    d = GridDims(4, 2)
    two = CellLoop(
        frozenset(
            {("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0),
             ("h", 2, 0), ("h", 2, 1), ("v", 2, 0), ("v", 3, 0)}
        )
    )
    v = validate_loop(d, two, must_visit=d.cells())
    assert v is not None and v.code == "components"


def _walk_oracle(loop: CellLoop) -> bool:
    """Independent cycle check: follow transitions and count steps."""
    adj = {}
    for e in loop.transitions:
        a, b = edge_cells(e)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if not adj or any(len(v) != 2 for v in adj.values()):
        return False
    start = min(adj)
    prev, cur, steps = None, start, 0
    while True:
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
        steps += 1
        if cur == start:
            return steps == len(loop.transitions)


def _random_edge_sets(rng, w, h, pool, count):
    """Random subsets plus rings, pairs of rings and rings with toggled edges."""
    for _ in range(count):
        kind = rng.random()
        if kind < 0.4 or w < 2 or h < 2:
            yield frozenset(rng.sample(pool, rng.randint(1, min(10, len(pool)))))
            continue
        c0, c1 = sorted(rng.sample(range(w), 2))
        r0, r1 = sorted(rng.sample(range(h), 2))
        edges = ring(c0, r0, c1, r1)
        if kind < 0.7:
            c2, c3 = sorted(rng.sample(range(w), 2))
            r2, r3 = sorted(rng.sample(range(h), 2))
            edges ^= ring(c2, r2, c3, r3)
        elif kind < 0.85:
            edges ^= {rng.choice(pool)}
        yield frozenset(edges)


def test_validate_loop_matches_walk_oracle_on_random_edge_sets():
    rng = random.Random(7)
    d = GridDims(4, 4)
    pool = internal_edges(d)
    agree = 0
    for _ in range(300):
        edges = frozenset(rng.sample(pool, rng.randint(1, 10)))
        got = validate_loop(d, CellLoop(edges)) is None
        want = _walk_oracle(CellLoop(edges))
        assert got == want
        agree += 1
    assert agree == 300


@pytest.mark.parametrize("w,h", [(4, 4), (5, 3), (3, 5), (1, 4), (6, 2)])
def test_validate_loop_matches_walk_oracle_on_rings(w, h):
    rng = random.Random(7)
    d = GridDims(w, h)
    pool = internal_edges(d)
    verdicts = set()
    for edges in _random_edge_sets(rng, w, h, pool, 300):
        got = validate_loop(d, CellLoop(edges)) is None
        assert got == _walk_oracle(CellLoop(edges))
        verdicts.add(got)
    assert verdicts == ({True, False} if min(w, h) > 1 else {False})


@pytest.mark.parametrize("w,h", [(3, 3), (4, 2), (2, 4)])
def test_lattice_loop_matches_walk_oracle(w, h):
    # A clueless Slitherlink board accepts exactly the single loops on its
    # (w+1) x (h+1) dot lattice, which the cell oracle checks on a grid of
    # that size.
    rng = random.Random(13)
    puzzle = SlitherlinkPuzzle(GridDims(w, h), ())
    pool = lattice_edges(puzzle.dims)
    verdicts = set()
    for edges in _random_edge_sets(rng, w + 1, h + 1, pool, 300):
        got = verify_slitherlink(puzzle, LatticeLoop(edges)) is None
        assert got == _walk_oracle(CellLoop(edges))
        verdicts.add(got)
    assert verdicts == {True, False}


def _violation(dims, edges, must_visit=None):
    v = validate_loop(dims, CellLoop(frozenset(edges)), must_visit=must_visit)
    return v and (v.code, v.message, v.cell, v.edge)


def test_loop_ids_on_flat_ids():
    loop = loop_ids(3, 2, frozenset(ring(1, 0, 2, 1)))
    assert (loop.east, loop.south, loop.visited) == ({1, 4}, {1, 2}, {1, 2, 4, 5})


def test_validate_loop_violation_codes():
    d = GridDims(3, 3)
    left = ring(0, 0, 1, 1)
    assert _violation(d, set()) == ("empty", "loop has no transitions", None, None)
    # An "h" edge in the last column and a "v" edge on the last row would
    # join consecutive flat ids across the row end and past the last row.
    assert _violation(d, left | {("h", 2, 0)}) == ("bounds", "transition outside grid", None, ("h", 2, 0))
    assert _violation(d, left | {("v", 0, 2)}) == ("bounds", "transition outside grid", None, ("v", 0, 2))
    assert _violation(d, left | {("v", 0, 2), ("h", 2, 1), ("h", -1, 0)}) == (
        "bounds", "transition outside grid", None, ("h", -1, 0))
    # An open path: both ends have degree 1; the smallest is reported.
    assert _violation(d, left - {("v", 1, 0)}) == ("degree", "cell has degree 1, expected 2", (1, 0), None)
    # A chord across the 3x2 ring gives two cells of degree 3.
    assert _violation(d, ring(0, 0, 2, 1) | {("v", 1, 0)}) == (
        "degree", "cell has degree 3, expected 2", (1, 0), None)
    assert _violation(GridDims(5, 2), ring(3, 0, 4, 1) | ring(0, 0, 1, 1)) == (
        "components", "loop has more than one component", (0, 0), None)
    assert _violation(d, left, must_visit=[(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (2, 0)]) == (
        "unvisited", "required cell not visited", (2, 0), None)
    assert _violation(d, left, must_visit=[(0, 0), (1, 0)]) == (
        "forbidden", "cell visited but not allowed", (0, 1), None)
    assert _violation(d, left, must_visit=[(0, 0), (1, 0), (0, 1), (1, 1)]) is None
