import random

import pytest

from conftest import boundary_edges, cell_mask, flat_loop, internal_edges, ring
from loopforge.grid import (
    ALL_SIDES,
    BIT_SIDE,
    MASK_SIDES,
    OPPOSITE_BIT,
    OPPOSITE_SIDE,
    SIDE_BIT,
    SIDE_DELTAS,
    SIDES,
    CellLoop,
    GridDims,
    Violation,
    checkerboard_color,
    edge_between,
    edge_cells,
    edge_sort_key,
    loop_ids,
    side_edge,
    side_steps,
    validate_loop,
)
from loopforge.genres.slitherlink import SlitherlinkPuzzle
from loopforge.genres.slitherlink import verify as verify_slitherlink

SQUARE_2X2 = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))


def test_dims_validation():
    with pytest.raises(ValueError):
        GridDims(0, 3)
    with pytest.raises(ValueError):
        GridDims(3, -1)
    assert GridDims(1, 1).cell_count == 1


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


@pytest.mark.parametrize("width", [1, 2, 5, 13])
def test_every_side_agrees_across_the_side_table(width):
    """Letter, bit, opposite, delta, flat-id step and ``side_edge`` of each
    side describe the same side."""
    assert [SIDE_BIT[side] for side in SIDES] == [1, 2, 4, 8]
    assert sum(SIDE_BIT.values()) == ALL_SIDES == 15
    steps = side_steps(width)
    cell = (6, 4)
    for side in SIDES:
        bit = SIDE_BIT[side]
        assert BIT_SIDE[bit] == side
        assert OPPOSITE_BIT[bit] == SIDE_BIT[OPPOSITE_SIDE[side]]
        assert OPPOSITE_SIDE[OPPOSITE_SIDE[side]] == side
        dc, dr = SIDE_DELTAS[side]
        assert SIDE_DELTAS[OPPOSITE_SIDE[side]] == (-dc, -dr) and abs(dc) + abs(dr) == 1
        assert steps[bit] == dc + dr * width
        assert steps[OPPOSITE_BIT[bit]] == -steps[bit]
        nbr = (cell[0] + dc, cell[1] + dr)
        assert side_edge(cell, side) == edge_between(cell, nbr) == side_edge(nbr, OPPOSITE_SIDE[side])
    for mask in range(16):
        assert MASK_SIDES[mask] == {side for side in SIDES if mask & SIDE_BIT[side]}


def test_cell_loop_names_its_non_internal_edge():
    with pytest.raises(ValueError, match=r"\('x', 1, 0\) is not an internal edge"):
        CellLoop(frozenset({("h", 0, 0), ("x", 1, 0), ("v", 0, 0)}))


def test_cell_loop_names_its_least_non_internal_edge():
    # The set holds two bad edges; the least is named whatever the hash seed.
    with pytest.raises(ValueError, match=r"\('N', 0, 0\) is not an internal edge"):
        CellLoop(frozenset({("h", 0, 0), ("N", 0, 0), ("W", 0, 1), ("v", 0, 0)}))


@pytest.mark.parametrize("w,h", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 3), (6, 6)])
def test_internal_edges_are_built_in_canonical_order(w, h):
    edges = internal_edges(GridDims(w, h))
    assert edges == sorted(edges, key=edge_sort_key)
    assert len(edges) == len(set(edges)) == (w - 1) * h + w * (h - 1)


def test_validate_loop_accepts_square():
    assert validate_loop(GridDims(2, 2), SQUARE_2X2, must_visit=cell_mask(GridDims(2, 2), GridDims(2, 2).cells())) is None


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
    v = validate_loop(d, two, must_visit=cell_mask(d, d.cells()))
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
    pool = internal_edges(GridDims(puzzle.dims.width + 1, puzzle.dims.height + 1))
    verdicts = set()
    for edges in _random_edge_sets(rng, w + 1, h + 1, pool, 300):
        got = verify_slitherlink(puzzle, CellLoop(edges)) is None
        assert got == _walk_oracle(CellLoop(edges))
        verdicts.add(got)
    assert verdicts == {True, False}


def _violation(dims, edges, must_visit=None):
    mask = None if must_visit is None else cell_mask(dims, must_visit)
    v = validate_loop(dims, CellLoop(frozenset(edges)), must_visit=mask)
    return v and (v.code, v.message, v.cell, v.edge)


def test_loop_ids_on_flat_ids():
    # Ids 1, 2, 4, 5 of the 3x2 grid; east has one spare byte, south a spare row.
    loop = loop_ids(3, 2, frozenset(ring(1, 0, 2, 1)))
    assert loop.east == bytes([0, 1, 0, 0, 1, 0, 0])
    assert loop.south == bytes([0, 1, 1, 0, 0, 0, 0, 0, 0])
    assert loop.visited == bytes([0, 1, 1, 0, 1, 1])


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


def test_flat_loop_is_its_edge_set():
    edges = ring(1, 0, 2, 1)
    flat = flat_loop(3, 2, edges)
    assert flat.size == (3, 2) and flat.east == bytes([0, 1, 0, 0, 1, 0, 0])
    assert flat.transitions == edges and flat.scan() == sorted(edges, key=edge_sort_key)
    assert flat == CellLoop(edges) and hash(flat) == hash(CellLoop(edges))
    # The same edges held for a wider grid are the same loop.
    assert flat == flat_loop(4, 3, edges) and flat != flat_loop(3, 2, ring(0, 0, 1, 1))
    assert ("h", 1, 0) in flat and ("h", 0, 0) not in flat and ("v", 5, 0) not in flat
    assert flat.sides((1, 0)) == ["E", "S"] and flat.sides((2, 1)) == ["N", "W"]
    assert ("h", 1, 1) in flat and ("h", 0, 1) not in flat
    with pytest.raises(ValueError, match="must hold 7 and 9 bytes"):
        CellLoop.flat(3, 2, bytearray(6), bytearray(9))
    flat.south[4] = 2
    with pytest.raises(ValueError, match="only 0 and 1 bytes"):
        validate_loop(GridDims(3, 2), flat)


def test_flat_loop_off_the_grid_gives_the_bounds_violation():
    dims = GridDims(4, 3)
    left = ring(0, 0, 1, 1)
    outside = Violation("bounds", "transition outside grid", edge=None)
    # The last column of east, the last row of south, the spare east byte
    # and the spare south row hold no edge of the grid.
    for off in ({("h", 3, 1)}, {("v", 2, 2)}, {("h", 0, 3)}, {("v", 3, 3)}, {("v", 1, 3), ("h", 3, 0), ("v", 0, 2)}):
        edges = left | off
        flat = flat_loop(4, 3, edges)
        assert flat.transitions == edges
        want = Violation(outside.code, outside.message, edge=min(off, key=edge_sort_key))
        assert validate_loop(dims, flat) == want == validate_loop(dims, CellLoop(edges))
        assert flat.ids(4, 3) == loop_ids(4, 3, edges)
        # Off the grid as well with no other edge: bounds, not empty.
        assert validate_loop(dims, flat_loop(4, 3, off)) == want
    assert validate_loop(dims, flat_loop(4, 3, set())) == Violation("empty", "loop has no transitions")
    assert validate_loop(dims, flat_loop(4, 3, left)) is None
