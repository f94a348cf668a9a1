import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fixture_puzzle, fixture_solution, flat_loop, internal_edges, neighbors, pair_edges, ring
from loopforge.bsl import (
    BslPuzzle,
    CubicBslPuzzle,
    check_cubic,
    degenerate_cells,
    solve_bsl_backtrack,
    solve_bsl_dp,
    verify_bsl,
)
from loopforge.errors import CapabilityError
from loopforge.genres.base import build_cell_graph
from loopforge.grid import MASK_SIDES, SIDE_DELTAS, CellLoop, GridDims, edge_sort_key
from loopforge.search import EXACT2, LoopSearch


def barless(w, h):
    return BslPuzzle(GridDims(w, h), frozenset())


def test_verify_fixture_pair():
    puzzle = fixture_puzzle("bsl_example")
    sol = fixture_solution("bsl_example")
    assert verify_bsl(puzzle, sol) is None


def test_verify_square_and_bar_crossing():
    p = barless(2, 2)
    square = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))
    assert verify_bsl(p, square) is None
    barred = BslPuzzle(GridDims(2, 2), frozenset({("h", 0, 0)}))
    v = verify_bsl(barred, square)
    assert v is not None and v.code == "bar"


def test_bar_crossings_built_flat_and_from_edges():
    """A flat loop's bars are read from the side masks in bulk; the
    verdict, down to the least crossed bar, is the edge-built loop's."""
    rng = random.Random(18)
    crossed = 0
    for _ in range(300):
        w, h = rng.randint(2, 7), rng.randint(2, 7)
        dims = GridDims(w, h)
        puzzle = BslPuzzle(dims, frozenset(e for e in internal_edges(dims) if rng.random() < 0.2))
        c0, r0 = rng.randrange(w - 1), rng.randrange(h - 1)
        edges = set(ring(c0, r0, rng.randint(c0 + 1, w - 1), rng.randint(r0 + 1, h - 1)))
        if rng.random() < 0.3:
            edges ^= {rng.choice(internal_edges(dims))}
        if rng.random() < 0.2:
            edges.add(rng.choice([("h", w - 1, rng.randrange(h)), ("v", rng.randrange(w), h - 1)]))
        want = verify_bsl(puzzle, CellLoop(frozenset(edges)))
        assert verify_bsl(puzzle, flat_loop(w, h, frozenset(edges))) == want
        crossed += want is not None and want.code == "bar"
    assert crossed > 100


def test_sides_are_the_neighbours_across_no_bar():
    """``BslPuzzle.sides`` holds, for every cell, the sides that
    ``neighbors`` finds: on 1x1, on 1 x k and k x 1 strips, and on seeded
    barred boards."""
    rng = random.Random(26)
    letter = {delta: side for side, delta in SIDE_DELTAS.items()}
    shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)]
    for w, h in shapes:
        dims = GridDims(w, h)
        bars = frozenset(e for e in internal_edges(dims) if rng.random() < rng.choice((0.0, 0.2, 0.5, 1.0)))
        puzzle = BslPuzzle(dims, bars)
        assert len(puzzle.sides) == dims.cell_count
        for (c, r), mask in zip(dims.cells(), puzzle.sides):
            found = {letter[(nc - c, nr - r)] for (nc, nr), _ in neighbors(dims, (c, r), bars)}
            assert MASK_SIDES[mask] == found, (w, h, (c, r))


# Four bars off a 3x3 grid; a set of them iterates in an order that
# depends on the hash seed, and the least by edge_sort_key is ("h", 5, 0).
OFF_GRID_BARS = [["h", 5, 0], ["v", 0, 9], ["h", 7, 7], ["v", 4, 1]]
PARSE_OFF_GRID = """
import sys
from loopforge.cli import main
sys.exit(main(["solve", sys.argv[1]]))
"""


def test_off_grid_bar_parse_error_names_the_least_bar_under_any_hash_seed(tmp_path):
    doc = {"genre": "bsl", "width": 3, "height": 3, "bars": [dict(zip(("axis", "col", "row"), b)) for b in OFF_GRID_BARS]}
    path = tmp_path / "bars.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", PARSE_OFF_GRID, str(path)],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 64, proc.stderr
        want = "parse error: bad puzzle document: bar ('h', 5, 0) is not an internal edge of the grid\n"
        assert proc.stderr == want, seed


def test_check_cubic():
    assert check_cubic(fixture_puzzle("cubic_example").inner) == []
    assert check_cubic(barless(3, 3)) == [(1, 1)]
    assert check_cubic(barless(2, 5)) == []


def test_cubic_type_rejects_non_cubic():
    with pytest.raises(ValueError):
        CubicBslPuzzle(barless(3, 3))


def test_degenerate_cells():
    assert degenerate_cells(barless(1, 1)) == [(0, 0)]
    assert degenerate_cells(fixture_puzzle("bsl_example")) == []
    walled = BslPuzzle(GridDims(3, 3), frozenset({("h", 0, 1), ("h", 1, 1), ("v", 1, 0)}))
    assert (1, 1) in degenerate_cells(walled)


def test_backtrack_on_fixture():
    puzzle = fixture_puzzle("bsl_example")
    result = solve_bsl_backtrack(puzzle)
    assert result.status == "sat"
    # A flat loop on the board's own grid, which the verifier reads in place.
    assert result.solution.size == (puzzle.dims.width, puzzle.dims.height)
    assert verify_bsl(puzzle, result.solution) is None


def test_backtrack_unsat_cases():
    assert solve_bsl_backtrack(barless(3, 3)).status == "unsat"
    blocked = BslPuzzle(GridDims(2, 2), frozenset({("h", 0, 0)}))
    assert solve_bsl_backtrack(blocked).status == "unsat"


def _hamiltonian_cycles(puzzle):
    """Every Hamiltonian cycle of the board, as edge sets, by plain path extension."""
    start = next(puzzle.dims.cells())
    n = puzzle.dims.cell_count
    path, on_path, cycles = [], {start}, set()

    def extend(cell):
        for nbr, edge in neighbors(puzzle.dims, cell, puzzle.bars):
            if nbr == start and len(on_path) == n:
                cycles.add(frozenset(path + [edge]))
            elif nbr not in on_path:
                path.append(edge)
                on_path.add(nbr)
                extend(nbr)
                on_path.discard(nbr)
                path.pop()

    extend(start)
    return cycles


def _small_boards():
    """Barless 4x4, 3x4 and 2x6, then 200 seeded barred boards up to 4x4."""
    boards = [barless(4, 4), barless(3, 4), barless(2, 6)]
    for seed in range(200):
        rng = random.Random(seed)
        dims = GridDims(*rng.choice(((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (4, 4), (4, 4))))
        density = rng.choice((0.03, 0.06, 0.1, 0.2))
        bars = frozenset(e for e in internal_edges(dims) if rng.random() < density)
        boards.append(BslPuzzle(dims, bars))
    return boards


SMALL_BOARDS = _small_boards()


def test_small_corpus_has_sat_and_unsat_boards():
    counts = [len(_hamiltonian_cycles(p)) for p in SMALL_BOARDS]
    assert sum(c == 0 for c in counts) >= 50 and sum(c > 1 for c in counts) >= 25


def test_backtrack_returns_lexicographically_least():
    for puzzle in SMALL_BOARDS:
        cycles = _hamiltonian_cycles(puzzle)
        result = solve_bsl_backtrack(puzzle)
        if not cycles:
            assert result.status == "unsat", puzzle
            continue
        least = min(cycles, key=lambda c: sorted(map(edge_sort_key, c)))
        assert result.status == "sat" and result.solution.transitions == least, puzzle


def test_search_enumerates_every_cycle_once():
    for puzzle in SMALL_BOARDS:
        pairs = build_cell_graph(puzzle.dims, sides=puzzle.sides)
        edges = pair_edges(puzzle.dims.width, pairs)
        n = puzzle.dims.cell_count
        search = LoopSearch(n, pairs, [EXACT2] * n, connectivity_every=32)
        found = [frozenset(edges[i] for i in ids) for ids in search.solutions()]
        assert len(found) == len(set(found)), puzzle
        assert set(found) == _hamiltonian_cycles(puzzle), puzzle


def test_dp_examples():
    assert solve_bsl_dp(barless(2, 2)) is True
    assert solve_bsl_dp(barless(3, 3)) is False
    with pytest.raises(CapabilityError):
        solve_bsl_dp(barless(15, 20))
    # transposed dispatch: profile over the short side
    assert solve_bsl_dp(barless(20, 4)) is True


def test_dp_matches_backtracking_on_all_2x2_subsets():
    edges = internal_edges(GridDims(2, 2))
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            p = BslPuzzle(GridDims(2, 2), frozenset(combo))
            assert solve_bsl_dp(p) is (solve_bsl_backtrack(p).status == "sat")


def test_dp_matches_backtracking_on_random_small_instances():
    rng = random.Random(99)
    for _ in range(200):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        pool = internal_edges(GridDims(w, h))
        bars = frozenset(e for e in pool if rng.random() < 0.35)
        p = BslPuzzle(GridDims(w, h), bars)
        bt = solve_bsl_backtrack(p)
        assert solve_bsl_dp(p) is (bt.status == "sat")
        if bt.status == "sat":
            assert verify_bsl(p, bt.solution) is None


def test_parity_implies_unsat_small():
    rng = random.Random(5)
    for _ in range(40):
        w, h = rng.choice([1, 3]), rng.choice([1, 3])
        pool = internal_edges(GridDims(w, h))
        bars = frozenset(e for e in pool if rng.random() < 0.3)
        p = BslPuzzle(GridDims(w, h), bars)
        assert solve_bsl_dp(p) is False
        assert solve_bsl_backtrack(p).status == "unsat"


def test_degenerate_implies_unsat():
    rng = random.Random(17)
    found = 0
    while found < 20:
        w, h = rng.randint(2, 4), rng.randint(2, 4)
        pool = internal_edges(GridDims(w, h))
        bars = frozenset(e for e in pool if rng.random() < 0.45)
        p = BslPuzzle(GridDims(w, h), bars)
        if not degenerate_cells(p):
            continue
        found += 1
        assert solve_bsl_backtrack(p).status == "unsat"
