import random

import pytest

from conftest import art_entries, fixture_puzzle, fixture_solution, internal_edges, ring
from loopforge.genres import GENRES
from loopforge.genres.masyu import MasyuPuzzle
from loopforge.genres.simple_loop import SimpleLoopPuzzle
from loopforge.genres.slitherlink import SlitherlinkPuzzle
from loopforge.genres.yajilin import YajilinPuzzle
from loopforge.grid import CellLoop, GridDims, edge_cells
from loopforge.search import LoopSearch

FIXTURE_NAMES = {
    "slitherlink": "slitherlink_example",
    "masyu": "masyu_example",
    "yajilin": "yajilin_example",
    "simple-loop": "simple_loop_example",
}


@pytest.mark.parametrize("genre", sorted(FIXTURE_NAMES))
def test_fixture_pairs_verify(genre):
    puzzle = fixture_puzzle(FIXTURE_NAMES[genre])
    sol = fixture_solution(FIXTURE_NAMES[genre])
    assert GENRES[genre].verify(puzzle, sol) is None


@pytest.mark.parametrize("genre", sorted(FIXTURE_NAMES))
def test_solver_finds_accepted_solution(genre):
    puzzle = fixture_puzzle(FIXTURE_NAMES[genre])
    result = GENRES[genre].solve(puzzle, budget_ms=60000)
    assert result.status == "sat"
    # A flat loop on the solver's node grid (the dots for Slitherlink).
    offset = GENRES[genre].FRAME_OFFSET
    assert result.solution.size == (puzzle.dims.width + offset, puzzle.dims.height + offset)
    assert GENRES[genre].verify(puzzle, result.solution) is None


@pytest.mark.parametrize("genre", sorted(FIXTURE_NAMES))
def test_single_edge_mutations_rejected(genre):
    puzzle = fixture_puzzle(FIXTURE_NAMES[genre])
    sol = fixture_solution(FIXTURE_NAMES[genre])
    rng = random.Random(4)
    if genre == "slitherlink":
        pool = internal_edges(GridDims(puzzle.dims.width + 1, puzzle.dims.height + 1))
    else:
        pool = internal_edges(puzzle.dims)
    kills = 0
    for _ in range(20):
        edge = rng.choice(pool)
        mutated = sol.transitions ^ {edge}
        if GENRES[genre].verify(puzzle, CellLoop(frozenset(mutated))) is not None:
            kills += 1
    assert kills == 20


def test_simple_loop_tiny_cases():
    square = GENRES["simple-loop"].solve(SimpleLoopPuzzle(GridDims(2, 2), frozenset()))
    assert square.status == "sat"
    assert square.solution.transitions == {("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}
    assert GENRES["simple-loop"].solve(SimpleLoopPuzzle(GridDims(1, 3), frozenset())).status == "unsat"


def test_yajilin_shading_derivation():
    puzzle = fixture_puzzle("yajilin_example")
    sol = fixture_solution("yajilin_example")
    visited = {cell for edge in sol.transitions for cell in edge_cells(edge)}
    shaded = set(puzzle.dims.cells()) - visited - set(art_entries(puzzle))
    assert shaded == {(0, 0), (0, 3), (2, 2), (3, 3), (5, 1)}
    assert GENRES["yajilin"].verify(puzzle, sol) is None


def test_yajilin_rejects_adjacent_shading():
    # Empty 2x2 yajilin: the square loop is fine, but a loop skipping two
    # adjacent cells is not constructible; craft the violation directly.
    puzzle = YajilinPuzzle(GridDims(3, 2), frozenset(), ())
    # Loop around the left 2x2 square leaves (2,0),(2,1) adjacent shaded.
    loop = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))
    v = GENRES["yajilin"].verify(puzzle, loop)
    assert v is not None and v.code == "shading"


def test_yajilin_clue_violation_located():
    puzzle = fixture_puzzle("yajilin_example")
    bad = YajilinPuzzle(
        puzzle.dims, art_entries(puzzle), tuple((c, n + 1, d) for (c, n, d) in puzzle.clues[:1])
        + puzzle.clues[1:]
    )
    sol = fixture_solution("yajilin_example")
    v = GENRES["yajilin"].verify(bad, sol)
    assert v is not None and v.code == "clue"


def test_masyu_pearl_rules():
    # White pearl must be passed straight: loop turning on it is rejected.
    puzzle = MasyuPuzzle(GridDims(2, 2), (((0, 0), "white"),))
    square = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))
    v = GENRES["masyu"].verify(puzzle, square)
    assert v is not None and v.code == "pearl"
    # Black pearl needs a turn with straight runs beside it: 2x2 is too tight.
    puzzle = MasyuPuzzle(GridDims(2, 2), (((0, 0), "black"),))
    v = GENRES["masyu"].verify(puzzle, square)
    assert v is not None


def test_masyu_unvisited_pearl_rejected():
    puzzle = MasyuPuzzle(GridDims(3, 2), (((2, 0), "white"),))
    square = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))
    v = GENRES["masyu"].verify(puzzle, square)
    assert v is not None and v.code == "pearl"


def test_slitherlink_empty_loop_rejected():
    puzzle = SlitherlinkPuzzle(GridDims(2, 2), ())
    v = GENRES["slitherlink"].verify(puzzle, CellLoop(frozenset()))
    assert v is not None and v.code == "empty"


def test_slitherlink_clue_check():
    puzzle = fixture_puzzle("slitherlink_example")
    sol = fixture_solution("slitherlink_example")
    toggled = CellLoop(sol.transitions ^ {("h", 2, 3)})
    assert GENRES["slitherlink"].verify(puzzle, toggled) is not None


# (genre, board, seed): seeds off the solver's graph.  The solvers name an
# edge by its flat pair (a, b), a = r * width + c, so each of the first
# four would name another pair if its bounds went unchecked.
OFF_GRAPH_SEEDS = [
    # The pair (a, a + 1) of the last column's "h" edge would run into the next row.
    ("simple-loop", SimpleLoopPuzzle(GridDims(3, 2), ()), ("h", 2, 0)),
    # On a 1-wide board (r, r + 1) is the vertical pair between rows r and r + 1.
    ("masyu", MasyuPuzzle(GridDims(1, 3), ()), ("h", 0, 1)),
    ("simple-loop", SimpleLoopPuzzle(GridDims(1, 4), ()), ("h", 0, 2)),
    # Negative coordinates: ("v", -1, 1) would be (2, 5), an edge of the board's only loop.
    ("simple-loop", SimpleLoopPuzzle(GridDims(3, 2), ()), ("v", -1, 1)),
    ("simple-loop", SimpleLoopPuzzle(GridDims(3, 2), ()), ("h", 1, -1)),
    # An edge into a closed cell.
    ("yajilin", YajilinPuzzle(GridDims(3, 3), [(1, 1)]), ("v", 1, 0)),
    ("simple-loop", SimpleLoopPuzzle(GridDims(4, 2), [(3, 1)]), ("h", 2, 1)),
]


def test_seed_outside_the_graph_is_unsat(monkeypatch):
    # A shaded cell has no edges, so no loop holds a seed edge through it.
    board = SimpleLoopPuzzle(GridDims(3, 3), [(1, 1)])
    seeds = [("h", 0, 0), ("h", 0, 1)]
    assert GENRES["simple-loop"].solve(board, seeds_in=seeds).status == "unsat"
    assert list(GENRES["simple-loop"].solve(board, seeds_in=seeds, enumerate_all=True)) == []
    assert GENRES["simple-loop"].solve(board, seeds_in=seeds[:1]).status == "sat"
    ring = SimpleLoopPuzzle(GridDims(3, 2), ())
    assert GENRES["simple-loop"].solve(ring, seeds_in=[("v", 2, 0)]).status == "sat"
    for genre, puzzle, seed in OFF_GRAPH_SEEDS:
        assert GENRES[genre].solve(puzzle, seeds_in=[seed]).status == "unsat", seed
        assert list(GENRES[genre].solve(puzzle, seeds_in=[seed], enumerate_all=True)) == [], seed
    # None of them reaches the search, even where no loop exists anyway.
    asked = []
    monkeypatch.setattr(LoopSearch, "solutions", lambda self, seeds=(): iter(asked.append(seeds) or ()))
    for genre, puzzle, seed in OFF_GRAPH_SEEDS:
        GENRES[genre].solve(puzzle, seeds_in=[seed])
        list(GENRES[genre].solve(puzzle, seeds_in=[seed], enumerate_all=True))
    assert asked == []


def test_solvers_prove_unsat_with_exhaustion():
    # A clue pattern with no solutions: an isolated 3 beside a 0.
    puzzle = SlitherlinkPuzzle(GridDims(2, 1), tuple(sorted((((0, 0), 3), ((1, 0), 0)))))
    assert GENRES["slitherlink"].solve(puzzle).status == "unsat"
    masyu = MasyuPuzzle(GridDims(2, 2), (((0, 0), "black"),))
    assert GENRES["masyu"].solve(masyu).status == "unsat"


def test_solver_determinism():
    for genre, name in FIXTURE_NAMES.items():
        puzzle = fixture_puzzle(name)
        a = GENRES[genre].solve(puzzle, budget_ms=60000)
        b = GENRES[genre].solve(puzzle, budget_ms=60000)
        ea = a.solution.transitions
        eb = b.solution.transitions
        assert ea == eb


def test_solver_verdicts_match_brute_force_on_tiny_boards():
    # Exhaustive ground truth: enumerate every edge subset of tiny boards
    # and compare the verifier-backed truth with the solver verdict.
    import itertools

    from loopforge.genres.slitherlink import SlitherlinkPuzzle

    rng = random.Random(31)

    def brute_force_cell(genre, puzzle):
        pool = internal_edges(puzzle.dims)
        for k in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, k):
                if GENRES[genre].verify(puzzle, CellLoop(frozenset(combo))) is None:
                    return True
        return False

    def brute_force_lattice(puzzle):
        pool = internal_edges(GridDims(puzzle.dims.width + 1, puzzle.dims.height + 1))
        for k in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, k):
                if GENRES["slitherlink"].verify(puzzle, CellLoop(frozenset(combo))) is None:
                    return True
        return False

    for _ in range(12):
        dims = GridDims(rng.choice([2, 3]), 2)
        cells = list(dims.cells())
        shaded = frozenset(c for c in cells if rng.random() < 0.25)
        p = SimpleLoopPuzzle(dims, shaded)
        assert (GENRES["simple-loop"].solve(p).status == "sat") == brute_force_cell("simple-loop", p)

        grey = frozenset(c for c in cells if rng.random() < 0.2)
        p = YajilinPuzzle(dims, grey, ())
        assert (GENRES["yajilin"].solve(p).status == "sat") == brute_force_cell("yajilin", p)

        pearls = tuple(
            (c, rng.choice(["white", "black"])) for c in cells if rng.random() < 0.3
        )
        p = MasyuPuzzle(dims, pearls)
        assert (GENRES["masyu"].solve(p).status == "sat") == brute_force_cell("masyu", p)

    for _ in range(6):
        dims = GridDims(2, 2)
        clues = tuple(
            (c, rng.randint(0, 3)) for c in dims.cells() if rng.random() < 0.5
        )
        p = SlitherlinkPuzzle(dims, tuple(sorted(clues)))
        assert (GENRES["slitherlink"].solve(p).status == "sat") == brute_force_lattice(p)


def _verdict(genre, puzzle, sol):
    v = GENRES[genre].verify(puzzle, sol)
    return v and (v.code, v.message, v.cell)


@pytest.mark.parametrize(
    "pearl,dims,corners,want",
    [
        # Every pearl sits on the board edge, where its outer neighbour is off the grid.
        (((3, 0), "white"), (4, 2), (0, 0, 2, 1), ("pearl", "pearl not on the loop", (3, 0))),
        (((0, 0), "white"), (2, 2), (0, 0, 1, 1), ("pearl", "loop must run straight through a white pearl", (0, 0))),
        (((2, 0), "white"), (5, 2), (0, 0, 4, 1), ("pearl", "neither side of a white pearl turns", (2, 0))),
        (((1, 0), "white"), (4, 2), (0, 0, 3, 1), None),
        (((0, 1), "black"), (2, 3), (0, 0, 1, 2), ("pearl", "loop must turn on a black pearl", (0, 1))),
        (((0, 0), "black"), (2, 2), (0, 0, 1, 1), ("pearl", "loop must run straight beside a black pearl", (0, 0))),
        (((2, 2), "black"), (3, 3), (0, 0, 2, 2), None),
    ],
)
def test_masyu_pearl_rule_on_board_edge(pearl, dims, corners, want):
    puzzle = MasyuPuzzle(GridDims(*dims), (pearl,))
    assert _verdict("masyu", puzzle, CellLoop(ring(*corners))) == want


def test_slitherlink_clue_and_lattice_wording():
    puzzle = SlitherlinkPuzzle(GridDims(2, 2), (((0, 0), 3), ((1, 1), 0)))
    square = CellLoop(ring(0, 0, 1, 1))
    assert _verdict("slitherlink", puzzle, square) == ("clue", "cell has 4 edges, expected 3", (0, 0))
    puzzle = SlitherlinkPuzzle(GridDims(2, 2), (((0, 0), 0),))
    assert _verdict("slitherlink", puzzle, CellLoop(ring(1, 1, 2, 2))) is None
    puzzle = SlitherlinkPuzzle(GridDims(2, 2), (((1, 0), 0),))
    assert _verdict("slitherlink", puzzle, CellLoop(ring(1, 1, 2, 2))) == (
        "clue", "cell has 1 edges, expected 0", (1, 0))
    # The lattice of a 2x2 board has 3x3 dots: "h" at dot column 2 and
    # "v" at dot row 2 leave it.
    v = GENRES["slitherlink"].verify(puzzle, CellLoop(ring(0, 0, 1, 1) | {("h", 2, 0)}))
    assert (v.code, v.message, v.edge) == ("bounds", "edge outside the lattice", ("h", 2, 0))
    v = GENRES["slitherlink"].verify(puzzle, CellLoop(ring(0, 0, 1, 1) | {("v", 0, 2)}))
    assert (v.code, v.message, v.edge) == ("bounds", "edge outside the lattice", ("v", 0, 2))
    open_path = CellLoop(ring(0, 0, 2, 2) - {("h", 1, 2)})
    assert _verdict("slitherlink", puzzle, open_path) == ("degree", "dot has degree 1", (1, 2))


def test_yajilin_grey_shading_and_clue():
    dims = GridDims(4, 3)
    # Loop (1,0)-(2,0)-(2,1)-(3,1)-(3,2)-(2,2)-(1,2)-(1,1); (0,0) and (0,2)
    # are grey, leaving (3,0) and (0,1) shaded.  Their flat ids 3 and 4 are
    # consecutive, but the cells do not touch.
    loop = CellLoop(frozenset({
        ("h", 1, 0), ("v", 2, 0), ("h", 2, 1), ("v", 3, 1), ("h", 2, 2), ("h", 1, 2), ("v", 1, 1), ("v", 1, 0),
    }))
    grey = frozenset({(0, 0), (0, 2)})
    clues = (((0, 0), 1, "E"), ((0, 0), 1, "S"), ((0, 2), 1, "N"), ((0, 2), 0, "E"))
    for clue in clues:
        assert _verdict("yajilin", YajilinPuzzle(dims, grey, (clue,)), loop) is None
    assert _verdict("yajilin", YajilinPuzzle(dims, grey, (((0, 0), 2, "E"),)), loop) == (
        "clue", "arrow count is 1, expected 2", (0, 0))
    assert _verdict("yajilin", YajilinPuzzle(dims, grey | {(3, 2), (1, 1)}, ()), loop) == (
        "grey", "loop passes through a grey cell", (1, 1))
    # Without the grey cells, (0, 0), (0, 1) and (0, 2) are shaded in a column.
    assert _verdict("yajilin", YajilinPuzzle(dims, frozenset(), ()), loop) == (
        "shading", "two shaded cells are adjacent", (0, 0))


@pytest.mark.parametrize("genre", sorted(FIXTURE_NAMES))
def test_empty_solution_rejected(genre):
    puzzle = fixture_puzzle(FIXTURE_NAMES[genre])
    sol = CellLoop(frozenset())
    message = "a loop must be drawn" if genre == "slitherlink" else "loop has no transitions"
    assert _verdict(genre, puzzle, sol) == ("empty", message, None)


def test_enumeration_raises_search_timeout():
    from loopforge.errors import SearchTimeout

    # A barless 10x10 board has far too many loops to enumerate at once,
    # and a zero budget is spent before the first decision.
    puzzle = SimpleLoopPuzzle(GridDims(10, 10), frozenset())
    solutions = GENRES["simple-loop"].solve(puzzle, budget_ms=0.0, enumerate_all=True)
    with pytest.raises(SearchTimeout):
        list(solutions)
    # The first-solution path reports the same budget as a status.
    assert GENRES["simple-loop"].solve(puzzle, budget_ms=0.0).status == "timeout"
