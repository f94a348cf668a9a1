import itertools

import pytest

from conftest import art_entries, fixture_puzzle, fixture_solution, internal_edges, neighbors
from loopforge.bsl import BslPuzzle, CubicBslPuzzle, solve_bsl_dp, verify_bsl
from loopforge.errors import ReductionError
from loopforge.genres import GENRES
from loopforge.grid import CellLoop, GridDims, edge_cells
from loopforge.metacell import lift_to_cubic, reduce_to_cubic
from loopforge.reduction import lift_to_genre, reduce_to_genre

SQUARE_2X2 = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))
ALL_GENRES = ("slitherlink", "masyu", "yajilin", "simple-loop")


def test_size_laws():
    cubic = fixture_puzzle("cubic_example")
    board, _ = reduce_to_genre(cubic, "simple-loop")
    assert (board.dims.width, board.dims.height) == (20, 20)
    board, _ = reduce_to_genre(cubic, "masyu")
    assert (board.dims.width, board.dims.height) == (36, 36)
    board, _ = reduce_to_genre(cubic, "slitherlink")
    assert (board.dims.width, board.dims.height) == (43, 43)  # pitch 11 minus shared seam


def test_degenerate_source_yields_canonical_unsolvable():
    degenerate = CubicBslPuzzle(BslPuzzle(GridDims(2, 1), frozenset()))
    for genre in ("simple-loop", "yajilin"):
        board, manifest = reduce_to_genre(degenerate, genre)
        assert manifest.degenerate
        assert GENRES[genre].solve(board, budget_ms=30000).status == "unsat"
        with pytest.raises(ReductionError):
            lift_to_genre(manifest, SQUARE_2X2)


@pytest.mark.parametrize("genre", ALL_GENRES)
def test_end_to_end_fixture_lift(genre):
    source = fixture_puzzle("bsl_example")
    cubic, cubic_manifest = reduce_to_cubic(source)
    cubic_sol = lift_to_cubic(cubic_manifest, fixture_solution("bsl_example"))
    board, manifest = reduce_to_genre(cubic, genre)
    lifted = lift_to_genre(manifest, cubic_sol)
    assert GENRES[genre].verify(board, lifted) is None


@pytest.mark.parametrize("genre", ALL_GENRES)
def test_lifted_loop_is_checked_afresh_on_every_verify(genre):
    # A lifted loop is flat, and a byte changed in place between two
    # verify calls shows in the second: nothing about it is kept.
    source = fixture_puzzle("bsl_example")
    cubic, cman = reduce_to_cubic(source)
    cubic_sol = lift_to_cubic(cman, fixture_solution("bsl_example"))
    board, manifest = reduce_to_genre(cubic, genre)
    lifted = lift_to_genre(manifest, cubic_sol)
    for loop, verify in ((cubic_sol, lambda sol: verify_bsl(cubic.inner, sol)),
                         (lifted, lambda sol: GENRES[genre].verify(board, sol))):
        assert loop.size is not None and verify(loop) is None
        count = len(loop.transitions)
        # Drop one edge: its west end, the lesser, is left with degree 1.
        i = loop.east.index(1)
        loop.east[i] = 0
        bad = verify(loop)
        assert (bad.code, bad.cell) == ("degree", (i % loop.size[0], i // loop.size[0]))
        assert len(loop.transitions) == count - 1
        loop.east[i] = 1
        assert verify(loop) is None


def test_lifted_yajilin_never_shades():
    source = BslPuzzle(GridDims(2, 2), frozenset())
    cubic, cman = reduce_to_cubic(source)
    cubic_sol = lift_to_cubic(cman, SQUARE_2X2)
    board, manifest = reduce_to_genre(cubic, "yajilin")
    lifted = lift_to_genre(manifest, cubic_sol)
    visited = {cell for edge in lifted.transitions for cell in edge_cells(edge)}
    assert set(board.dims.cells()) - visited - set(art_entries(board)) == set()


def test_small_scale_equivalence_direct():
    # Tiny grids are cubic as-is: tile them directly and compare oracles.
    cases = []
    for k in range(2):
        for combo in itertools.combinations(internal_edges(GridDims(2, 1)), k):
            cases.append(BslPuzzle(GridDims(2, 1), frozenset(combo)))
    e22 = internal_edges(GridDims(2, 2))
    samples = [frozenset()] + [frozenset({e}) for e in e22] + [frozenset({e22[0], e22[3]})]
    for bars in samples:
        cases.append(BslPuzzle(GridDims(2, 2), bars))
    for source in cases:
        cubic = CubicBslPuzzle(source)
        want = solve_bsl_dp(source)
        for genre in ("simple-loop", "yajilin"):
            board, _ = reduce_to_genre(cubic, genre)
            got = GENRES[genre].solve(board, budget_ms=60000)
            assert got.status in ("sat", "unsat")
            assert (got.status == "sat") is want


def test_two_exit_cells_get_free_edges_recorded():
    cubic = fixture_puzzle("cubic_example")
    _, manifest = reduce_to_genre(cubic, "simple-loop")
    for cell, placement in manifest.placements.items():
        accessible = len(neighbors(cubic.dims, cell, cubic.bars))
        if accessible == 2:
            assert placement.free_edge is not None
        else:
            assert placement.free_edge is None
        assert len(placement.exits) == 3


def test_manifest_transforms_stay_in_allowed_set():
    cubic = fixture_puzzle("cubic_example")
    for genre in ("yajilin", "simple-loop"):
        _, manifest = reduce_to_genre(cubic, genre)
        for placement in manifest.placements.values():
            assert not placement.transform.mirror  # rotation-only genres


def test_manifest_layout_is_built_once():
    """The layout is the placements' transforms, kept as one dict, not rebuilt per read."""
    for cubic in (fixture_puzzle("cubic_example"), CubicBslPuzzle(BslPuzzle(GridDims(1, 3), frozenset()))):
        _, manifest = reduce_to_genre(cubic, "masyu")
        assert manifest.layout is manifest.layout
        assert manifest.layout == {cell: p.transform for cell, p in manifest.placements.items()}


def test_random_sources_end_to_end():
    # Random solvable sources exercise more placement variety than the
    # fixtures: every reflection of the 5x7 block and all four tile
    # rotations appear across these pipelines.
    import random

    from loopforge.bsl import solve_bsl_backtrack

    rng = random.Random(77)
    sources = []
    while len(sources) < 4:
        w, h = rng.choice([(3, 4), (4, 3), (4, 4), (2, 3)])
        pool = internal_edges(GridDims(w, h))
        bars = frozenset(e for e in pool if rng.random() < 0.2)
        p = BslPuzzle(GridDims(w, h), bars)
        if solve_bsl_dp(p):
            sources.append(p)
    for source in sources:
        sol = solve_bsl_backtrack(source).solution
        cubic, cman = reduce_to_cubic(source)
        cubic_sol = lift_to_cubic(cman, sol)
        for genre in ALL_GENRES:
            board, manifest = reduce_to_genre(cubic, genre)
            lifted = lift_to_genre(manifest, cubic_sol)
            assert GENRES[genre].verify(board, lifted) is None


def test_packaged_gadget_loaded_once(monkeypatch, tmp_path):
    from loopforge import catalog
    from loopforge.errors import FormatError

    calls = []
    original = catalog.load_gadget

    def counting(genre, directory=None):
        calls.append(genre)
        return original(genre, directory)

    monkeypatch.setattr(catalog, "load_gadget", counting)
    catalog._load_gadget_once.cache_clear()
    cubic = fixture_puzzle("cubic_example")
    first = reduce_to_genre(cubic, "masyu")[1]
    second = reduce_to_genre(cubic, "masyu")[1]
    assert first.descriptor is second.descriptor
    assert calls == ["masyu"]
    # Another LOOPFORGE_CATALOG is another directory: loaded once more.
    (tmp_path / "masyu.txt").write_bytes((catalog.DEFAULT_CATALOG / "masyu.txt").read_bytes())
    monkeypatch.setenv("LOOPFORGE_CATALOG", str(tmp_path))
    third = reduce_to_genre(cubic, "masyu")[1]
    assert reduce_to_genre(cubic, "masyu")[1].descriptor is third.descriptor
    assert third.descriptor is not first.descriptor
    assert calls == ["masyu"] * 2
    # An explicit load reads the file afresh.
    assert catalog.load_gadget("masyu", tmp_path) is not third.descriptor
    assert calls == ["masyu"] * 3
    # A missing descriptor is an error every time, never a cached result.
    monkeypatch.setenv("LOOPFORGE_CATALOG", str(tmp_path / "empty"))
    for _ in range(2):
        with pytest.raises(FormatError):
            reduce_to_genre(cubic, "masyu")
    assert calls == ["masyu"] * 5
