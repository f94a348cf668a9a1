import itertools
from collections import Counter
from dataclasses import replace
from math import prod

import pytest

from conftest import fixture_puzzle, fixture_solution, internal_edges, lifted_opening_pairs, pair_edges
from loopforge.bsl import BslPuzzle, check_cubic, solve_bsl_dp, verify_bsl
from loopforge.errors import FormatError, ReductionError
from loopforge.genres.base import build_cell_graph, grid_faces
from loopforge.grid import SIDES, CellLoop, GridDims, checkerboard_color, edge_cells, edge_sort_key
from loopforge.metacell import (
    _DATA_PATH,
    _covering_tours,
    lift_to_cubic,
    load_metacell,
    project_from_cubic,
    reduce_to_cubic,
)
from loopforge.search import EXACT2, LoopSearch

SQUARE_2X2 = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))


@pytest.fixture(scope="module")
def template():
    return load_metacell()


def test_template_invariants(template):
    assert template.dims.cell_count == 35
    blacks = [c for c in template.dims.cells() if checkerboard_color(c) == "black"]
    assert len(blacks) == 18
    for side, cell in template.exits.items():
        assert checkerboard_color(cell) == "black"
    assert check_cubic(BslPuzzle(template.dims, template.bars)) == []


def test_bank_covers_all_six_pairs(template):
    # Every lift is verified against the image, so each fragment the six
    # barless 4x4 cycles use is a covering tour between its openings.
    assert len(template.bank) == 6
    assert lifted_opening_pairs(template) == set(template.bank)


# Covering tours of the block per opening pair, in the template's own frame.
TOUR_COUNTS = {"N-E": 2, "N-S": 2, "N-W": 2, "E-S": 2, "E-W": 8, "S-W": 2}


def test_tour_counts_per_pair(template):
    # The cubic stage is not parsimonious: a source solution has a
    # product of these counts as images.
    counts = {
        f"{a}-{b}": sum(1 for _ in _covering_tours(template, a, b)) for a, b in itertools.combinations(SIDES, 2)
    }
    assert counts == TOUR_COUNTS


def _cycles(puzzle) -> list:
    """Every Hamiltonian cycle of a BSL board, enumerated by ``LoopSearch``
    over the board's flat pairs, as edge-built loops."""
    dims, n = puzzle.dims, puzzle.dims.cell_count
    pairs = build_cell_graph(dims, sides=puzzle.sides)
    edges = pair_edges(dims.width, pairs)
    search = LoopSearch(n, pairs, [EXACT2] * n, connectivity_every=4, faces=grid_faces(dims, pairs))
    return [CellLoop(frozenset(edges[i] for i in ids)) for ids in search.solutions()]


def test_cubic_stage_by_exhaustion():
    """The cubic stage's claim, checked outright on every bar set of 2x2,
    3x2 and 2x3 (272 sources): every image cycle projects to a source
    solution, every source solution is reached, and each is reached by as
    many image cycles as the product of its blocks' tour counts."""
    sources = image_cycles = 0
    for dims in (GridDims(2, 2), GridDims(3, 2), GridDims(2, 3)):
        pool = internal_edges(dims)
        for bars in itertools.chain.from_iterable(itertools.combinations(pool, k) for k in range(len(pool) + 1)):
            source = BslPuzzle(dims, frozenset(bars))
            image, manifest = reduce_to_cubic(source)
            cycles = _cycles(image)
            projected = Counter(project_from_cubic(manifest, cycle) for cycle in cycles)
            own = _cycles(source)
            assert set(projected) == set(own), bars
            assert bool(own) == solve_bsl_dp(source), bars
            for loop in own:
                # The opening pair each block uses, in the template's frame.
                local = (
                    "-".join(sorted((t.inverse().apply_side(side) for side in loop.sides(cell)), key=SIDES.index))
                    for cell, t in manifest.transforms.items()
                )
                assert projected[loop] == prod(TOUR_COUNTS[pair] for pair in local), (bars, loop)
            sources += 1
            image_cycles += len(cycles)
    assert (sources, image_cycles) == (272, 2192)


def test_bank_mutation_detected(template):
    for pair, frag in template.bank.items():
        dropped = frozenset(sorted(frag, key=edge_sort_key)[1:])
        with pytest.raises(ReductionError, match="lifted solution invalid"):
            lifted_opening_pairs(replace(template, bank={**template.bank, pair: dropped}))


def test_bank_missing_pair(template):
    for pair in template.bank:
        partial = {k: v for k, v in template.bank.items() if k != pair}
        with pytest.raises(ReductionError, match="no bank fragment"):
            lifted_opening_pairs(replace(template, bank=partial))


def test_reduce_size_law():
    image, _ = reduce_to_cubic(BslPuzzle(GridDims(2, 2), frozenset()))
    assert (image.dims.width, image.dims.height) == (10, 14)
    image, _ = reduce_to_cubic(BslPuzzle(GridDims(1, 1), frozenset()))
    assert (image.dims.width, image.dims.height) == (5, 7)
    assert solve_bsl_dp(image.inner) is False


def test_reduce_fixture_solvable_via_lift():
    source = fixture_puzzle("bsl_example")
    image, manifest = reduce_to_cubic(source)
    assert (image.dims.width, image.dims.height) == (20, 28)
    lifted = lift_to_cubic(manifest, fixture_solution("bsl_example"))
    assert verify_bsl(image.inner, lifted) is None


def test_lift_and_project_round_trip():
    source = BslPuzzle(GridDims(2, 2), frozenset())
    image, manifest = reduce_to_cubic(source)
    lifted = lift_to_cubic(manifest, SQUARE_2X2)
    assert verify_bsl(image.inner, lifted) is None
    assert len({cell for edge in lifted.transitions for cell in edge_cells(edge)}) == 140
    back = project_from_cubic(manifest, lifted)
    assert back.transitions == SQUARE_2X2.transitions


def test_default_template_loaded_and_banked_once(monkeypatch):
    from loopforge import metacell

    calls = {"load_metacell": 0, "build_metacell_bank": 0}

    def counting(name):
        original = getattr(metacell, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(metacell, name, wrapper)

    counting("load_metacell")
    counting("build_metacell_bank")
    metacell.default_metacell.cache_clear()
    source = fixture_puzzle("bsl_example")
    first = reduce_to_cubic(source)[1]
    second = reduce_to_cubic(source)[1]
    for manifest in (first, second):
        lift_to_cubic(manifest, fixture_solution("bsl_example"))
    assert first.template is second.template
    assert calls == {"load_metacell": 1, "build_metacell_bank": 1}
    # An explicit template is used as given, with its own bank.
    template = metacell.load_metacell()
    manifest = reduce_to_cubic(source, template=template)[1]
    lift_to_cubic(manifest, fixture_solution("bsl_example"))
    assert manifest.template is template
    assert calls == {"load_metacell": 2, "build_metacell_bank": 2}


def test_lift_rejects_invalid_source_solution():
    source = BslPuzzle(GridDims(2, 2), frozenset({("h", 0, 0)}))
    _, manifest = reduce_to_cubic(source)
    with pytest.raises(ReductionError):
        lift_to_cubic(manifest, SQUARE_2X2)


def test_project_rejects_tampered_solution():
    source = BslPuzzle(GridDims(2, 2), frozenset())
    _, manifest = reduce_to_cubic(source)
    lifted = lift_to_cubic(manifest, SQUARE_2X2)
    tampered = CellLoop(frozenset(list(lifted.transitions)[2:]))
    with pytest.raises(ReductionError):
        project_from_cubic(manifest, tampered)


def test_equivalence_all_2x2_bar_subsets():
    edges = internal_edges(GridDims(2, 2))
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            source = BslPuzzle(GridDims(2, 2), frozenset(combo))
            image, _ = reduce_to_cubic(source)
            assert solve_bsl_dp(source) is solve_bsl_dp(image.inner)


def test_checkerboard_exactly_once():
    # In a lifted image solution every block's open boundary is crossed
    # exactly twice (one entry, one exit).
    source = fixture_puzzle("bsl_example")
    image, manifest = reduce_to_cubic(source)
    lifted = lift_to_cubic(manifest, fixture_solution("bsl_example"))
    for cell in source.dims.cells():
        c, r = cell
        crossings = 0
        for rr in range(7 * r, 7 * r + 7):
            for edge in (("h", 5 * c - 1, rr), ("h", 5 * c + 4, rr)):
                if edge in lifted:
                    crossings += 1
        for cc in range(5 * c, 5 * c + 5):
            for edge in (("v", cc, 7 * r - 1), ("v", cc, 7 * r + 6)):
                if edge in lifted:
                    crossings += 1
        assert crossings == 2


def _broken_template(tmp_path, old, new):
    """The packaged template with its first ``old`` replaced by ``new``."""
    good = _DATA_PATH.read_text()
    assert old in good
    bad = tmp_path / "metacell.txt"
    bad.write_text(good.replace(old, new, 1))
    return bad


def test_loader_rejects_malformed_template(tmp_path):
    # Unbar one interior edge: a cell gains a fourth accessible neighbour.
    bad = _broken_template(tmp_path, "\n[bars]\n.........\n..|.|.|..\n", "\n[bars]\n.........\n....|.|..\n")
    with pytest.raises(FormatError, match="metacell template rejected: a cell has four accessible neighbours"):
        load_metacell(bad)


def test_loader_rejects_template_without_a_tour(tmp_path):
    # Bar the west side of cell (1, 0): its only open side left is east,
    # so no tour visits it, yet every cubicity and opening check passes.
    bad = _broken_template(tmp_path, "\n[bars]\n.........\n", "\n[bars]\n.-.......\n")
    with pytest.raises(FormatError, match="no covering tour"):
        load_metacell(bad)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("W 4\n", "W 4, N 2\n", "exit side N is given twice"),
        ("E 2", "E 7", "exit E 7 lies outside the 5x7 frame"),
        ("exits:", "genre: masyu\nexits:", "unknown descriptor header 'genre'"),
        ("\n[bars]\n", "\n[forced]\n", r"unknown descriptor section \[forced\]"),
        ("\n[bars]\n", "\n[bars]\n[bars]\n", r"section \[bars\] is given twice"),
    ],
    ids=["side-twice", "exit-off-frame", "unknown-header", "unknown-section", "section-twice"],
)
def test_loader_rejects_bad_header_or_section(tmp_path, old, new, message):
    with pytest.raises(FormatError, match=message):
        load_metacell(_broken_template(tmp_path, old, new))


def test_loader_rejects_missing_exit(tmp_path):
    bad = _broken_template(tmp_path, "exits: N 0, E 2,", "exits: E 2,")
    with pytest.raises(FormatError, match=r"template must have one exit per side, found \['E', 'S', 'W'\]"):
        load_metacell(bad)


def test_loader_rejects_missing_bars_section(tmp_path):
    bad = tmp_path / "metacell.txt"
    bad.write_text(_DATA_PATH.read_text().split("\n[bars]\n")[0])
    with pytest.raises(FormatError, match="missing 'bars'"):
        load_metacell(bad)


def test_loader_rejects_wrong_shape(tmp_path):
    lines = _DATA_PATH.read_text().splitlines()
    bad = tmp_path / "metacell.txt"
    bad.write_text("\n".join(lines[:-2]))
    with pytest.raises(FormatError, match="expected 13 fragment rows, found 11"):
        load_metacell(bad)
