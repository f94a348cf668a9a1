import itertools

import pytest

from conftest import fixture_puzzle, fixture_solution
from loopforge.bsl import BslPuzzle, check_cubic, solve_bsl_dp, verify_bsl
from loopforge.errors import ReductionError
from loopforge.grid import CellLoop, CellPathFragmentSet, GridDims, checkerboard_color, internal_edges
from loopforge.metacell import (
    build_metacell_bank,
    lift_to_cubic,
    load_metacell,
    project_from_cubic,
    reduce_to_cubic,
    validate_metacell_bank,
)

SQUARE_2X2 = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))


@pytest.fixture(scope="module")
def template():
    return load_metacell()


@pytest.fixture(scope="module")
def bank(template):
    return build_metacell_bank(template)


def test_template_invariants(template):
    assert template.dims.cell_count == 35
    blacks = [c for c in template.dims.cells() if checkerboard_color(c) == "black"]
    assert len(blacks) == 18
    for side, cell in template.exits:
        assert checkerboard_color(cell) == "black"
    assert check_cubic(BslPuzzle(template.dims, template.bars)) == []


def test_bank_covers_all_six_pairs(template, bank):
    assert validate_metacell_bank(template, bank) is None
    assert len(bank) == 6


def test_bank_mutation_detected(template, bank):
    pair = frozenset(("N", "S"))
    frag = bank[pair]
    dropped = CellPathFragmentSet(frozenset(list(frag.transitions)[1:]), frag.stubs)
    broken = {**bank, pair: dropped}
    v = validate_metacell_bank(template, broken)
    assert v is not None and v.code in ("degree", "coverage", "path")


def test_bank_missing_pair(template, bank):
    partial = {k: v for k, v in bank.items() if k != frozenset(("N", "S"))}
    v = validate_metacell_bank(template, partial)
    assert v is not None and v.code == "missing-pair"


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
    assert len(lifted.visited_cells()) == 140
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
                if edge in lifted.transitions:
                    crossings += 1
        for cc in range(5 * c, 5 * c + 5):
            for edge in (("v", cc, 7 * r - 1), ("v", cc, 7 * r + 6)):
                if edge in lifted.transitions:
                    crossings += 1
        assert crossings == 2


def test_loader_rejects_malformed_template(tmp_path):
    from loopforge.metacell import _DATA_PATH

    good = _DATA_PATH.read_text()
    # Unbar one interior edge: a cell gains a fourth accessible neighbour.
    lines = [l for l in good.splitlines() if not l.startswith(";")]
    assert lines[2] == "+.+#+#+#+.+"
    broken = good.replace("+.+#+#+#+.+", "+.+.+#+#+.+", 1)
    bad = tmp_path / "metacell.txt"
    bad.write_text(broken)
    with pytest.raises(Exception) as exc:
        load_metacell(bad)
    assert "rejected" in str(exc.value)


def test_loader_rejects_missing_exit(tmp_path):
    from loopforge.metacell import _DATA_PATH

    broken = _DATA_PATH.read_text().replace("+N+#+#+#+#+", "+#+#+#+#+#+", 1)
    bad = tmp_path / "metacell.txt"
    bad.write_text(broken)
    with pytest.raises(Exception) as exc:
        load_metacell(bad)
    assert "exit" in str(exc.value)


def test_loader_rejects_wrong_shape(tmp_path):
    from loopforge.metacell import _DATA_PATH

    lines = [l for l in _DATA_PATH.read_text().splitlines() if l and not l.startswith(";")]
    bad = tmp_path / "metacell.txt"
    bad.write_text("\n".join(lines[:-2]))
    with pytest.raises(Exception):
        load_metacell(bad)
