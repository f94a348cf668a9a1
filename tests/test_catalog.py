import copy
import shutil
import time

import pytest

from loopforge.catalog import (
    DEFAULT_CATALOG,
    RING_2X2,
    catalog_listing,
    certify_gadget,
    load_gadget,
    validate_descriptor,
)
from loopforge.cli import main
from loopforge.errors import FormatError, SearchTimeout
from loopforge.genres import GENRES
from loopforge.tiling import crossings, placed_exits


@pytest.fixture(scope="module")
def descriptors():
    return {g: load_gadget(g) for g in ("slitherlink", "masyu", "yajilin", "simple-loop")}


def test_loaded_shapes(descriptors):
    assert (descriptors["yajilin"].tile.width, descriptors["yajilin"].tile.height) == (5, 5)
    assert descriptors["simple-loop"].art == descriptors["yajilin"].art
    assert (descriptors["slitherlink"].tile.width, descriptors["slitherlink"].tile.height) == (10, 10)
    assert (descriptors["masyu"].tile.width, descriptors["masyu"].tile.height) == (9, 9)
    # border clue walls: chains of 3s and the two 1s on the top row
    slk = descriptors["slitherlink"]
    assert slk.art[(4, 0)] == "1" and slk.art[(5, 0)] == "1"
    assert sum(1 for v in slk.art.values() if v == "3") == 24


def test_transform_sets(descriptors):
    assert descriptors["slitherlink"].transforms == {"rotate", "reflect"}
    assert descriptors["masyu"].transforms == {"rotate", "reflect"}
    assert descriptors["yajilin"].transforms == {"rotate"}
    assert descriptors["simple-loop"].transforms == {"rotate"}


def test_static_invariants(descriptors):
    for desc in descriptors.values():
        assert validate_descriptor(desc) is None
        assert len(desc.exits) == 3
        assert set(desc.bank) == {
            frozenset(p)
            for p in (("W", "E"), ("W", "S"), ("S", "E"))
        }
        for frag in desc.bank.values():
            assert desc.forced <= frag


def test_unknown_genre_rejected():
    with pytest.raises(FormatError):
        load_gadget("tapa")


def _copied_catalog(tmp_path, name, old, new):
    """The packaged catalog copied to ``tmp_path`` with one text replaced in ``name``."""
    directory = tmp_path / "gadgets"
    shutil.copytree(DEFAULT_CATALOG, directory)
    text = (directory / name).read_text(encoding="utf-8")
    assert old in text
    (directory / name).write_text(text.replace(old, new, 1), encoding="utf-8")
    return directory


@pytest.mark.parametrize(
    "genre,name,old,new,match",
    [
        ("simple-loop", "simple_loop.txt", "exits: W 2, E 2, S 2", "exits: W 2, E 2, S 2, S 3", "exit side S is given twice"),
        ("yajilin", "yajilin.txt", "exits: W 2, E 2, S 2", "exits: W 2, W 2, E 2", "exit side W is given twice"),
        ("simple-loop", "simple_loop.txt", "exits: W 2, E 2, S 2", "exits: W 9, E 2, S 2", "exit W 9 lies outside"),
        ("masyu", "masyu.txt", "exits: W 4, E 4, S 4", "exits: W 4, E 4, S -1", "exit S -1 lies outside"),
        # A Slitherlink frame is measured in dots: 11 on a 10x10 tile.
        ("slitherlink", "slitherlink.txt", "exits: W 5, E 5, S 5", "exits: W 5, E 11, S 5", "exit E 11 lies outside"),
    ],
    ids=["repeated-last", "repeated-first", "offset-past-end", "negative-offset", "lattice-offset"],
)
def test_repeated_or_out_of_range_exit_rejected(tmp_path, genre, name, old, new, match):
    directory = _copied_catalog(tmp_path, name, old, new)
    with pytest.raises(FormatError, match=match):
        load_gadget(genre, directory)


def test_missing_tile_section_rejected(tmp_path, monkeypatch):
    # Without [tile] the descriptor would load with no art at all.
    art = "[tile]\n#####\n#....\n.....\n....#\n##..#\n"
    directory = _copied_catalog(tmp_path, "simple_loop.txt", art, "")
    with pytest.raises(FormatError, match=r"^bad descriptor for simple-loop: missing section \[tile\]$"):
        load_gadget("simple-loop", directory)
    monkeypatch.setenv("LOOPFORGE_CATALOG", str(directory))
    assert main(["certify", "--genre", "simple-loop"]) == 66


def test_missing_tile_header_rejected(tmp_path, monkeypatch):
    # The header gives the tile's size, so its art cannot be read without it.
    directory = _copied_catalog(tmp_path, "simple_loop.txt", "tile: 5 5\n", "")
    with pytest.raises(FormatError, match="^bad descriptor for simple-loop: missing header 'tile'$"):
        load_gadget("simple-loop", directory)
    monkeypatch.setenv("LOOPFORGE_CATALOG", str(directory))
    assert main(["certify", "--genre", "simple-loop"]) == 66


def test_repeated_section_rejected(tmp_path):
    # A second [forced] would otherwise replace the first without a word.
    directory = _copied_catalog(tmp_path, "masyu.txt", "[forced]\n", "[forced]\n[forced]\n")
    with pytest.raises(FormatError, match=r"section \[forced\] is given twice"):
        load_gadget("masyu", directory)


def test_exit_alignment_all_placements(descriptors):
    for desc in descriptors.values():
        for t1 in desc.allowed_transforms():
            for t2 in desc.allowed_transforms():
                e1, e2 = placed_exits(desc, t1), placed_exits(desc, t2)
                if "E" in e1 and "W" in e2:
                    assert e1["E"][1] == e2["W"][1]
                if "S" in e1 and "N" in e2:
                    assert e1["S"][0] == e2["N"][0]


def test_crossing_edges_on_ring(descriptors):
    desc = descriptors["simple-loop"]
    cross = crossings(desc, RING_2X2)
    assert cross[("h", 0, 0)] == ("h", 4, 2)
    assert cross[("v", 0, 0)] == ("v", 2, 4)
    # the facing wall case: no crossing between tiles whose sides are walled
    layout = {
        (0, 0): desc.transform_for_free_side("E"),
        (1, 0): desc.transform_for_free_side("W"),
    }
    assert ("h", 0, 0) not in crossings(desc, layout)
    # no tile beyond the layout
    assert ("v", 0, 0) not in crossings(desc, layout)


@pytest.mark.parametrize("genre,expected", [("simple-loop", "yes"), ("yajilin", "yes")])
def test_full_certificates(descriptors, genre, expected):
    cert = certify_gadget(descriptors[genre], budget_ms=120000)
    assert cert.overall == expected
    for cond in ("a", "c", "d", "e"):
        assert cert.conditions[cond].status == "pass"
    assert cert.conditions["a"].witnesses > 0


@pytest.mark.parametrize("genre", ["masyu", "slitherlink"])
def test_witnessed_certificates(descriptors, genre):
    cert = certify_gadget(descriptors[genre], budget_ms=120000)
    assert cert.overall == "partial"
    for cond in ("c", "d", "e"):
        assert cert.conditions[cond].status == "pass"
    assert cert.conditions["a"].status == "budget-limited"


def test_yajilin_wall_mutations_flip(descriptors):
    # Wall-critical grey cells: every removal must break a condition.
    for cell in ((0, 1), (0, 4), (1, 4), (4, 3)):
        mutated = copy.copy(descriptors["yajilin"])
        mutated.art = {c: ch for c, ch in descriptors["yajilin"].art.items() if c != cell}
        cert = certify_gadget(mutated, budget_ms=120000)
        assert cert.overall == "no", f"removing {cell} should flip a condition"


def test_simple_loop_every_mutation_flips(descriptors):
    for cell in sorted(descriptors["simple-loop"].art):
        mutated = copy.copy(descriptors["simple-loop"])
        mutated.art = {c: ch for c, ch in descriptors["simple-loop"].art.items() if c != cell}
        cert = certify_gadget(mutated, budget_ms=120000)
        assert cert.overall == "no", f"removing {cell} should flip a condition"


def test_shading_a_bank_path_fails_without_raising(descriptors):
    # Tile cell (2, 3) lies on bank paths, so the lifted ring tours run
    # through a shaded cell of the mutated board.
    mutated = copy.copy(descriptors["simple-loop"])
    mutated.art = {**descriptors["simple-loop"].art, (2, 3): "#"}
    cert = certify_gadget(mutated, budget_ms=60000)
    assert cert.overall == "no"
    assert cert.conditions["e"].status == "fail"
    assert "no board solution extends the sub-solution" in cert.conditions["e"].detail


def test_fragment_that_misses_its_exits_fails_b_and_e(descriptors):
    # The lifted ring tour is checked as it stands: a gap in a bank
    # fragment is no board solution, whatever a search could complete.
    desc = descriptors["simple-loop"]
    pair = min(desc.bank, key=sorted)
    mutated = copy.copy(desc)
    mutated.bank = {**desc.bank, pair: frozenset(sorted(desc.bank[pair] - desc.forced)[1:]) | desc.forced}
    cert = certify_gadget(mutated, budget_ms=60000)
    assert cert.conditions["b"].status == "fail" and "ends at" in cert.conditions["b"].detail
    assert cert.conditions["e"].status == "fail"
    assert f"{sorted(pair)}: no board solution extends the sub-solution" in cert.conditions["e"].detail
    assert cert.overall == "no"


def test_listing_format(descriptors):
    lines = catalog_listing(certify=False)
    assert len(lines) == 4
    for line in lines:
        genre, size, transforms, certified = line.split()
        assert transforms.startswith("transforms=")
        assert certified.startswith("certified=")


@pytest.mark.parametrize("genre", ["slitherlink", "masyu", "yajilin", "simple-loop"])
def test_missing_bank_pair_fails_without_raising(descriptors, genre):
    # Every witness is the ring tour lifted through the bank; a ring tile
    # whose pair is missing fails that pair's (e).
    desc = descriptors[genre]
    for missing in sorted(desc.bank, key=sorted):
        mutated = copy.copy(desc)
        mutated.bank = {pair: frag for pair, frag in desc.bank.items() if pair != missing}
        cert = certify_gadget(mutated, budget_ms=60000)
        assert cert.overall == "no"
        e = cert.conditions["e"]
        for entry in e.detail.split("; "):
            assert "witnessed" in entry or f"no bank fragment for local exit pair {sorted(missing)}" in entry
        if "no bank fragment" in e.detail:
            assert e.status == "fail"


@pytest.mark.parametrize("genre", ["yajilin", "masyu"])
def test_tiny_budget_is_budget_limited_never_no(descriptors, genre):
    # (e) checks its witnesses without a search, so only (a) is cut short.
    cert = certify_gadget(descriptors[genre], budget_ms=1)
    statuses = {key: verdict.status for key, verdict in cert.conditions.items()}
    assert statuses["e"] == "pass"
    assert statuses["a"] == "budget-limited"
    assert "fail" not in statuses.values()
    assert cert.overall == "partial"


def test_enumeration_gets_only_the_budget_left(monkeypatch, descriptors):
    module = GENRES["yajilin"]
    checks = []  # seconds each verify call took
    calls = []  # (budget given, seconds of verify calls before it)
    verify, solve = module.verify, module.solve

    def timed_verify(puzzle, loop):
        start = time.monotonic()
        violation = verify(puzzle, loop)
        checks.append(time.monotonic() - start)
        return violation

    def recorded_solve(board, budget_ms, enumerate_all=False):
        calls.append((budget_ms, sum(checks)))
        return solve(board, budget_ms=budget_ms, enumerate_all=enumerate_all)

    monkeypatch.setattr(module, "verify", timed_verify)
    monkeypatch.setattr(module, "solve", recorded_solve)
    budget_ms = 60000.0
    cert = certify_gadget(descriptors["yajilin"], budget_ms=budget_ms)
    assert cert.conditions["a"].status == "pass"
    # The (e) checks ran inside certification before the enumeration
    # started, so at least their time is gone from its budget.
    [(budget, checked)] = calls
    assert checked > 0
    assert 0 < budget <= budget_ms - 1000.0 * checked


@pytest.mark.parametrize("genre", ["slitherlink", "masyu", "yajilin", "simple-loop"])
def test_witness_timeouts_are_partial_never_no(monkeypatch, descriptors, genre):
    # The witnesses start no search; only the enumeration does, and its
    # timeout leaves (a), (c) and (d) budget-limited.
    asked = []

    def timing_out(board, budget_ms, enumerate_all=False):
        asked.append(enumerate_all)
        raise SearchTimeout("budget spent")

    monkeypatch.setattr(GENRES[genre], "solve", timing_out)
    cert = certify_gadget(descriptors[genre], budget_ms=60000)
    statuses = {key: verdict.status for key, verdict in cert.conditions.items()}
    enumerated = genre in ("yajilin", "simple-loop")
    assert asked == ([True] if enumerated else [])
    if enumerated:
        assert statuses["a"] == statuses["c"] == statuses["d"] == "budget-limited"
    assert statuses["a"] == "budget-limited" and statuses["e"] == "pass"
    assert cert.overall == "partial"


@pytest.mark.parametrize("genre", ["slitherlink", "masyu"])
def test_large_tiles_are_certified_without_a_search(monkeypatch, descriptors, genre):
    calls = []
    monkeypatch.setattr(GENRES[genre], "solve", lambda *args, **kwargs: calls.append(args))
    cert = certify_gadget(descriptors[genre], budget_ms=60000)
    assert calls == []
    assert cert.conditions["e"].status == "pass" and cert.conditions["e"].witnesses == 3
    assert cert.overall == "partial"


@pytest.mark.parametrize("genre", ["slitherlink", "masyu", "yajilin", "simple-loop"])
def test_spent_budget_starts_no_search(monkeypatch, descriptors, genre):
    calls = []
    monkeypatch.setattr(GENRES[genre], "solve", lambda *args, **kwargs: calls.append(args))
    cert = certify_gadget(descriptors[genre], budget_ms=0)
    assert calls == []
    assert cert.overall == "partial"
