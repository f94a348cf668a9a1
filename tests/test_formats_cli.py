import json

import pytest

from conftest import FIXTURES, load_fixture
from loopforge import formats
from loopforge.catalog import DEFAULT_CATALOG
from loopforge.cli import main
from loopforge.genres import GENRES
from loopforge.metacell import lift_to_cubic, reduce_to_cubic
from loopforge.reduction import lift_to_genre, reduce_to_genre

ALL_FIXTURES = [
    "bsl_example",
    "cubic_example",
    "slitherlink_example",
    "masyu_example",
    "yajilin_example",
    "simple_loop_example",
]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_puzzle_round_trip_byte_identical(name):
    doc = load_fixture(name)
    puzzle = formats.puzzle_from_json(doc)
    once = formats.dumps_canonical(formats.puzzle_to_json(puzzle))
    twice = formats.dumps_canonical(
        formats.puzzle_to_json(formats.puzzle_from_json(json.loads(once)))
    )
    assert once == twice
    assert json.loads(once) == doc
    # The fixtures are canonical text, Yajilin's arrow clues included.
    assert once == (FIXTURES / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_solution_round_trip(name):
    doc = load_fixture(f"{name}_solution")
    sol = formats.solution_from_json(doc)
    out = formats.dumps_canonical(formats.solution_to_json(doc["genre"], sol))
    assert json.loads(out) == doc
    assert out == (FIXTURES / f"{name}_solution.json").read_text(encoding="utf-8")


def _reduced_images():
    """(genre, image, lifted solution) for the cubic stage and each genre
    stage of the BSL fixture."""
    cubic, cman = reduce_to_cubic(formats.puzzle_from_json(load_fixture("bsl_example")))
    lifted = lift_to_cubic(cman, formats.solution_from_json(load_fixture("bsl_example_solution")))
    yield "cubic-bsl", cubic, lifted
    for genre in GENRES:
        board, gman = reduce_to_genre(cubic, genre)
        yield genre, board, lift_to_genre(gman, lifted)


def test_reduced_images_round_trip_through_the_parsers():
    keys = set()
    for genre, image, solution in _reduced_images():
        text = formats.dumps_canonical(formats.puzzle_to_json(image))
        parsed = formats.puzzle_from_json(json.loads(text))
        assert parsed == image
        assert formats.dumps_canonical(formats.puzzle_to_json(parsed)) == text

        text = formats.dumps_canonical(formats.solution_to_json(genre, solution))
        doc = json.loads(text)
        keys |= set(doc) - {"genre"}
        parsed = formats.solution_from_json(doc)
        assert parsed == solution
        assert formats.dumps_canonical(formats.solution_to_json(genre, parsed)) == text
    assert keys == {"edges", "lattice_edges"}


def test_nested_puzzle_text_is_the_puzzle_document():
    # A manifest's source is written with the same bytes as the source alone.
    cubic, cman = reduce_to_cubic(formats.puzzle_from_json(load_fixture("bsl_example")))
    _, gman = reduce_to_genre(cubic, "masyu")
    for manifest, source in ((cman, cman.source), (gman, cubic)):
        text = formats.dumps_canonical(formats.manifest_to_json(manifest))
        assert '"source":' + formats.dumps_canonical(formats.puzzle_to_json(source)).rstrip("\n") in text


def test_plain_json_dumps_refuses_written_text():
    # Entry and edge lists are canonical text, not strings: json.dumps
    # must refuse them rather than write them quoted.
    for genre, image, solution in _reduced_images():
        with pytest.raises(TypeError):
            json.dumps(formats.puzzle_to_json(image))
        with pytest.raises(TypeError):
            json.dumps(formats.solution_to_json(genre, solution))
    with pytest.raises(TypeError):
        formats.dumps_canonical({"edges": {("h", 0, 0)}})
    # The string that stands in for spliced text is refused, not mistaken for it.
    with pytest.raises(ValueError):
        formats.dumps_canonical({"genre": "\0"})


def test_cubic_file_must_pass_cubicity(tmp_path):
    doc = {"genre": "cubic-bsl", "width": 3, "height": 3, "bars": []}
    with pytest.raises(formats.FormatError):
        formats.puzzle_from_json(doc)


# ----------------------------------------------------------------------
# command line


def fx(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def test_cli_solve_fixture(capsys):
    assert main(["solve", fx("bsl_example")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["genre"] == "bsl"


def test_cli_solve_unsat(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"genre":"bsl","width":3,"height":3,"bars":[]}')
    assert main(["solve", str(p)]) == 1


def test_cli_solve_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json")
    assert main(["solve", str(p)]) == 64


def test_cli_solve_refuses_a_second_yajilin_clue(tmp_path, capsys):
    p = tmp_path / "two_clues.json"
    grey = '{"col":1,"row":1,"count":0,"dir":"N"},{"col":1,"row":1,"count":1,"dir":"S"}'
    p.write_text('{"genre":"yajilin","width":3,"height":3,"grey":[%s]}' % grey)
    assert main(["solve", str(p)]) == 64
    assert "duplicate grey cell at (1, 1)" in capsys.readouterr().err


def test_cli_solve_dp_oracle(capsys):
    assert main(["solve", fx("bsl_example"), "--oracle", "dp"]) == 0
    assert json.loads(capsys.readouterr().out)["solvable"] is True


def test_cli_solve_dp_capability_is_internal_error(tmp_path, capsys):
    p = tmp_path / "wide.json"
    p.write_text('{"genre":"bsl","width":15,"height":16,"bars":[]}')
    assert main(["solve", str(p), "--oracle", "dp"]) == 70
    assert "exceeds cap" in capsys.readouterr().err


def test_cli_reduction_error_is_internal_error(monkeypatch, capsys):
    from loopforge import cli
    from loopforge.errors import ReductionError

    def broken_lift(manifest, solution):
        raise ReductionError("lifted solution invalid")

    monkeypatch.setattr(cli, "lift_to_genre", broken_lift)
    assert main(["roundtrip", fx("bsl_example"), "--genre", "simple-loop"]) == 70
    assert "lifted solution invalid" in capsys.readouterr().err


def test_cli_solve_byte_identical(capsys):
    main(["solve", fx("masyu_example")])
    first = capsys.readouterr().out
    main(["solve", fx("masyu_example")])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_cli_verify_fixtures(name, capsys):
    assert main(["verify", fx(name), fx(f"{name}_solution")]) == 0


def test_cli_verify_rejects_mutation(tmp_path, capsys):
    doc = load_fixture("slitherlink_example_solution")
    doc["lattice_edges"] = doc["lattice_edges"][1:]
    p = tmp_path / "mut.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", fx("slitherlink_example"), str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "violation"


def test_cli_verify_genre_mismatch():
    assert main(["verify", fx("masyu_example"), fx("bsl_example_solution")]) == 65


def test_cli_reduce_chain(tmp_path, capsys):
    cubic_out = tmp_path / "cubic.json"
    man_out = tmp_path / "man.json"
    assert main(["reduce", fx("bsl_example"), "--to", "cubic", "-o", str(cubic_out), "--manifest", str(man_out)]) == 0
    assert "4x4 -> 20x28" in capsys.readouterr().out
    board_out = tmp_path / "board.json"
    assert main(["reduce", str(cubic_out), "--to", "masyu", "-o", str(board_out)]) == 0
    assert "20x28 -> 180x252" in capsys.readouterr().out
    doc = json.loads(board_out.read_text())
    assert doc["genre"] == "masyu"


def test_cli_reduce_unknown_genre(tmp_path):
    assert main(["reduce", fx("cubic_example"), "--to", "cubic", "-o", str(tmp_path / "x.json")]) == 0
    # missing descriptor -> exit 66 (argparse rejects unknown --to values,
    # so point the catalog somewhere empty instead)
    import os

    old = os.environ.get("LOOPFORGE_CATALOG")
    os.environ["LOOPFORGE_CATALOG"] = str(tmp_path)
    try:
        assert main(["reduce", fx("cubic_example"), "--to", "masyu", "-o", str(tmp_path / "y.json")]) == 66
    finally:
        if old is None:
            del os.environ["LOOPFORGE_CATALOG"]
        else:
            os.environ["LOOPFORGE_CATALOG"] = old


def test_cli_roundtrip_missing_gadget(tmp_path, monkeypatch, capsys):
    # The gadget is loaded before any stage runs, so a missing descriptor
    # is "missing gadget" (66), not an internal error.
    monkeypatch.setenv("LOOPFORGE_CATALOG", str(tmp_path))
    assert main(["roundtrip", fx("bsl_example"), "--genre", "masyu"]) == 66
    out = capsys.readouterr()
    assert out.out == ""
    assert "gadget unavailable" in out.err


def test_cli_roundtrip_fixture(capsys):
    assert main(["roundtrip", fx("bsl_example"), "--genre", "simple-loop"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "ok"
    assert report["stages"]["genre-verify"] == "ok"


def test_cli_roundtrip_unsat_source(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"genre":"bsl","width":3,"height":3,"bars":[]}')
    assert main(["roundtrip", str(p), "--genre", "yajilin"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stages"]["source-solve"] == "unsat"
    assert report["stages"]["genre-solve"] == "budget-skipped"


def test_cli_roundtrip_degenerate_source(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"genre":"bsl","width":2,"height":1,"bars":[]}')
    assert main(["roundtrip", str(p), "--genre", "simple-loop"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stages"]["genre-image"] == "canonical-unsolvable"
    assert report["stages"]["genre-solve"] == "unsat"


def test_cli_certify(capsys):
    assert main(["certify", "--genre", "simple-loop", "--budget", "60000"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["certified"] == "yes"
    assert main(["certify", "--genre", "slitherlink", "--budget", "60000"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["certified"] == "partial"
    assert cert["conditions"]["a"]["status"] == "budget-limited"


def test_cli_certify_missing():
    assert main(["certify", "--genre", "nosuch"]) == 66


@pytest.mark.parametrize("budget", ["nan", "-1", "abc"])
@pytest.mark.parametrize(
    "command",
    [
        ["solve", "bsl_example"],
        ["roundtrip", "bsl_example", "--genre", "simple-loop"],
        ["certify", "--genre", "simple-loop"],
    ],
)
def test_cli_budget_must_be_finite_and_not_negative(command, budget, capsys):
    # No clock reading is past NaN, so a NaN budget would never run out.
    # A usage error is a parse error (64), never argparse's 2, which is "timeout" here.
    args = [fx(a) if a.endswith("_example") else a for a in command]
    with pytest.raises(SystemExit) as exited:
        main([*args, "--budget", budget])
    assert exited.value.code == 64
    assert f"argument --budget: invalid budget value: '{budget}'" in capsys.readouterr().err


def test_cli_catalog(capsys):
    assert main(["catalog", "--no-certify"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("slitherlink 10x10")


def test_cli_reduce_single_command_chain(tmp_path, capsys):
    out = tmp_path / "board.json"
    man = tmp_path / "man.json"
    assert main(["reduce", fx("bsl_example"), "--to", "masyu", "-o", str(out), "--manifest", str(man)]) == 0
    assert "4x4 -> 180x252" in capsys.readouterr().out
    mdoc = json.loads(man.read_text())
    assert mdoc["kind"] == "chain"
    assert [s["kind"] for s in mdoc["stages"]] == ["cubic-manifest", "genre-manifest"]


# Malformed documents are parse errors (64) and malformed descriptors
# missing gadgets (66); neither may surface as a traceback, which exits 1
# and reads as "unsat", or as an internal error (70).
MALFORMED_PUZZLES = {
    "bar-off-board": {"genre": "bsl", "width": 2, "height": 2, "bars": [{"axis": "h", "col": 5, "row": 0}]},
    "bar-without-axis": {"genre": "bsl", "width": 2, "height": 2, "bars": [{"col": 0, "row": 0}]},
    "arrow-without-direction": {
        "genre": "yajilin", "width": 3, "height": 3, "grey": [{"col": 0, "row": 0, "count": 1}]
    },
    "red-pearl": {"genre": "masyu", "width": 3, "height": 3, "pearls": [{"col": 0, "row": 0, "color": "red"}]},
    "shaded-off-board": {"genre": "simple-loop", "width": 3, "height": 3, "shaded": [{"col": 9, "row": 0}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PUZZLES))
def test_cli_solve_malformed_puzzle_is_parse_error(case, tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(MALFORMED_PUZZLES[case]), encoding="utf-8")
    assert main(["solve", str(p)]) == 64
    assert "parse error" in capsys.readouterr().err


def test_cli_verify_solution_that_is_no_object_is_parse_error(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text("[]", encoding="utf-8")
    assert main(["verify", fx("masyu_example"), str(p)]) == 64
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["masyu_example", "slitherlink_example"])
def test_cli_verify_edge_without_row_is_parse_error(name, tmp_path, capsys):
    doc = load_fixture(f"{name}_solution")
    key = "lattice_edges" if "lattice_edges" in doc else "edges"
    del doc[key][0]["row"]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", fx(name), str(p)]) == 64
    assert "parse error" in capsys.readouterr().err


def _catalog_with(tmp_path, monkeypatch, genre, old, new):
    """Point the catalog at a copy of ``genre``'s descriptor with ``old`` replaced by ``new``."""
    name = f"{genre.replace('-', '_')}.txt"
    text = (DEFAULT_CATALOG / name).read_text(encoding="utf-8")
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new, 1), encoding="utf-8")
    monkeypatch.setenv("LOOPFORGE_CATALOG", str(tmp_path))


@pytest.mark.parametrize(
    "genre,old,new",
    [
        ("simple-loop", "exits: W 2, E 2, S 2\n", ""),
        ("simple-loop", "tile: 5 5\n", "tile: 9 x\n"),
        ("simple-loop", "exits: W 2,", "exits: W two,"),
        ("slitherlink", "[tile]\n.333", "[tile]\n4333"),
        ("slitherlink", "[tile]\n.333", "[tile]\nx333"),
        ("masyu", "[tile]\nB", "[tile]\nQ"),
        ("yajilin", "[tile]\n#", "[tile]\nB"),
        ("yajilin", "free: N\n", "free: N\nzero_clues: on\n"),
    ],
    ids=[
        "no-exits-line",
        "bad-tile-size",
        "bad-exit-offset",
        "slitherlink-4",
        "slitherlink-x",
        "masyu-Q",
        "yajilin-B",
        "zero-clues-header",
    ],
)
def test_cli_certify_malformed_descriptor_is_missing_gadget(genre, old, new, tmp_path, monkeypatch, capsys):
    _catalog_with(tmp_path, monkeypatch, genre, old, new)
    assert main(["certify", "--genre", genre]) == 66
    assert "gadget unavailable" in capsys.readouterr().err


def test_cli_reduce_and_roundtrip_with_out_of_range_clue_are_missing_gadget(tmp_path, monkeypatch, capsys):
    _catalog_with(tmp_path, monkeypatch, "slitherlink", "[tile]\n.333", "[tile]\n4333")
    out = tmp_path / "out.json"
    assert main(["reduce", fx("bsl_example"), "--to", "slitherlink", "-o", str(out)]) == 66
    assert "gadget unavailable" in capsys.readouterr().err
    assert not out.exists()
    assert main(["roundtrip", fx("bsl_example"), "--genre", "slitherlink"]) == 66
    assert "gadget unavailable" in capsys.readouterr().err


# Every coordinate, count and size must be a JSON integer: a float, a
# numeric string or a bool was once truncated by int() and accepted.
def _with(name: str, key: str, field: str, value):
    doc = load_fixture(name)
    doc[key][0][field] = value
    return doc


NON_INTEGER_PUZZLES = {
    "masyu-pearl-col-float": _with("masyu_example", "pearls", "col", 1.7),
    "masyu-pearl-row-bool": _with("masyu_example", "pearls", "row", True),
    "slitherlink-clue-col-string": _with("slitherlink_example", "clues", "col", "1"),
    "slitherlink-clue-count-float": _with("slitherlink_example", "clues", "count", 2.5),
    "yajilin-grey-row-float": _with("yajilin_example", "grey", "row", 0.0),
    "yajilin-clue-count-string": _with("yajilin_example", "grey", "count", "1"),
    "simple-loop-shaded-col-bool": _with("simple_loop_example", "shaded", "col", False),
    "bsl-bar-col-float": _with("bsl_example", "bars", "col", 0.2),
    "cubic-bsl-bar-row-string": _with("cubic_example", "bars", "row", "1"),
    "width-string": {**load_fixture("bsl_example"), "width": "2"},
    "height-float": {**load_fixture("masyu_example"), "height": 2.9},
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_PUZZLES))
def test_non_integer_puzzle_fields_are_parse_errors(case, tmp_path, capsys):
    doc = NON_INTEGER_PUZZLES[case]
    with pytest.raises(formats.FormatError, match="expected an integer"):
        formats.puzzle_from_json(doc)
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", str(p)]) == 64
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("name,field,value", [
    ("simple_loop_example", "col", 0.5),
    ("bsl_example", "row", True),
    ("slitherlink_example", "row", "0"),
])
def test_non_integer_solution_edges_are_parse_errors(name, field, value, tmp_path, capsys):
    doc = load_fixture(f"{name}_solution")
    key = "lattice_edges" if "lattice_edges" in doc else "edges"
    doc[key][0][field] = value
    with pytest.raises(formats.FormatError, match="expected an integer"):
        formats.solution_from_json(doc)
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", fx(name), str(p)]) == 64
    assert "parse error" in capsys.readouterr().err
