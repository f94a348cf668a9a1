import json

import pytest

from conftest import FIXTURES, load_fixture
from loopforge import formats
from loopforge.cli import main

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


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_solution_round_trip(name):
    doc = load_fixture(f"{name}_solution")
    sol = formats.solution_from_json(doc)
    out = formats.solution_to_json(doc["genre"], sol)
    assert out == doc


def test_cubic_file_must_pass_cubicity(tmp_path):
    doc = {"genre": "cubic-bsl", "width": 3, "height": 3, "bars": []}
    with pytest.raises(formats.FormatError):
        formats.puzzle_from_json(doc)


def test_manifest_round_trip():
    from loopforge.metacell import lift_to_cubic, reduce_to_cubic
    from loopforge.reduction import lift_to_genre, reduce_to_genre

    source = formats.puzzle_from_json(load_fixture("bsl_example"))
    solution = formats.solution_from_json(load_fixture("bsl_example_solution"))
    cubic, cman = reduce_to_cubic(source)
    doc = formats.manifest_to_json(cman)
    again = formats.manifest_from_json(json.loads(formats.dumps_canonical(doc)))
    assert formats.manifest_to_json(again) == doc
    cubic_sol = lift_to_cubic(again, solution)
    assert cubic_sol == lift_to_cubic(cman, solution)

    board, gman = reduce_to_genre(cubic, "yajilin")
    doc = formats.manifest_to_json(gman)
    again = formats.manifest_from_json(json.loads(formats.dumps_canonical(doc)))
    assert formats.manifest_to_json(again) == doc
    # A reloaded manifest carries its board, so it lifts on its own.
    assert again.board == board
    assert lift_to_genre(again, cubic_sol) == lift_to_genre(gman, cubic_sol)

    doc["cells"][0]["exits"] = ["N"]
    with pytest.raises(formats.FormatError):
        formats.manifest_from_json(doc)


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
