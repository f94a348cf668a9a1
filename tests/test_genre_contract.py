"""The genre contract: a genre is one module, one descriptor and one
``GENRES`` entry, and nothing outside ``genres/`` names a genre.

The toy genre below is Simple Loop under another id, with its own puzzle
type, its own JSON field and its own art alphabet.  It is written to a
temporary module and registered only by adding it to ``GENRES``; the
command line then reduces to it, solves, verifies and round-trips it.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import FIXTURES, load_fixture
from loopforge import catalog, formats
from loopforge.cli import main
from loopforge.genres import GENRES
from loopforge.metacell import reduce_to_cubic
from loopforge.reduction import reduce_to_genre

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loopforge"

TOY_SOURCE = '''
"""Toy Loop: a single loop through every cell that is not a wall (X)."""

from dataclasses import dataclass

from loopforge.errors import json_int
from loopforge.genres import simple_loop
from loopforge.genres.base import check_art
from loopforge.grid import GridDims


@dataclass(frozen=True)
class ToyLoopPuzzle:
    dims: GridDims
    walls: frozenset

    def __post_init__(self):
        _simple(self)


PUZZLE = ToyLoopPuzzle
FRAME_OFFSET = 0


def _simple(puzzle):
    return simple_loop.SimpleLoopPuzzle(puzzle.dims, puzzle.walls)


def from_art(dims, cells):
    check_art(dims, cells, b"X")
    return ToyLoopPuzzle(dims, frozenset((i % dims.width, i // dims.width) for i, ch in enumerate(cells) if ch))


def to_json(puzzle):
    return {"walls": [{"col": c, "row": r} for c, r in sorted(puzzle.walls)]}


def from_json(dims, doc):
    return ToyLoopPuzzle(dims, frozenset((json_int(i["col"]), json_int(i["row"])) for i in doc.get("walls", [])))


def verify(puzzle, loop):
    return simple_loop.verify(_simple(puzzle), loop)


def solve(puzzle, budget_ms=None, seeds_in=(), enumerate_all=False):
    return simple_loop.solve(_simple(puzzle), budget_ms, seeds_in, enumerate_all)
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """The toy genre registered as "toy-loop", with its descriptor in a
    catalog directory of its own."""
    path = tmp_path / "toy_loop_genre.py"
    path.write_text(TOY_SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("toy_loop_genre", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(GENRES, "toy-loop", module)

    text = (catalog.DEFAULT_CATALOG / "simple_loop.txt").read_text(encoding="utf-8")
    header, _, rest = text.partition("[tile]\n")
    art, _, sections = rest.partition("[forced]\n")
    assert header.count("genre: simple-loop\n") == 1 and "#" in art
    toy_text = header.replace("genre: simple-loop\n", "genre: toy-loop\n") + "[tile]\n"
    toy_text += art.replace("#", "X") + "[forced]\n" + sections
    (tmp_path / "toy_loop.txt").write_text(toy_text, encoding="utf-8")
    monkeypatch.setenv("LOOPFORGE_CATALOG", str(tmp_path))
    return module


def _toy_doc(doc: dict) -> dict:
    """A Simple Loop puzzle or solution document as the toy's."""
    out = {**doc, "genre": "toy-loop"}
    if "shaded" in out:
        out["walls"] = out.pop("shaded")
    return out


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_toy_genre_reduces_and_round_trips(toy, tmp_path, capsys):
    board_path = tmp_path / "board.json"
    bsl = str(FIXTURES / "bsl_example.json")
    assert main(["reduce", bsl, "--to", "toy-loop", "-o", str(board_path)]) == 0
    assert capsys.readouterr().out == "4x4 -> 100x140\n"
    board = json.loads(board_path.read_text(encoding="utf-8"))
    assert sorted(board) == ["genre", "height", "walls", "width"]

    # The same board as Simple Loop's, walls for shaded cells.
    cubic, _ = reduce_to_cubic(formats.puzzle_from_json(load_fixture("bsl_example")))
    simple, _ = reduce_to_genre(cubic, "simple-loop", catalog.load_gadget("simple-loop", catalog.DEFAULT_CATALOG))
    assert board == _toy_doc(json.loads(formats.dumps_canonical(formats.puzzle_to_json(simple))))

    puzzle = formats.puzzle_from_json(board)
    assert type(puzzle) is toy.PUZZLE and formats.puzzle_genre(puzzle) == "toy-loop"
    assert formats.dumps_canonical(formats.puzzle_to_json(puzzle)) == board_path.read_text(encoding="utf-8")

    assert main(["roundtrip", bsl, "--genre", "toy-loop"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["genre"] == "toy-loop" and report["stages"]["genre-verify"] == "ok"


def test_toy_genre_solves_and_verifies(toy, tmp_path, capsys):
    puzzle_path = _write(tmp_path / "toy.json", _toy_doc(load_fixture("simple_loop_example")))
    assert main(["solve", puzzle_path]) == 0
    out = capsys.readouterr().out
    solution = json.loads(out)
    assert solution == _toy_doc(load_fixture("simple_loop_example_solution"))
    assert formats.dumps_canonical(formats.solution_to_json("toy-loop", formats.solution_from_json(solution))) == out

    solution_path = _write(tmp_path / "sol.json", solution)
    assert main(["verify", puzzle_path, solution_path]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "ok"}

    broken = {**solution, "edges": solution["edges"][1:]}
    assert main(["verify", puzzle_path, _write(tmp_path / "broken.json", broken)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "violation" and report["code"] == "degree"

    simple_solution = _write(tmp_path / "simple.json", load_fixture("simple_loop_example_solution"))
    assert main(["verify", puzzle_path, simple_solution]) == 65


def test_toy_art_is_its_own(toy, tmp_path, capsys):
    # Simple Loop's "#" is no toy character, so a toy tile drawn with it is refused.
    text = (tmp_path / "toy_loop.txt").read_text(encoding="utf-8")
    (tmp_path / "toy_loop.txt").write_text(text.replace("X", "#"), encoding="utf-8")
    assert main(["certify", "--genre", "toy-loop"]) == 66
    assert "bad tile character '#'" in capsys.readouterr().err


def test_unregistered_genre_is_refused(tmp_path, capsys):
    assert "toy-loop" not in GENRES
    doc = _write(tmp_path / "toy.json", _toy_doc(load_fixture("simple_loop_example")))
    assert main(["solve", doc]) == 64
    assert "unknown genre 'toy-loop'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:
        main(["reduce", str(FIXTURES / "bsl_example.json"), "--to", "toy-loop", "-o", str(tmp_path / "b.json")])
    assert exited.value.code == 64
    assert main(["roundtrip", str(FIXTURES / "bsl_example.json"), "--genre", "toy-loop"]) == 66


def test_no_genre_id_is_written_outside_genres():
    """No string constant outside ``genres/`` equals a genre id; prose that
    mentions one, such as a docstring, is not a constant equal to it."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if "genres" in path.relative_to(PACKAGE).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in GENRES:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.value!r}")
    assert found == []
