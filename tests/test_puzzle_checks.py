"""The errors each genre puzzle's constructor raises on a bad entry.

Every constructor checks its entries for duplicates, cells off the grid
and values outside their set.  These tests fix the error type and its
exact text, and which entry is named when several are bad: the first
in the puzzle's own order, with the checks of one entry made in the
constructor's order.
"""

import re

import pytest

from loopforge import formats
from loopforge.errors import BoundsError, FormatError
from loopforge.genres.masyu import MasyuPuzzle
from loopforge.genres.simple_loop import SimpleLoopPuzzle
from loopforge.genres.slitherlink import SlitherlinkPuzzle
from loopforge.genres.yajilin import YajilinPuzzle
from loopforge.grid import GridDims

DIMS = GridDims(3, 2)

CASES = [
    # Masyu: bounds, then colour, then duplicate, for each pearl in turn.
    (lambda: MasyuPuzzle(DIMS, (((0, 0), "white"), ((0, 0), "black"))), ValueError, "duplicate pearl at (0, 0)"),
    (lambda: MasyuPuzzle(DIMS, (((0, 0), "white"), ((3, 1), "black"))), BoundsError, "cell (3, 1) outside 3x2 grid"),
    (lambda: MasyuPuzzle(DIMS, (((0, -1), "white"),)), BoundsError, "cell (0, -1) outside 3x2 grid"),
    (lambda: MasyuPuzzle(DIMS, (((1, 1), "red"),)), ValueError, "bad pearl colour 'red'"),
    (
        lambda: MasyuPuzzle(DIMS, (((0, 0), "white"), ((1, 0), "grey"), ((5, 0), "black"), ((0, 0), "black"))),
        ValueError,
        "bad pearl colour 'grey'",
    ),
    (lambda: MasyuPuzzle(DIMS, (((0, 0), "white"), ((0, 0), "red"))), ValueError, "bad pearl colour 'red'"),
    (
        lambda: MasyuPuzzle(DIMS, (((1, 0), "white"), ((1, 0), "white"), ((2, 9), "red"))),
        ValueError,
        "duplicate pearl at (1, 0)",
    ),
    # Slitherlink: bounds, then range, then duplicate, for each clue in turn.
    (lambda: SlitherlinkPuzzle(DIMS, (((2, 1), 3), ((2, 1), 0))), ValueError, "duplicate clue at (2, 1)"),
    (lambda: SlitherlinkPuzzle(DIMS, (((0, 2), 1),)), BoundsError, "cell (0, 2) outside 3x2 grid"),
    (lambda: SlitherlinkPuzzle(DIMS, (((-1, 0), 1),)), BoundsError, "cell (-1, 0) outside 3x2 grid"),
    (lambda: SlitherlinkPuzzle(DIMS, (((1, 1), 4),)), ValueError, "clue 4 at (1, 1) out of range"),
    (lambda: SlitherlinkPuzzle(DIMS, (((1, 1), -1),)), ValueError, "clue -1 at (1, 1) out of range"),
    (
        lambda: SlitherlinkPuzzle(DIMS, (((0, 0), 2), ((0, 0), 2), ((1, 0), 7), ((9, 9), 0))),
        ValueError,
        "duplicate clue at (0, 0)",
    ),
    (
        lambda: SlitherlinkPuzzle(DIMS, (((0, 0), 2), ((0, 1), 9), ((9, 9), 0))),
        ValueError,
        "clue 9 at (0, 1) out of range",
    ),
    # Yajilin: every grey cell's bounds, then each clue's cell, count and direction.
    (lambda: _yajilin({(0, 0), (3, 0)}), BoundsError, "cell (3, 0) outside 3x2 grid"),
    (lambda: _yajilin({(0, 0)}, (((1, 1), 1, "N"),)), ValueError, "clue at (1, 1) is not on a grey cell"),
    (lambda: _yajilin({(0, 0)}, (((0, 0), 1, "X"),)), ValueError, "bad clue 1X at (0, 0)"),
    (lambda: _yajilin({(0, 0)}, (((0, 0), -1, "E"),)), ValueError, "bad clue -1E at (0, 0)"),
    (
        lambda: _yajilin({(0, 0), (2, 1)}, (((0, 0), 0, "S"), ((2, 1), 2, "up"), ((1, 0), 1, "N"))),
        ValueError,
        "bad clue 2up at (2, 1)",
    ),
    (lambda: _yajilin({(0, 0), (0, 5)}, (((1, 1), 1, "N"),)), BoundsError, "cell (0, 5) outside 3x2 grid"),
    (lambda: YajilinPuzzle(DIMS, [(1, 1), (0, 0), (1, 1)]), ValueError, "duplicate grey cell at (1, 1)"),
    (lambda: _yajilin({(1, 1)}, (((1, 1), 0, "N"), ((1, 1), 1, "S"))), ValueError, "duplicate clue at (1, 1)"),
    # Simple Loop: the bounds of every shaded cell, and each given once.
    (lambda: SimpleLoopPuzzle(DIMS, frozenset({(1, 1), (1, 2)})), BoundsError, "cell (1, 2) outside 3x2 grid"),
    (lambda: SimpleLoopPuzzle(DIMS, frozenset({(-1, 0)})), BoundsError, "cell (-1, 0) outside 3x2 grid"),
    (lambda: SimpleLoopPuzzle(DIMS, [(2, 1), (0, 0), (2, 1)]), ValueError, "duplicate shaded cell at (2, 1)"),
]


def _yajilin(grey, clues=()):
    return YajilinPuzzle(DIMS, frozenset(grey), clues)


@pytest.mark.parametrize("build, error, message", CASES, ids=[c[2] for c in CASES])
def test_constructor_error_text(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_valid_entries_pass():
    MasyuPuzzle(DIMS, (((0, 0), "white"), ((2, 1), "black")))
    MasyuPuzzle(DIMS, ())
    SlitherlinkPuzzle(DIMS, (((0, 0), 0), ((2, 1), 3)))
    SlitherlinkPuzzle(DIMS, ())
    _yajilin({(0, 0), (2, 1)}, (((0, 0), 0, "S"), ((2, 1), 2, "W")))
    _yajilin(set())
    SimpleLoopPuzzle(DIMS, frozenset({(0, 0), (2, 1)}))
    SimpleLoopPuzzle(DIMS, frozenset())


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"genre": "masyu", "width": 3, "height": 2, "pearls": [{"col": 0, "row": 0, "color": "red"}]},
         "bad puzzle document: bad pearl colour 'red'"),
        ({"genre": "slitherlink", "width": 3, "height": 2, "clues": [{"col": 3, "row": 0, "count": 1}]},
         "bad puzzle document: cell (3, 0) outside 3x2 grid"),
        ({"genre": "yajilin", "width": 3, "height": 2, "grey": [{"col": 0, "row": 0, "count": 1, "dir": "Q"}]},
         "bad puzzle document: bad clue 1Q at (0, 0)"),
        ({"genre": "simple-loop", "width": 3, "height": 2, "shaded": [{"col": 0, "row": 2}]},
         "bad puzzle document: cell (0, 2) outside 3x2 grid"),
        # A cell given twice, once with a clue, is not merged into one.
        ({"genre": "simple-loop", "width": 3, "height": 2, "shaded": [{"col": 1, "row": 1}, {"col": 1, "row": 1}]},
         "bad puzzle document: duplicate shaded cell at (1, 1)"),
        ({"genre": "yajilin", "width": 3, "height": 2, "grey": [{"col": 1, "row": 1, "count": None, "dir": None},
                                                                {"col": 1, "row": 1, "count": 0, "dir": "N"}]},
         "bad puzzle document: duplicate grey cell at (1, 1)"),
        ({"genre": "yajilin", "width": 3, "height": 2, "grey": [{"col": 1, "row": 1, "count": 0, "dir": "N"},
                                                                {"col": 1, "row": 1, "count": 1, "dir": "S"}]},
         "bad puzzle document: duplicate grey cell at (1, 1)"),
        # A direction with a null count is not dropped.
        ({"genre": "yajilin", "width": 3, "height": 2, "grey": [{"col": 2, "row": 0, "count": None, "dir": "W"}]},
         "bad puzzle document: clue direction 'W' without a count at (2, 0)"),
    ],
)
def test_document_errors_name_the_entry(doc, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        formats.puzzle_from_json(doc)
