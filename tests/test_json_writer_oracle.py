"""The board and edge-list writers against a dict-per-entry reference.

``formats.dumps_canonical(formats.puzzle_to_json(...))`` and its
``solution_to_json`` twin write their entry and edge lists as text from
per-row tables, one join per column (boards) or per row (edges).  The
reference below builds one dict per entry and per edge, read straight
off the byte grid or the edge set, and writes the document with
``json.dumps(sort_keys=True, separators=(",", ":"))``, the way the
writers were first written.  Both must give the same bytes on:

* seeded random boards of every genre: empty boards, 1 x N and N x 1
  boards, entries in the first and last row and column, every art byte
  of each alphabet, and Yajilin with arrow clues;
* seeded random loops, flat (spare bytes and the last column too) and
  built from edges (negative coordinates too), under both solution keys;
* seeded random BSL and cubic BSL bar sets, the empty set too.

``formats.write_canonical`` must write the text ``dumps_canonical``
returns, in pieces no longer than ``WRITE_CHUNK``.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import internal_edges, sides_by_cell
from loopforge import formats
from loopforge.bsl import BslPuzzle, CubicBslPuzzle
from loopforge.genres import GENRES
from loopforge.genres.yajilin import YajilinPuzzle
from loopforge.grid import CellLoop, GridDims, edge_sort_key

BOARDS = 150

ALPHABETS = {"masyu": b"BW", "slitherlink": b"0123", "yajilin": b"#", "simple-loop": b"#"}


# ----------------------------------------------------------------------
# Reference: one dict per entry and per edge, through json.dumps.


def ref_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def ref_entries(puzzle):
    """(col, row, art byte) of every nonempty cell, column by column."""
    w, h = puzzle.dims.width, puzzle.dims.height
    return [(c, r, puzzle.cells[r * w + c]) for c in range(w) for r in range(h) if puzzle.cells[r * w + c]]


def ref_board_fields(genre, puzzle) -> dict:
    entries = ref_entries(puzzle)
    if genre == "masyu":
        colour = {ord("B"): "black", ord("W"): "white"}
        return {"pearls": [{"col": c, "row": r, "color": colour[b]} for c, r, b in entries]}
    if genre == "slitherlink":
        return {"clues": [{"col": c, "row": r, "count": int(chr(b))} for c, r, b in entries]}
    if genre == "yajilin":
        clue = {cell: (count, direction) for cell, count, direction in puzzle.clues}
        grey = []
        for c, r, _ in entries:
            count, direction = clue.get((c, r), (None, None))
            grey.append({"col": c, "row": r, "count": count, "dir": direction})
        return {"grey": grey}
    return {"shaded": [{"col": c, "row": r} for c, r, _ in entries]}


def ref_edges(edges) -> list:
    return [{"axis": a, "col": c, "row": r} for a, c, r in sorted(edges, key=edge_sort_key)]


def ref_puzzle_text(genre, puzzle) -> str:
    doc = {"genre": genre, "width": puzzle.dims.width, "height": puzzle.dims.height}
    if genre in ("bsl", "cubic-bsl"):
        doc["bars"] = ref_edges(puzzle.bars)
    else:
        doc.update(ref_board_fields(genre, puzzle))
    return ref_dumps(doc)


def ref_solution_text(genre, key, loop) -> str:
    return ref_dumps({"genre": genre, key: ref_edges(loop.transitions)})


def written(puzzle) -> str:
    return formats.dumps_canonical(formats.puzzle_to_json(puzzle))


# ----------------------------------------------------------------------
# Inputs.


def random_dims(rng) -> GridDims:
    shape = rng.randrange(4)
    if shape == 0:
        return GridDims(1, rng.randint(1, 9))
    if shape == 1:
        return GridDims(rng.randint(1, 9), 1)
    return GridDims(rng.randint(1, 12), rng.randint(1, 12))


def random_art(rng, dims, alphabet) -> bytes:
    """Art at a random density, with the corners and one cell of each
    border row and column set more often than not."""
    w, h = dims.width, dims.height
    share = rng.choice((0.0, 0.1, 0.5, 1.0))
    cells = bytearray(rng.choice(alphabet) if rng.random() < share else 0 for _ in range(w * h))
    if share:
        for c, r in ((0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1), (rng.randrange(w), 0), (0, rng.randrange(h))):
            if rng.random() < 0.7:
                cells[r * w + c] = rng.choice(alphabet)
    return bytes(cells)


def random_board(rng, genre):
    dims = random_dims(rng)
    art = random_art(rng, dims, ALPHABETS[genre])
    if genre != "yajilin" or rng.random() < 0.3:
        return GENRES[genre].from_art(dims, art)
    grey = [(i % dims.width, i // dims.width) for i, b in enumerate(art) if b]
    clued = rng.sample(grey, rng.randint(0, len(grey)))
    clues = tuple(sorted((cell, rng.randrange(25), rng.choice("NESW")) for cell in clued))
    return YajilinPuzzle(dims, grey, clues)


def random_edges(rng, width, height) -> frozenset:
    edges = internal_edges(GridDims(width, height))
    return frozenset(rng.sample(edges, rng.randint(0, len(edges))))


# ----------------------------------------------------------------------
# Tests.


@pytest.mark.parametrize("genre", sorted(ALPHABETS))
def test_board_text_matches_the_reference(genre):
    rng = random.Random(f"board-{genre}")
    seen = set()
    for _ in range(BOARDS):
        board = random_board(rng, genre)
        seen.update(board.cells)
        assert written(board) == ref_puzzle_text(genre, board)
    assert seen >= {0, *ALPHABETS[genre]}, "every art byte and an empty cell were written"


@pytest.mark.parametrize("genre", sorted(ALPHABETS))
def test_empty_and_full_boards(genre):
    for w, h in ((1, 1), (1, 7), (7, 1), (5, 3)):
        dims = GridDims(w, h)
        empty = GENRES[genre].from_art(dims, bytes(w * h))
        assert [] in json.loads(written(empty)).values() and written(empty) == ref_puzzle_text(genre, empty)
        for ch in ALPHABETS[genre]:
            full = GENRES[genre].from_art(dims, bytes([ch]) * (w * h))
            assert written(full) == ref_puzzle_text(genre, full)


def test_yajilin_clue_on_every_grey_cell():
    dims = GridDims(4, 3)
    grey = [(c, r) for c in range(4) for r in range(3) if (c + r) % 2 == 0]
    clues = tuple(sorted((cell, 10 + i, "NESW"[i % 4]) for i, cell in enumerate(grey)))
    board = YajilinPuzzle(dims, grey, clues)
    assert written(board) == ref_puzzle_text("yajilin", board)
    assert formats.puzzle_from_json(json.loads(written(board))) == board


@pytest.mark.parametrize("genre", ["masyu", "slitherlink", "cubic-bsl"])
def test_loop_text_matches_the_reference(genre):
    key = "lattice_edges" if genre == "slitherlink" else "edges"
    rng = random.Random(f"loop-{genre}")
    for _ in range(BOARDS):
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        n = w * h
        # Flat: any 0/1 bytes, spare bytes and the last column included.
        east = bytearray(rng.random() < 0.4 for _ in range(n + 1))
        south = bytearray(rng.random() < 0.4 for _ in range(n + w))
        flat = CellLoop.flat(w, h, east, south)
        out = formats.dumps_canonical(formats.solution_to_json(genre, flat))
        assert out == ref_solution_text(genre, key, flat)
        # Built from edges, moved off the origin, possibly to negative coordinates.
        dc, dr = rng.randint(-3, 3), rng.randint(-3, 3)
        edges = frozenset((a, c + dc, r + dr) for a, c, r in random_edges(rng, w, h))
        loop = CellLoop(edges)
        out = formats.dumps_canonical(formats.solution_to_json(genre, loop))
        assert out == ref_solution_text(genre, key, loop)


def test_bar_text_matches_the_reference():
    rng = random.Random("bars")
    for _ in range(BOARDS):
        dims = random_dims(rng)
        puzzle = BslPuzzle(dims, random_edges(rng, dims.width, dims.height))
        assert written(puzzle) == ref_puzzle_text("bsl", puzzle)
        # Bar one side of each cell left with four open sides: cubic.
        bars = set(puzzle.bars)
        for (c, r), sides in sides_by_cell(puzzle).items():
            if len(sides) == 4:
                bars.add(("h", c, r) if rng.random() < 0.5 else ("v", c, r))
        cubic = CubicBslPuzzle(BslPuzzle(dims, frozenset(bars)))
        assert written(cubic) == ref_puzzle_text("cubic-bsl", cubic)
    empty = BslPuzzle(GridDims(3, 3), frozenset())
    assert written(empty) == ref_puzzle_text("bsl", empty) == '{"bars":[],"genre":"bsl","height":3,"width":3}\n'


class _Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_streamed_text_is_the_joined_text(chunk, monkeypatch):
    """``write_canonical`` writes what ``dumps_canonical`` returns, in
    pieces no longer than ``WRITE_CHUNK``: boards and loops of every
    genre, bar sets, a document with two ``Canonical`` fields and one
    with none."""
    monkeypatch.setattr(formats, "WRITE_CHUNK", chunk)
    rng = random.Random(f"stream-{chunk}")
    docs = [{"verdict": "ok"}]
    for genre in ALPHABETS:
        board = random_board(rng, genre)
        docs.append(formats.puzzle_to_json(board))
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        docs.append(formats.solution_to_json(genre, CellLoop(random_edges(rng, w, h))))
    dims = random_dims(rng)
    bars = formats.puzzle_to_json(BslPuzzle(dims, random_edges(rng, dims.width, dims.height)))
    docs.append({"stages": [bars, docs[2]], "kind": "chain"})
    for doc in docs:
        stream = _Recorder()
        formats.write_canonical(doc, stream)
        assert "".join(stream.writes) == formats.dumps_canonical(doc)
        assert max(map(len, stream.writes)) <= chunk
