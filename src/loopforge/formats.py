"""JSON interchange for puzzles, solutions, manifests and run reports.

One shared envelope for every puzzle kind: ``{"genre": ..., "width": ...,
"height": ..., ...genre fields}``.  This module writes and reads the
envelope; the fields are the genre module's own (``to_json`` and
``from_json`` in ``genres.GENRES``), except for the two source kinds,
``bsl`` and ``cubic-bsl``, whose ``bars`` are read here.  A puzzle's
genre id is found by its type among the ``GENRES`` modules' ``PUZZLE``
types.  Solutions are sorted edge lists, under ``lattice_edges`` for a
genre whose loop runs on the dots (a nonzero ``FRAME_OFFSET``) and
``edges`` otherwise.  Every coordinate and count read must be a JSON
integer.  Serialisation is canonical: sorted keys, sorted edges, no
whitespace variation, so identical inputs give byte-identical output.
A field is a plain JSON value or a ``Canonical``, text already in that
form: entry lists by ``ArtBoard.entry_list``, one join per column, and
edge lists from a loop's byte rows, one join per row, with no string per
entry.  ``write_canonical`` writes the envelope's pieces and each such
text straight to a stream, and ``dumps_canonical`` joins the same pieces.
"""

from __future__ import annotations

import json
from itertools import chain, compress

from .bsl import BslPuzzle, CubicBslPuzzle
from .errors import FormatError, json_int, malformed
from .genres import GENRES
from .genres.base import Canonical
from .grid import CellLoop, Edge, GridDims, edge_rows
from .metacell import CubicReductionManifest
from .reduction import GenreReductionManifest

SOURCE_KINDS = ("bsl", "cubic-bsl")


def puzzle_genre(puzzle) -> str:
    """A source kind, or the ``GENRES`` id whose module's ``PUZZLE`` is the puzzle's type."""
    kinds = {BslPuzzle: "bsl", CubicBslPuzzle: "cubic-bsl", **{m.PUZZLE: genre for genre, m in GENRES.items()}}
    if type(puzzle) not in kinds:
        raise FormatError(f"unknown puzzle object {type(puzzle).__name__}")
    return kinds[type(puzzle)]


def _edges_json(loop: CellLoop) -> Canonical:
    """A loop's edges as a JSON list, read off its arrays (a loop built from
    edges is laid on a box holding them and (0, 0)).  A row is one join: its
    bytes pick a ``{"axis":A,"col":C`` head per column and axis, and its
    ``,"row":R}`` tail ends each."""
    col0 = row0 = 0
    if loop.size:
        width, east, south = loop.size[0], loop.east, loop.south
    else:
        _, cols, rows = zip(("h", 0, 0), *loop.transitions)
        col0, row0 = min(cols), min(rows)
        width = max(cols) - col0 + 1
        n = width * (max(rows) - row0 + 1)
        east, south = bytearray(n + 1), bytearray(n + width)
        for axis, c, r in loop.transitions:
            (east if axis == "h" else south)[(r - row0) * width + c - col0] = 1
    heads = ['{"axis":"%s","col":%d' % (axis, col0 + c) for c in range(width) for axis in "hv"]
    parts = []
    for r, row in edge_rows(width, east, south):
        tail = ',"row":%d}' % (row0 + r)
        text = (tail + ",").join(compress(heads, row))
        if text:
            parts += (",", text, tail)
    return Canonical("".join(["[", *parts[1:], "]"]))


def _edges_from_json(items) -> frozenset[Edge]:
    out = set()
    for item in items:
        axis = item["axis"]
        if axis not in ("h", "v"):
            raise FormatError(f"bad edge axis {axis!r}")
        out.add((axis, json_int(item["col"]), json_int(item["row"])))
    return frozenset(out)


def puzzle_to_json(puzzle) -> dict:
    genre = puzzle_genre(puzzle)
    doc = {"genre": genre, "width": puzzle.dims.width, "height": puzzle.dims.height}
    if genre in SOURCE_KINDS:
        doc["bars"] = _edges_json(CellLoop(puzzle.bars))  # the bar set, held as edges
    else:
        doc.update(GENRES[genre].to_json(puzzle))
    return doc


def puzzle_from_json(doc: dict):
    with malformed("puzzle document"):
        genre = doc["genre"]
        dims = GridDims(json_int(doc["width"]), json_int(doc["height"]))
        if genre in SOURCE_KINDS:
            puzzle = BslPuzzle(dims, _edges_from_json(doc.get("bars", [])))
            return CubicBslPuzzle(puzzle) if genre == "cubic-bsl" else puzzle
        if genre not in GENRES:
            raise FormatError(f"unknown genre {genre!r}")
        return GENRES[genre].from_json(dims, doc)


def _solution_key(genre) -> str:
    return "lattice_edges" if genre in GENRES and GENRES[genre].FRAME_OFFSET else "edges"


def solution_to_json(genre: str, sol: CellLoop) -> dict:
    return {"genre": genre, _solution_key(genre): _edges_json(sol)}


def solution_from_json(doc: dict) -> CellLoop:
    with malformed("solution document"):
        key = _solution_key(doc.get("genre"))
        if key not in doc:
            raise FormatError(f"solution document needs a {key} list")
        return CellLoop(_edges_from_json(doc[key]))


def manifest_to_json(manifest) -> dict:
    if isinstance(manifest, CubicReductionManifest):
        return {
            "kind": "cubic-manifest",
            "source": puzzle_to_json(manifest.source),
            "cells": [
                {
                    "col": c,
                    "row": r,
                    "transform": manifest.transforms[(c, r)].name,
                    "blocked": sorted(manifest.blocked[(c, r)]),
                }
                for (c, r) in manifest.source.dims.cells()
            ],
        }
    if isinstance(manifest, GenreReductionManifest):
        return {
            "kind": "genre-manifest",
            "genre": manifest.genre,
            "source": puzzle_to_json(manifest.source),
            "tile": [manifest.descriptor.tile.width, manifest.descriptor.tile.height],
            "degenerate": manifest.degenerate,
            "cells": [
                {
                    "col": c,
                    "row": r,
                    "transform": p.transform.name,
                    "exits": sorted(p.exits),
                    "free_edge": p.free_edge,
                }
                for (c, r), p in sorted(manifest.placements.items())
            ],
        }
    raise FormatError(f"unknown manifest object {type(manifest).__name__}")


WRITE_CHUNK = 1 << 20  # the most characters one write passes to a stream


def _canonical_pieces(doc: dict) -> list[str]:
    """``doc``'s canonical JSON and a newline as texts in order: the JSON
    between fields and each ``Canonical``'s own text.  Each ``Canonical``
    is first written as the JSON string ``"\\u0000"``, which its text then
    replaces; a document holding that string itself raises ValueError."""
    texts = []

    def splice(value):
        if not isinstance(value, Canonical):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        texts.append(value.text)
        return "\0"

    parts = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=splice).split('"\\u0000"')
    return list(chain.from_iterable(zip(parts, [*texts, "\n"], strict=True)))


def write_canonical(doc: dict, stream) -> None:
    """Write ``dumps_canonical(doc)`` to a text stream, no large text copied or encoded whole."""
    for piece in _canonical_pieces(doc):
        for start in range(0, len(piece), WRITE_CHUNK):
            stream.write(piece[start : start + WRITE_CHUNK])


def dumps_canonical(doc: dict) -> str:
    """``doc`` as canonical JSON and a newline."""
    return "".join(_canonical_pieces(doc))


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path} does not hold a JSON object")
    return doc
