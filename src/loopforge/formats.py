"""JSON interchange for puzzles, solutions, manifests and run reports.

One shared envelope for every puzzle kind: ``{"genre": ..., "width": ...,
"height": ..., ...genre fields}``.  Solutions are sorted edge lists.
Serialisation is canonical: sorted keys, sorted edges, no whitespace
variation, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
from typing import Union

from .bsl import BslPuzzle, CubicBslPuzzle
from .errors import FormatError, GenreMismatchError, malformed
from .genres.masyu import MasyuPuzzle
from .genres.simple_loop import SimpleLoopPuzzle
from .genres.slitherlink import SlitherlinkPuzzle
from .genres.yajilin import YajilinPuzzle
from .grid import CellLoop, Edge, GridDims, edge_sort_key
from .metacell import CubicReductionManifest
from .reduction import GenreReductionManifest

Puzzle = Union[
    BslPuzzle, CubicBslPuzzle, SlitherlinkPuzzle, MasyuPuzzle, YajilinPuzzle, SimpleLoopPuzzle
]


PUZZLE_GENRES = {
    BslPuzzle: "bsl",
    CubicBslPuzzle: "cubic-bsl",
    SlitherlinkPuzzle: "slitherlink",
    MasyuPuzzle: "masyu",
    YajilinPuzzle: "yajilin",
    SimpleLoopPuzzle: "simple-loop",
}


def puzzle_genre(puzzle: Puzzle) -> str:
    if type(puzzle) not in PUZZLE_GENRES:
        raise FormatError(f"unknown puzzle object {type(puzzle).__name__}")
    return PUZZLE_GENRES[type(puzzle)]


def _edges_json(edges) -> list[dict]:
    """Edges in canonical order, which they must already be in."""
    return [{"axis": axis, "col": c, "row": r} for axis, c, r in edges]


def _edges_from_json(items) -> frozenset[Edge]:
    out = set()
    for item in items:
        axis = item["axis"]
        if axis not in ("h", "v"):
            raise FormatError(f"bad edge axis {axis!r}")
        out.add((axis, int(item["col"]), int(item["row"])))
    return frozenset(out)


def puzzle_to_json(puzzle: Puzzle) -> dict:
    genre = puzzle_genre(puzzle)
    if genre in ("bsl", "cubic-bsl"):
        inner = puzzle.inner if genre == "cubic-bsl" else puzzle
        return {
            "genre": genre,
            "width": inner.dims.width,
            "height": inner.dims.height,
            "bars": _edges_json(sorted(inner.bars, key=edge_sort_key)),
        }
    base = {"genre": genre, "width": puzzle.dims.width, "height": puzzle.dims.height}
    if genre == "slitherlink":
        base["clues"] = [
            {"col": c, "row": r, "count": n} for (c, r), n in sorted(puzzle.clues)
        ]
    elif genre == "masyu":
        base["pearls"] = [
            {"col": c, "row": r, "color": colour} for (c, r), colour in sorted(puzzle.pearls)
        ]
    elif genre == "yajilin":
        clue_at = {cell: (n, d) for cell, n, d in puzzle.clues}
        base["grey"] = [
            {
                "col": c,
                "row": r,
                "count": clue_at.get((c, r), (None, None))[0],
                "dir": clue_at.get((c, r), (None, None))[1],
            }
            for (c, r) in sorted(puzzle.grey)
        ]
    elif genre == "simple-loop":
        base["shaded"] = [{"col": c, "row": r} for (c, r) in sorted(puzzle.shaded)]
    return base


def puzzle_from_json(doc: dict) -> Puzzle:
    with malformed("puzzle document"):
        genre = doc["genre"]
        dims = GridDims(int(doc["width"]), int(doc["height"]))
        if genre == "bsl" or genre == "cubic-bsl":
            puzzle = BslPuzzle(dims, _edges_from_json(doc.get("bars", [])))
            return CubicBslPuzzle(puzzle) if genre == "cubic-bsl" else puzzle
        if genre == "slitherlink":
            clues = tuple(
                ((int(i["col"]), int(i["row"])), int(i["count"])) for i in doc.get("clues", [])
            )
            return SlitherlinkPuzzle(dims, tuple(sorted(clues)))
        if genre == "masyu":
            pearls = tuple(
                ((int(i["col"]), int(i["row"])), i["color"]) for i in doc.get("pearls", [])
            )
            return MasyuPuzzle(dims, tuple(sorted(pearls)))
        if genre == "yajilin":
            grey = set()
            clues = []
            for i in doc.get("grey", []):
                cell = (int(i["col"]), int(i["row"]))
                grey.add(cell)
                if i.get("count") is not None:
                    clues.append((cell, int(i["count"]), i.get("dir")))
            return YajilinPuzzle(dims, frozenset(grey), tuple(sorted(clues)))
        if genre == "simple-loop":
            shaded = frozenset((int(i["col"]), int(i["row"])) for i in doc.get("shaded", []))
            return SimpleLoopPuzzle(dims, shaded)
        raise FormatError(f"unknown genre {genre!r}")


def solution_to_json(genre: str, sol: CellLoop) -> dict:
    # A Slitherlink loop runs on the dot grid, and its key says so.
    key = "lattice_edges" if genre == "slitherlink" else "edges"
    # A flat loop lists its edges by a row scan, already in canonical order.
    return {"genre": genre, key: _edges_json(sol.scan())}


def solution_from_json(doc: dict) -> CellLoop:
    key = "lattice_edges" if doc.get("genre") == "slitherlink" else "edges"
    if key not in doc:
        raise FormatError(f"solution document needs a {key} list")
    with malformed("solution document"):
        return CellLoop(_edges_from_json(doc[key]))


def ensure_solution_matches(puzzle_genre_id: str, doc: dict) -> None:
    sol_genre = doc.get("genre")
    if sol_genre != puzzle_genre_id:
        raise GenreMismatchError(
            f"solution genre {sol_genre!r} does not match puzzle genre {puzzle_genre_id!r}"
        )


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


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path} does not hold a JSON object")
    return doc
