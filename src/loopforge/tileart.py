"""The one reader of tile files: the gadget descriptors and the block template.

A tile file is ``;`` comment lines, ``key: value`` header lines, then
``[name]`` sections.  The ``exits`` header names each exit by its side
and its column (N, S) or row (W, E) on the tile's frame.  Every section
but a gadget's ``[tile]`` art is a fragment grid: the nodes of a W x H
grid sit at (even, even) positions of a (2W-1) x (2H-1) grid, and ``-``
and ``|`` mark the edges it holds, which are loop transitions, or bars
in the block template.  Its nodes are cells, or the dots of a lattice
tile.
"""

from __future__ import annotations

from .errors import FormatError
from .grid import SIDES, Cell, Edge


def strip_comments(text: str) -> list[str]:
    """Drop blank lines and ``;`` comment lines (``#`` is a data character)."""
    return [line.rstrip("\n") for line in text.splitlines() if line and not line.startswith(";")]


def read_tile_file(text: str, header_keys: tuple[str, ...]) -> tuple[dict[str, str], dict[str, list[str]]]:
    """The header fields and the sections, name -> lines, of a tile file,
    in file order.  A header key outside ``header_keys`` or a section
    given twice raises."""
    headers: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    body = None
    for line in strip_comments(text):
        if line.startswith("["):
            name = line.strip("[]")
            if name in sections:
                raise FormatError(f"section [{name}] is given twice")
            body = sections[name] = []
        elif body is not None:
            body.append(line)
        elif ":" not in line:
            raise FormatError(f"bad header line {line!r}")
        else:
            key, _, value = line.partition(":")
            key = key.strip()
            if key not in header_keys:
                raise FormatError(f"unknown descriptor header {key!r}")
            headers[key] = value.strip()
    return headers, sections


def parse_exits(spec: str, frame: tuple[int, int]) -> dict[str, Cell]:
    """Side -> frame cell of each exit of an ``exits`` header such as
    ``W 4, E 4``; a side given twice or an offset off the frame raises."""
    w, h = frame
    exits: dict[str, Cell] = {}
    for part in spec.split(","):
        side, off = part.split()
        offset = int(off)
        if side in exits:
            raise FormatError(f"exit side {side} is given twice")
        if side not in SIDES:
            raise FormatError(f"unknown exit side {side!r}")
        if not 0 <= offset < (h if side in ("W", "E") else w):
            raise FormatError(f"exit {side} {offset} lies outside the {w}x{h} frame")
        exits[side] = {"W": (0, offset), "E": (w - 1, offset), "N": (offset, 0), "S": (offset, h - 1)}[side]
    return exits


def parse_fragment_grid(lines: list[str], width: int, height: int) -> frozenset[Edge]:
    """Read the edges of a fragment grid on a width x height node grid.

    Nodes (cells, or the dots of a lattice tile) sit at even/even
    positions, ``-`` joins two nodes of a row and ``|`` two of a column.
    """
    rows = 2 * height - 1
    if len(lines) != rows:
        raise FormatError(f"expected {rows} fragment rows, found {len(lines)}")
    edges: set[Edge] = set()
    # Each axis: its mark, and where its edges sit: node rows (odd columns)
    # for "h", the rows between (even columns) for "v".
    for axis, mark, dr, dc in (("h", "-", 0, 1), ("v", "|", 1, 0)):
        for r in range(height - dr):
            line = lines[2 * r + dr].ljust(2 * width - 1)
            for c in range(width - dc):
                ch = line[2 * c + dc]
                if ch == mark:
                    edges.add((axis, c, r))
                elif ch not in " .":
                    raise FormatError(f"bad fragment character {ch!r}")
    return frozenset(edges)
