"""Parsers and renderers for the interleaved ASCII tile formats.

A bar grid interleaves cells and edges: cells sit at (odd col, odd row)
positions of a (2W+1) x (2H+1) grid, horizontal edges between cells at
(even col, odd row) and vertical edges at (odd col, even row); it marks
bars with ``#``.  Its border ring carries the boundary-edge marks (``#``
for a permanent bar, an exit letter for a blockable opening).  A fragment
grid drops that ring: the nodes of a W x H grid sit at (even, even)
positions of a (2W-1) x (2H-1) grid, and ``-`` and ``|`` mark loop
transitions.  Its nodes are cells, or the dots of a lattice tile.
"""

from __future__ import annotations

from .errors import FormatError
from .grid import SIDES, Cell, Edge


def strip_comments(text: str) -> list[str]:
    """Drop blank lines and ``;`` comment lines (``#`` is a data character)."""
    return [line.rstrip("\n") for line in text.splitlines() if line and not line.startswith(";")]


def parse_bar_grid(lines: list[str], width: int, height: int) -> tuple[frozenset[Edge], dict[str, Cell]]:
    """Read internal bars and border exit marks from a bar grid.

    Returns (bars, exits) where exits maps a side letter to the border
    cell that owns the opening on that side.
    """
    rows, cols = 2 * height + 1, 2 * width + 1
    if len(lines) != rows:
        raise FormatError(f"expected {rows} art rows, found {len(lines)}")
    for i, line in enumerate(lines):
        if len(line) != cols:
            raise FormatError(f"art row {i} has {len(line)} characters, expected {cols}")

    bars: set[Edge] = set()
    exits: dict[str, Cell] = {}

    def border(ch: str, side: str, cell: Cell) -> None:
        if ch == "#":
            return
        if ch in SIDES:
            if ch != side:
                raise FormatError(f"exit letter {ch} on the {side} border at {cell}")
            if side in exits:
                raise FormatError(f"duplicate {side} exit")
            exits[side] = cell
        else:
            raise FormatError(f"unexpected border character {ch!r} at {cell} side {side}")

    for c in range(width):
        border(lines[0][2 * c + 1], "N", (c, 0))
        border(lines[2 * height][2 * c + 1], "S", (c, height - 1))
    for r in range(height):
        border(lines[2 * r + 1][0], "W", (0, r))
        border(lines[2 * r + 1][2 * width], "E", (width - 1, r))

    for r in range(height):
        for c in range(width - 1):
            ch = lines[2 * r + 1][2 * c + 2]
            if ch == "#":
                bars.add(("h", c, r))
            elif ch != ".":
                raise FormatError(f"bad horizontal edge character {ch!r} at ({c},{r})")
    for r in range(height - 1):
        for c in range(width):
            ch = lines[2 * r + 2][2 * c + 1]
            if ch == "#":
                bars.add(("v", c, r))
            elif ch != ".":
                raise FormatError(f"bad vertical edge character {ch!r} at ({c},{r})")
    return frozenset(bars), exits


def parse_fragment_grid(lines: list[str], width: int, height: int) -> frozenset[Edge]:
    """Read loop transitions on a width x height node grid.

    Nodes (cells, or the dots of a lattice tile) sit at even/even
    positions, ``-`` joins two nodes of a row and ``|`` two of a column.
    """
    rows = 2 * height - 1
    if len(lines) != rows:
        raise FormatError(f"expected {rows} fragment rows, found {len(lines)}")
    edges: set[Edge] = set()
    for r in range(height):
        line = lines[2 * r].ljust(2 * width - 1)
        for c in range(width - 1):
            ch = line[2 * c + 1]
            if ch == "-":
                edges.add(("h", c, r))
            elif ch not in " .":
                raise FormatError(f"bad fragment character {ch!r}")
    for r in range(height - 1):
        line = lines[2 * r + 1].ljust(2 * width - 1)
        for c in range(width):
            ch = line[2 * c]
            if ch == "|":
                edges.add(("v", c, r))
            elif ch not in " .":
                raise FormatError(f"bad fragment character {ch!r}")
    return frozenset(edges)
