"""Shared grid geometry: cells, edges, loops and checkerboard utilities.

Coordinates are (col, row) with (0, 0) the top-left cell and rows growing
downward.  Edges come in two kinds:

* internal edges join orthogonally adjacent cells and are written
  ``("h", c, r)`` for the edge between (c, r) and (c+1, r), or
  ``("v", c, r)`` for the edge between (c, r) and (c, r+1);
* boundary edges attach a border cell to the exterior and are written
  ``(side, c, r)`` with ``side`` one of ``"N" "E" "S" "W"``.

Every module that needs a deterministic ordering of edges sorts them with
:func:`edge_sort_key`, which realises the canonical (kind, row, col, axis)
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .errors import BoundsError

Cell = tuple[int, int]
Edge = tuple[str, int, int]

SIDES = ("N", "E", "S", "W")
SIDE_DELTAS = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}
OPPOSITE_SIDE = {"N": "S", "S": "N", "E": "W", "W": "E"}

# Practical ceiling so width * height stays well inside native integer
# arithmetic everywhere (profiles, bitmasks, file formats).
MAX_CELLS = 2**31 - 1

_AXIS_RANK = {"h": 0, "v": 1, "N": 0, "E": 1, "S": 2, "W": 3}


@dataclass(frozen=True, slots=True)
class GridDims:
    """Rectangular board size in cells."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.width * self.height > MAX_CELLS:
            raise ValueError(f"grid {self.width}x{self.height} exceeds supported cell count")

    @property
    def cell_count(self) -> int:
        return self.width * self.height

    def contains(self, cell: Cell) -> bool:
        c, r = cell
        return 0 <= c < self.width and 0 <= r < self.height

    def require(self, cell: Cell) -> None:
        if not self.contains(cell):
            raise BoundsError(f"cell {cell} outside {self.width}x{self.height} grid")

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for r in range(self.height):
            for c in range(self.width):
                yield (c, r)


def edge_sort_key(edge: Edge) -> tuple[int, int, int, int]:
    """Canonical total order on edges: (kind, row, col, axis/side)."""
    axis, c, r = edge
    kind = 0 if axis in ("h", "v") else 1
    return (kind, r, c, _AXIS_RANK[axis])


def is_internal(edge: Edge) -> bool:
    return edge[0] in ("h", "v")


def edge_cells(edge: Edge) -> tuple[Cell, Cell]:
    """Both endpoints of an internal edge (lesser cell first)."""
    axis, c, r = edge
    if axis == "h":
        return (c, r), (c + 1, r)
    if axis == "v":
        return (c, r), (c, r + 1)
    raise ValueError(f"{edge} is not an internal edge")


def edge_between(a: Cell, b: Cell) -> Edge:
    """The internal edge joining two orthogonally adjacent cells."""
    (ca, ra), (cb, rb) = a, b
    if ca == cb and abs(ra - rb) == 1:
        return ("v", ca, min(ra, rb))
    if ra == rb and abs(ca - cb) == 1:
        return ("h", min(ca, cb), ra)
    raise ValueError(f"cells {a} and {b} are not adjacent")


def side_edge(cell: Cell, side: str) -> Edge:
    """The internal edge through one side of a cell (it may lie off the grid)."""
    c, r = cell
    if side == "E":
        return ("h", c, r)
    if side == "W":
        return ("h", c - 1, r)
    if side == "S":
        return ("v", c, r)
    return ("v", c, r - 1)


def edge_in_bounds(dims: GridDims, edge: Edge) -> bool:
    """Whether ``edge`` is an internal edge of the grid."""
    axis, c, r = edge
    if axis == "h":
        return 0 <= c < dims.width - 1 and 0 <= r < dims.height
    if axis == "v":
        return 0 <= c < dims.width and 0 <= r < dims.height - 1
    return False


def internal_edges(dims: GridDims) -> list[Edge]:
    """All internal edges in canonical order."""
    edges: list[Edge] = []
    for r in range(dims.height):
        for c in range(dims.width):
            if c + 1 < dims.width:
                edges.append(("h", c, r))
            if r + 1 < dims.height:
                edges.append(("v", c, r))
    edges.sort(key=edge_sort_key)
    return edges


def checkerboard_color(cell: Cell) -> str:
    """Checkerboard colour with the top-left cell black."""
    return "black" if (cell[0] + cell[1]) % 2 == 0 else "white"


@dataclass(frozen=True, slots=True)
class CellLoop:
    """A single closed tour over cell centres, stored as its edge set."""

    transitions: frozenset[Edge]

    def __post_init__(self) -> None:
        if not {edge[0] for edge in self.transitions} <= {"h", "v"}:
            edge = min(edge for edge in self.transitions if not is_internal(edge))
            raise ValueError(f"loop transition {edge} is not an internal edge")

    def sides(self, cell: Cell) -> list[str]:
        """Sides through which the loop leaves a cell, in ``SIDES`` order."""
        return [side for side in SIDES if side_edge(cell, side) in self.transitions]


@dataclass(frozen=True, slots=True)
class Violation:
    """First failed property of a structural or rule check."""

    code: str
    message: str
    cell: Optional[Cell] = None
    edge: Optional[Edge] = None

    def __str__(self) -> str:
        where = ""
        if self.cell is not None:
            where = f" at cell {self.cell}"
        elif self.edge is not None:
            where = f" at edge {self.edge}"
        return f"{self.code}: {self.message}{where}"


def least_cell(width: int, mask: bytes) -> Cell:
    """The smallest flat id whose byte in ``mask`` is nonzero, as a cell in
    (col, row) order.  ``mask`` must have a nonzero byte."""
    for c in range(width):
        column = mask[c::width]
        row = len(column) - len(column.lstrip(b"\0"))
        if row < len(column):
            return (c, row)
    raise ValueError("mask has no nonzero byte")


@dataclass(frozen=True, slots=True)
class LoopIds:
    """A single closed loop on flat cell ids ``i = r * width + c``.

    ``east``, ``south`` and ``visited`` are byte arrays holding 1 or 0 per
    id: whether the loop crosses id i's east side (an "h" edge), its south
    side (a "v" edge), and whether id i is on the loop.  ``visited`` has
    one byte per id.  ``east`` has one spare zero byte at the end and
    ``south`` one spare zero row, so a look-up up to two steps off the
    grid reads 0 without a bounds test:

    * ``east[i - 1]`` and ``east[i - 2]`` wrap into the spare byte or the
      last column, which no "h" edge leaves;
    * ``south[i - width]`` and ``south[i - 2 * width]`` wrap into the
      spare row or the last row, which no "v" edge leaves;
    * ``east[i + 1]`` and ``south[i + width]`` reach at most the spare
      byte and the spare row.
    """

    width: int
    east: bytearray
    south: bytearray
    visited: bytes

    def cover(self, required: bytes) -> Optional[Violation]:
        """Compare ``visited`` with a 0/1 mask of the ids the loop must visit."""
        if self.visited == required:
            return None
        n = len(self.visited)
        must = int.from_bytes(required, "little")
        seen = int.from_bytes(self.visited, "little")
        missing = must & ~seen
        if missing:
            cell = least_cell(self.width, missing.to_bytes(n, "little"))
            return Violation("unvisited", "required cell not visited", cell=cell)
        cell = least_cell(self.width, (seen & ~must).to_bytes(n, "little"))
        return Violation("forbidden", "cell visited but not allowed", cell=cell)


# Wording of the empty, bounds and degree violations, for loops on cells.
CELL_LOOP_WORDS = ("loop has no transitions", "transition outside grid", "cell has degree {}, expected 2")

# Maps a degree byte to 1 when it is neither 0 nor 2.
_BAD_DEGREE = bytes(0 if d in (0, 2) else 1 for d in range(256))


def loop_ids(
    width: int, height: int, edges: frozenset[Edge], words: tuple[str, str, str] = CELL_LOOP_WORDS
) -> Union[LoopIds, Violation]:
    """Check that ``edges`` form one closed loop on a width x height grid.

    Returns the loop on flat ids, or the first violation in the order
    empty, bounds, degree, components.  A bounds violation names the
    smallest offending edge, a degree violation the smallest offending
    cell.  ``words`` phrases the first three for grids whose nodes are not
    cells.
    """
    empty, outside, bad_degree = words
    if not edges:
        return Violation("empty", empty)
    n = width * height
    w1, h1 = width - 1, height - 1
    east = bytearray(n + 1)
    south = bytearray(n + width)
    for axis, c, r in edges:
        if axis == "h" and 0 <= c < w1 and 0 <= r < height:
            east[r * width + c] = 1
        elif axis == "v" and 0 <= c < width and 0 <= r < h1:
            south[r * width + c] = 1
        else:
            dims = GridDims(width, height)
            off = [edge for edge in edges if not edge_in_bounds(dims, edge)]
            return Violation("bounds", outside, edge=min(off, key=edge_sort_key))

    # The degree of id i is east[i] + east[i - 1] + south[i] + south[i - width].
    # As little-endian integers the shifted terms line up byte by byte, and
    # no byte exceeds 4, so one sum adds all four without a carry.  The
    # last column and last row hold no edges, so the sum fits in n bytes.
    e = int.from_bytes(east, "little")
    s = int.from_bytes(south, "little")
    degree = e + (e << 8) + s + (s << (8 * width))
    degrees = degree.to_bytes(n, "little")
    # The degrees sum to 2 * len(edges), so they are all 0 or 2 exactly
    # when len(edges) of them are 2.
    if degrees.count(2) != len(edges):
        cell = least_cell(width, degrees.translate(_BAD_DEGREE))
        return Violation("degree", bad_degree.format(degrees[cell[1] * width + cell[0]]), cell=cell)
    # Every byte is 0 or 2, so halving the sum halves each byte.
    loop = LoopIds(width, east, south, (degree >> 1).to_bytes(n, "little"))

    # Every id has degree 2, so the walk leaves each one by the side it
    # did not come in through and closes after one lap of its component.
    start = prev = cur = degrees.index(2)
    steps = 0
    while True:
        if east[cur] and cur + 1 != prev:
            prev, cur = cur, cur + 1
        elif east[cur - 1] and cur - 1 != prev:
            prev, cur = cur, cur - 1
        elif south[cur] and cur + width != prev:
            prev, cur = cur, cur + width
        else:
            prev, cur = cur, cur - width
        steps += 1
        if cur == start:
            break
    if steps != len(edges):
        return Violation("components", "loop has more than one component", cell=least_cell(width, loop.visited))
    return loop


def validate_loop(dims: GridDims, loop: CellLoop, must_visit: Optional[Iterable[Cell]] = None) -> Optional[Violation]:
    """Check degree-2-everywhere-visited, single cycle, and optional exact cover.

    Returns None when the loop is valid, otherwise the first violation
    found.  ``must_visit`` of None skips the coverage comparison; its
    cells must lie on the grid.
    """
    ids = loop_ids(dims.width, dims.height, loop.transitions)
    if isinstance(ids, Violation):
        return ids
    if must_visit is None:
        return None
    required = bytearray(dims.cell_count)
    for c, r in must_visit:
        required[r * dims.width + c] = 1
    return ids.cover(required)
