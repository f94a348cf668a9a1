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

A cell's sides are held as a side mask, ``N, E, S, W = 1, 2, 4, 8`` in
``SIDES`` order, defined here only, with each bit's letter, opposite and
flat-id step (:func:`side_steps`); ``OPPOSITE_SIDE``, :func:`side_edge`
and :func:`grid_sides` are derived from it.

A loop (:class:`CellLoop`) is its set of internal edges, held either as
those edge tuples or flat: as the ``east``/``south`` byte arrays of
:class:`LoopIds` on its node grid, with no tuple per edge.  The lift and
the solvers write flat loops; JSON input, projection and tests build
loops from edges, and :func:`loop_ids` is the one checked conversion from
edges to bytes.  On the flat form canonical order is scan order, so a
flat loop lists its edges by a row scan, with nothing to sort.  Every
loop check ends in :func:`flat_ids`, which orients the loop in bulk by
the even-odd rule and then walks it two moves per look-up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Optional, Union

from .errors import BoundsError

Cell = tuple[int, int]
Edge = tuple[str, int, int]

# The one side table: bit k of a side mask is SIDES[k].
SIDES = ("N", "E", "S", "W")
N, E, S, W = 1, 2, 4, 8
ALL_SIDES = N | E | S | W
SIDE_BIT = dict(zip(SIDES, (N, E, S, W)))
BIT_SIDE = {bit: side for side, bit in SIDE_BIT.items()}
OPPOSITE_BIT = {N: S, E: W, S: N, W: E}
MASK_SIDES = tuple(frozenset(side for side, bit in SIDE_BIT.items() if mask & bit) for mask in range(16))
SIDE_DELTAS = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}
OPPOSITE_SIDE = {side: BIT_SIDE[OPPOSITE_BIT[bit]] for side, bit in SIDE_BIT.items()}

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


def side_steps(width: int) -> dict[int, int]:
    """Side bit -> the flat-id step (``r * width + c``) to the neighbour on that side."""
    return {SIDE_BIT[side]: dc + dr * width for side, (dc, dr) in SIDE_DELTAS.items()}


def side_edge(cell: Cell, side: str) -> Edge:
    """The internal edge through one side of a cell (it may lie off the grid):
    "h" across E and W, "v" across N and S, named by its lesser cell."""
    (c, r), (dc, dr) = cell, SIDE_DELTAS[side]
    return ("h" if dc else "v", c + min(dc, 0), r + min(dr, 0))


def edge_in_bounds(dims: GridDims, edge: Edge) -> bool:
    """Whether ``edge`` is an internal edge of the grid."""
    axis, c, r = edge
    if axis == "h":
        return 0 <= c < dims.width - 1 and 0 <= r < dims.height
    if axis == "v":
        return 0 <= c < dims.width and 0 <= r < dims.height - 1
    return False


def grid_sides(dims: GridDims) -> bytearray:
    """Each cell's side mask on a grid with no bars: every side that leads to
    a cell of the grid, one byte per cell in row-major order."""
    w, h = dims.width, dims.height
    row = bytes([E, *[E | W] * (w - 2), W]) if w > 1 else b"\0"
    top, middle, bottom = (bytes(m | v for m in row) for v in (S, N | S, N))
    return bytearray(top + middle * (h - 2) + bottom if h > 1 else row)


def checkerboard_color(cell: Cell) -> str:
    """Checkerboard colour with the top-left cell black."""
    return "black" if (cell[0] + cell[1]) % 2 == 0 else "white"


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

# Maps a degree byte to 1 when it is neither 0 nor 2, and to half of 0 or 2.
_BAD_DEGREE = bytes(0 if d in (0, 2) else 1 for d in range(256))
_HALF = bytes(d // 2 if d in (0, 2) else 0 for d in range(256))


@functools.lru_cache(maxsize=8)
def _moves(width: int) -> tuple[int, ...]:
    """A :func:`flat_ids` code byte (one side bit per nibble) -> its two moves."""
    step = side_steps(width)
    return tuple(step.get(code & ALL_SIDES, 0) + step.get(code >> 4, 0) for code in range(256))


def loop_ids(
    width: int, height: int, edges: frozenset[Edge], words: tuple[str, str, str] = CELL_LOOP_WORDS
) -> Union[LoopIds, Violation]:
    """Check that ``edges`` form one closed loop on a width x height grid.

    Returns the loop on flat ids, or the first violation in the order
    empty, bounds, degree, components.  A bounds violation names the
    smallest offending edge, a degree violation the smallest offending
    cell.  ``words`` phrases the first three for grids whose nodes are not
    cells.  This is the one conversion of an edge set to byte arrays: it
    fills them, then checks them with :func:`flat_ids`.
    """
    empty, outside, _ = words
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
    return flat_ids(width, height, east, south, words)


def flat_ids(
    width: int, height: int, east: bytearray, south: bytearray, words: tuple[str, str, str] = CELL_LOOP_WORDS
) -> Union[LoopIds, Violation]:
    """:func:`loop_ids`'s check, with the same violations in the same
    order, of a loop held as 0/1 byte arrays laid out as in
    :class:`LoopIds`.  The arrays are read in place, not copied.

    The bounds check is that no ``east`` byte is set in the last column
    or the spare byte, and no ``south`` byte in the last row or the spare
    row; a violation names the smallest such edge.

    Then the loop is oriented by the even-odd rule, so that every id on
    it has one way out, and walked two moves per look-up: a code byte
    holds an id's way out in its low nibble and the next id's in its high
    nibble.  A grid graph is bipartite, so every cycle is even and the
    walk lands on its start again after one lap of its component.
    """
    empty, outside, bad_degree = words
    n = width * height
    count = east.count(1) + south.count(1)
    if count + east.count(0) + south.count(0) != len(east) + len(south):
        raise ValueError("a flat loop holds only 0 and 1 bytes")
    if not count:
        return Violation("empty", empty)
    if east[n] or any(east[width - 1 : n : width]) or any(south[n - width :]):
        dims, edges = GridDims(width, height), CellLoop.flat(width, height, east, south).scan()
        return Violation("bounds", outside, edge=next(e for e in edges if not edge_in_bounds(dims, e)))

    # Id i's degree is east[i] + east[i - 1] + south[i] + south[i - width],
    # with no carry.  The last column and row hold no edges, so it fits in
    # n bytes.  The degrees sum to 2 * count, so they are all 0 or 2
    # exactly when count of them are 2.
    e = int.from_bytes(east, "little")
    s = int.from_bytes(south, "little")
    degrees = (e + (e << 8) + s + (s << 8 * width)).to_bytes(n, "little")
    if degrees.count(2) != count:
        cell = least_cell(width, degrees.translate(_BAD_DEGREE))
        return Violation("degree", bad_degree.format(degrees[cell[1] * width + cell[0]]), cell=cell)
    loop = LoopIds(width, east, south, degrees.translate(_HALF))
    del degrees

    # Face i, below and right of id i, is inside when its column holds an
    # odd number of "h" edges above it: a prefix XOR down the columns,
    # doubling its reach each round.  Whole-row shifts never mix columns.
    full, odd, rows = (1 << 8 * n) - 1, e, 1
    while rows < height:
        odd ^= (odd << 8 * width * rows) & full
        rows *= 2
    # With the inside on its left, an "h" edge at i leaves i east over an
    # outside face i, else i + 1 west; a "v" edge leaves i south beside an
    # inside face i, else i + width north.  ``go_*`` holds 1 at the ids
    # leaving that way, and ``low`` that side's bit; spent ints are dropped.
    go_w, go_s = e & odd, s & odd
    del full, odd
    go_e, go_n, go_w = e ^ go_w, (s ^ go_s) << 8 * width, go_w << 8
    del e, s
    low = go_n * N + go_e * E + go_s * S + go_w * W
    ahead = low >> 8 & go_e * ALL_SIDES
    ahead |= low << 8 & go_w * ALL_SIDES
    ahead |= low >> 8 * width & go_s * ALL_SIDES
    ahead |= low << 8 * width & go_n * ALL_SIDES
    codes = (low | ahead << 4).to_bytes(n, "little")

    move = _moves(width)
    start = cur = loop.visited.index(1)
    for steps in range(1, count // 2 + 1):
        cur += move[codes[cur]]
        if cur == start:
            break
    if 2 * steps != count:
        return Violation("components", "loop has more than one component", cell=least_cell(width, loop.visited))
    return loop


def validate_loop(dims: GridDims, loop: CellLoop, must_visit: Optional[bytes] = None) -> Optional[Violation]:
    """Check degree-2-everywhere-visited, single cycle, and optional exact cover.

    Returns None when the loop is valid, otherwise the first violation
    found.  ``must_visit`` is a 0/1 byte mask, one byte per cell in flat
    id order (``r * width + c``), of the cells the loop must visit and no
    others; None skips the coverage comparison.
    """
    ids = loop.ids(dims.width, dims.height)
    if isinstance(ids, Violation):
        return ids
    return None if must_visit is None else ids.cover(must_visit)


def edge_rows(width: int, east: bytearray, south: bytearray) -> Iterator[tuple[int, bytearray]]:
    """(r, row r of LoopIds-style arrays, spare bytes too, interleaved): byte
    2c is east[c] and 2c + 1 south[c], so its set bytes are its edges in order."""
    both = bytearray(2 * len(south))
    both[0 : 2 * len(east) : 2] = east
    both[1::2] = south
    step = 2 * width
    for r in range(len(south) // width):
        yield r, both[r * step : (r + 1) * step]


class CellLoop:
    """A single closed tour over cell centres: a set of internal edges.

    ``transitions`` is the edge set, and equality and hashing are those of
    the edge set, whichever form the loop is held in:

    * built from edges, ``CellLoop(edges)``: JSON input, projection and tests;
    * flat, ``CellLoop.flat(width, height, east, south)``: the lift and the
      solvers.  It holds only 0/1 byte arrays laid out as in :class:`LoopIds`
      on a width x height node grid (``size``).  ``transitions`` and ``scan``
      read the arrays afresh on every call and keep nothing, so a byte
      changed in place shows in the next read and the next check.

    ``ids`` gives the checked loop on a node grid; for a flat loop on its
    own grid it reads the arrays in place.
    """

    __slots__ = ("_edges", "size", "east", "south")

    def __init__(self, transitions: frozenset[Edge]) -> None:
        if not {edge[0] for edge in transitions} <= {"h", "v"}:
            edge = min(edge for edge in transitions if edge[0] not in ("h", "v"))
            raise ValueError(f"loop transition {edge} is not an internal edge")
        self._edges: Optional[frozenset[Edge]] = transitions
        self.size: Optional[tuple[int, int]] = None
        self.east: Optional[bytearray] = None
        self.south: Optional[bytearray] = None

    @classmethod
    def flat(cls, width: int, height: int, east: bytearray, south: bytearray) -> "CellLoop":
        """A loop held as the arrays of a width x height node grid, not copied."""
        n = width * height
        if len(east) != n + 1 or len(south) != n + width:
            raise ValueError(f"flat loop arrays must hold {n + 1} and {n + width} bytes for a {width}x{height} grid")
        loop = cls.__new__(cls)
        loop._edges = None
        loop.size = (width, height)
        loop.east, loop.south = east, south
        return loop

    @property
    def transitions(self) -> frozenset[Edge]:
        if self._edges is not None:
            return self._edges
        return frozenset(self.scan())

    def scan(self) -> list[Edge]:
        """The edges in canonical order (``edge_sort_key``), a flat loop's set spare bytes too."""
        if self._edges is not None:
            return sorted(self._edges, key=edge_sort_key)
        columns, out = range(2 * self.size[0]), []
        for r, row in edge_rows(self.size[0], self.east, self.south):
            out += [("hv"[k & 1], k >> 1, r) for k in compress(columns, row)]
        return out

    def ids(self, width: int, height: int, words: tuple[str, str, str] = CELL_LOOP_WORDS) -> Union[LoopIds, Violation]:
        """The loop on the flat ids of a width x height grid, or its first
        violation, as :func:`loop_ids` gives them.  Every check runs on
        every call."""
        if self.size == (width, height):
            return flat_ids(width, height, self.east, self.south, words)
        return loop_ids(width, height, self.transitions, words)

    def __contains__(self, edge: Edge) -> bool:
        if self._edges is not None:
            return edge in self._edges
        axis, c, r = edge
        width = self.size[0]
        data = self.east if axis == "h" else self.south if axis == "v" else b""
        i = r * width + c
        return 0 <= c < width and 0 <= i < len(data) and data[i] == 1

    def sides(self, cell: Cell) -> list[str]:
        """Sides through which the loop leaves a cell, in ``SIDES`` order."""
        return [side for side in SIDES if side_edge(cell, side) in self]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellLoop):
            return NotImplemented
        if self.size is not None and self.size == other.size:
            return self.east == other.east and self.south == other.south
        return self.transitions == other.transitions

    def __hash__(self) -> int:
        return hash(self.transitions)

    def __repr__(self) -> str:
        return f"CellLoop(transitions={self.transitions!r})"
