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

from collections import Counter
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


def boundary_edge(cell: Cell, side: str) -> Edge:
    return (side, cell[0], cell[1])


def edge_in_bounds(dims: GridDims, edge: Edge) -> bool:
    axis, c, r = edge
    if axis == "h":
        return 0 <= c < dims.width - 1 and 0 <= r < dims.height
    if axis == "v":
        return 0 <= c < dims.width and 0 <= r < dims.height - 1
    if axis in SIDE_DELTAS:
        if not dims.contains((c, r)):
            return False
        dc, dr = SIDE_DELTAS[axis]
        return not dims.contains((c + dc, r + dr))
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


def boundary_edges(dims: GridDims) -> list[Edge]:
    """All boundary edges (one per exterior side of a border cell)."""
    edges: list[Edge] = []
    for c, r in dims.cells():
        for side, (dc, dr) in SIDE_DELTAS.items():
            if not dims.contains((c + dc, r + dr)):
                edges.append((side, c, r))
    edges.sort(key=edge_sort_key)
    return edges


def cell_edges(dims: GridDims, cell: Cell) -> list[Edge]:
    """Internal edges incident to a cell, in canonical order."""
    c, r = cell
    dims.require(cell)
    edges = []
    if c > 0:
        edges.append(("h", c - 1, r))
    if c + 1 < dims.width:
        edges.append(("h", c, r))
    if r > 0:
        edges.append(("v", c, r - 1))
    if r + 1 < dims.height:
        edges.append(("v", c, r))
    edges.sort(key=edge_sort_key)
    return edges


def neighbors(dims: GridDims, cell: Cell) -> list[tuple[Cell, Edge]]:
    """Orthogonal in-grid neighbours with connecting edges, canonically ordered."""
    c, r = cell
    dims.require(cell)
    out = []
    for edge in cell_edges(dims, cell):
        a, b = edge_cells(edge)
        out.append((b if a == cell else a, edge))
    return out


def checkerboard_color(cell: Cell) -> str:
    """Checkerboard colour with the top-left cell black."""
    return "black" if (cell[0] + cell[1]) % 2 == 0 else "white"


@dataclass(frozen=True, slots=True)
class CellLoop:
    """A single closed tour over cell centres, stored as its edge set."""

    transitions: frozenset[Edge]

    def __post_init__(self) -> None:
        for edge in self.transitions:
            if not is_internal(edge):
                raise ValueError(f"loop transition {edge} is not an internal edge")

    def visited_cells(self) -> set[Cell]:
        cells: set[Cell] = set()
        for edge in self.transitions:
            cells.update(edge_cells(edge))
        return cells

    def sides(self, cell: Cell) -> list[str]:
        """Sides through which the loop leaves a cell, in ``SIDES`` order."""
        return [side for side in SIDES if side_edge(cell, side) in self.transitions]


@dataclass(frozen=True, slots=True)
class CellPathFragmentSet:
    """Open loop fragments inside a tile: transitions plus boundary stubs.

    A stub is a boundary edge treated as an open end; every involved cell
    has degree at most two counting stubs.
    """

    transitions: frozenset[Edge]
    stubs: frozenset[Edge]

    def degree_map(self) -> dict[Cell, int]:
        deg: dict[Cell, int] = {}
        for edge in self.transitions:
            for cell in edge_cells(edge):
                deg[cell] = deg.get(cell, 0) + 1
        for axis, c, r in self.stubs:
            deg[(c, r)] = deg.get((c, r), 0) + 1
        return deg


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


@dataclass(frozen=True, slots=True)
class LoopIds:
    """A single closed loop on flat cell ids ``r * width + c``.

    ``east`` holds the ids whose east side the loop crosses (its "h"
    edges), ``south`` those whose south side it crosses ("v" edges), and
    ``visited`` every id on the loop.
    """

    width: int
    east: set[int]
    south: set[int]
    visited: set[int]

    def least(self, ids: Iterable[int]) -> Cell:
        """The smallest of ``ids`` as a cell, in (col, row) order."""
        return min((i % self.width, i // self.width) for i in ids)


# Wording of the empty, bounds and degree violations, for loops on cells.
CELL_LOOP_WORDS = ("loop has no transitions", "transition outside grid", "cell has degree {}, expected 2")


def loop_ids(
    width: int, height: int, edges: frozenset[Edge], words: tuple[str, str, str] = CELL_LOOP_WORDS
) -> Union[LoopIds, Violation]:
    """Check that ``edges`` form one closed loop on a width x height grid.

    Returns the loop on flat ids, or the first violation in the order
    empty, bounds, degree, walk/components.  A bounds violation names the
    smallest offending edge, a degree violation the smallest offending
    cell.  ``words`` phrases the first three for grids whose nodes are not
    cells.
    """
    empty, outside, bad_degree = words
    if not edges:
        return Violation("empty", empty)
    w1, h1 = width - 1, height - 1
    east = [r * width + c for axis, c, r in edges if axis == "h" and 0 <= c < w1 and 0 <= r < height]
    south = [r * width + c for axis, c, r in edges if axis == "v" and 0 <= c < width and 0 <= r < h1]
    if len(east) + len(south) != len(edges):
        inside = {("h", i % width, i // width) for i in east} | {("v", i % width, i // width) for i in south}
        return Violation("bounds", outside, edge=min(edges - inside, key=edge_sort_key))

    degree = Counter(east)
    degree.update(south)
    degree.update([i + 1 for i in east])
    degree.update([i + width for i in south])
    loop = LoopIds(width, set(east), set(south), set(degree))
    if len(degree) != len(edges) or max(degree.values()) != 2:
        cell = loop.least(i for i, d in degree.items() if d != 2)
        return Violation("degree", bad_degree.format(degree[cell[1] * width + cell[0]]), cell=cell)

    # Every id has degree 2, so the walk leaves each one by the side it
    # did not come in through and must close after one lap of the loop.
    east, south = loop.east, loop.south
    start = prev = cur = next(iter(degree))
    for steps in range(1, len(edges) + 1):
        if cur in east and cur + 1 != prev:
            prev, cur = cur, cur + 1
        elif cur - 1 in east and cur - 1 != prev:
            prev, cur = cur, cur - 1
        elif cur in south and cur + width != prev:
            prev, cur = cur, cur + width
        else:
            prev, cur = cur, cur - width
        if cur == start:
            break
    else:
        return Violation("walk", "cycle walk failed to close", cell=loop.least([cur]))
    if steps != len(edges):
        return Violation("components", "loop has more than one component", cell=loop.least(degree))
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
    required = {r * dims.width + c for c, r in must_visit}
    missing = required - ids.visited
    if missing:
        return Violation("unvisited", "required cell not visited", cell=ids.least(missing))
    extra = ids.visited - required
    if extra:
        return Violation("forbidden", "cell visited but not allowed", cell=ids.least(extra))
    return None
