"""Shared plumbing for the loop solvers."""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain, compress, filterfalse, repeat
from operator import getitem
from typing import Callable, Iterable, Iterator, Optional

from ..errors import SearchTimeout
from ..grid import E, S, Cell, CellLoop, GridDims, Violation, grid_sides, least_cell
from ..search import LoopSearch

# The genre solvers run the cut check at every CUT_CHECK_EVERY-th
# decision.  At 1 the check costs more time than the branches it prunes
# save.  The degenerate two-tile Masyu image is refuted in 6-8 decisions
# at 1, 2, 3, 4, 6 or 8, but takes thousands at 5, 7, 12 or 16.
CUT_CHECK_EVERY = 4


@dataclass(frozen=True, slots=True)
class SolveResult:
    status: str  # "sat" | "unsat" | "timeout"
    solution: Optional[object] = None


def build_cell_graph(dims: GridDims, closed: bytes = b"", sides: bytes = b"") -> list[tuple[int, int]]:
    """The graph's edges as flat node pairs ``(a, b)``: ``a = r * width + c``
    and ``b`` the cell east (``a + 1``) or south (``a + width``) of it, in
    canonical order, by ``a`` and east first.  ``closed`` is one byte per
    cell (a board's art bytes): a nonzero byte shuts its cell.  ``sides`` is
    one ``grid`` side mask per cell, as ``BslPuzzle.sides`` holds them; by
    default every side inside the grid is open."""
    w = dims.width
    shut = closed or bytes(dims.cell_count)
    pairs = []
    for a, m in enumerate(sides or grid_sides(dims)):
        if not shut[a]:
            if m & E and not shut[a + 1]:
                pairs.append((a, a + 1))
            if m & S and not shut[a + w]:
                pairs.append((a, a + w))
    return pairs


def side_table(width: int, n_nodes: int, pairs: list[tuple[int, int]]) -> list[dict[str, int]]:
    """Each node's edge ids by side letter, for the flat ``pairs`` of a
    ``width``-wide grid: an edge with ``b - a == width`` is S of a and N of
    b, any other E of a and W of b.  The step alone would not tell: on a
    1-wide grid E and S both step by 1."""
    table: list[dict[str, int]] = [{} for _ in range(n_nodes)]
    for i, (a, b) in enumerate(pairs):
        ahead, back = ("S", "N") if b - a == width else ("E", "W")
        table[a][ahead] = table[b][back] = i
    return table


def grid_faces(dims: GridDims, pairs: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The two face ids of each flat pair in ``pairs``, and of each grid edge not in it.

    On the node grid ``dims``, face ``1 + x + y * (width - 1)`` is the
    unit square between nodes (x, y) and (x + 1, y + 1); face 0 is the
    outer face.  The edge east of node (c, r) separates squares (c, r - 1)
    and (c, r), the edge south of it squares (c - 1, r) and (c, r).
    """
    w, h = dims.width, dims.height
    # Square (x, y) is above[(y + 1) * s + x + 1], padded with the outer face
    # all round; the faces below an edge and left of it are the same table
    # shifted.  Node a = r * w + c sits at k = r * s + c + 1 = a + r + 1.
    s = w + 1
    above = [0] * s
    for y in range(h - 1):
        above += (0, *range(1 + y * (w - 1), 1 + (y + 1) * (w - 1)), 0)
    above += above[:s]
    below, left = above[s:], above[s - 1 :]

    def faces(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        return [((left if b - a == w else above)[k], below[k]) for a, b in pairs for k in (a + a // w + 1,)]

    present = set(pairs)
    return faces(pairs), faces(filterfalse(present.__contains__, build_cell_graph(dims)))


@dataclass(frozen=True, slots=True, init=False)
class ArtBoard:
    """A genre board as one row-major byte grid ``cells`` on ``dims``: 0 for
    an empty cell, otherwise its art character.  A genre's type is built
    from entries, ``Puzzle(dims, entries)``, or from the grid,
    ``Puzzle.grid(dims, cells)``, as ``from_art`` does; equality and
    hashing are the fields'.  Entry views are read off the grid, in
    canonical (col, row) order, on every access."""

    dims: GridDims
    cells: bytes

    def __init__(self, dims: GridDims, cells: bytes, *more) -> None:
        if len(cells) != dims.cell_count:
            raise ValueError(f"a {dims.width}x{dims.height} board needs {dims.cell_count} cells, got {len(cells)}")
        for field, value in zip(fields(self), (dims, bytes(cells), *more)):
            object.__setattr__(self, field.name, value)

    @classmethod
    def grid(cls, dims: GridDims, cells: bytes, *more):
        board = object.__new__(cls)
        ArtBoard.__init__(board, dims, cells, *more)
        return board

    def scan(self) -> Iterator[tuple[int, int, int]]:
        """(col, row, art byte) of every nonempty cell, by a column scan."""
        w, rows = self.dims.width, list(range(self.dims.height))
        columns = [self.cells[c::w] for c in range(w)]
        found = [list(compress(rows, column)) for column in columns]
        cols = chain.from_iterable(repeat(c, len(at)) for c, at in enumerate(found))
        return zip(cols, chain.from_iterable(found), b"".join(columns).translate(None, b"\0"))

    def entry_list(self, middles: dict[int, str], own: Optional[dict[Cell, str]] = None) -> Canonical:
        """The nonempty cells as a JSON list in (col, row) order, each
        ``{"col":C,``, then ``middles[b]`` (art byte b) or ``own[cell]``,
        then ``"row":R}``.  That tail is built once per art byte and row and
        per cell of ``own``; a column is one join of the tails it picks."""
        w, rows = self.dims.width, range(self.dims.height)
        table = {b: ['%s"row":%d}' % (middle, r) for r in rows] for b, middle in middles.items()}
        codes = self.cells
        if own:
            codes = list(codes)
            for code, ((c, r), middle) in enumerate(own.items(), 256):
                codes[r * w + c] = code
                table[code] = {r: '%s"row":%d}' % (middle, r)}
        parts = []
        for c in range(w):
            column = codes[c::w]
            head = '{"col":%d,' % c
            picked = map(getitem, map(table.__getitem__, compress(column, column)), compress(rows, column))
            text = ("," + head).join(picked)
            if text:
                parts += (",", head, text)
        return Canonical("".join(["[", *parts[1:], "]"]))


@dataclass(frozen=True, slots=True)
class Canonical:
    """Canonical JSON text of one value, which ``formats.dumps_canonical``
    splices into a document as it stands.  It is no ``str``, so a plain
    ``json.dumps`` refuses it rather than quote it."""

    text: str


def art_mask(cells: bytes, chars: bytes) -> bytes:
    """One byte per cell: 1 where the cell holds a byte of ``chars``, else 0."""
    return cells.translate(bytes(b in chars for b in range(256)))


def entry_grid(dims: GridDims, entries, values: tuple, art: bytes, bad_value: str, noun: str) -> bytearray:
    """The grid of (cell, value) entries, ``values[k]`` written as ``art[k]``.
    The first bad entry is named: a cell off the grid, a value not in
    ``values`` (``bad_value`` formats the text) or a cell given twice."""
    w, h = dims.width, dims.height
    grid = bytearray(w * h)
    for cell, value in entries:
        c, r = cell
        if not (0 <= c < w and 0 <= r < h):
            dims.require(cell)
        if value not in values:
            raise ValueError(bad_value.format(cell=cell, value=value))
        if grid[r * w + c]:
            raise ValueError(f"duplicate {noun} at {cell}")
        grid[r * w + c] = art[values.index(value)]
    return grid


def check_art(dims: GridDims, cells: bytes, alphabet: bytes) -> None:
    """Raise a ValueError naming the first byte of tile art outside
    ``alphabet`` in (col, row) order, and its cell."""
    if cells.translate(None, b"\0" + alphabet):
        c, r = least_cell(dims.width, cells.translate(bytes(b != 0 and b not in alphabet for b in range(256))))
        raise ValueError(f"bad tile character {chr(cells[r * dims.width + c])!r} at {(c, r)}")


def run_search(
    search: LoopSearch,
    dims: GridDims,
    verify: Callable[[CellLoop], Optional[Violation]],
    enumerate_all: bool = False,
):
    """Solve with ``search`` over its flat pairs (``search.edges``) on the
    node grid ``dims``, keeping only the candidates ``verify`` passes.
    Candidates and solutions are ``CellLoop.flat`` on ``dims``: an edge is
    south of ``a`` when ``b - a == width``, else east of it.

    Returns a generator of every solution with ``enumerate_all``, and
    otherwise a SolveResult for the first one.  When the search's budget
    runs out, the first-solution path returns status "timeout", while the
    generator raises ``SearchTimeout`` from the ``next()`` call that finds
    the budget spent; solutions it yielded before stay valid.
    """
    w, h = dims.width, dims.height
    pairs = search.edges

    def solution(ids: frozenset[int]) -> CellLoop:
        east, south = bytearray(w * h + 1), bytearray(w * h + w)
        for i in ids:
            a, b = pairs[i]
            (south if b - a == w else east)[a] = 1
        return CellLoop.flat(w, h, east, south)

    solutions = (loop for loop in map(solution, search.solutions()) if verify(loop) is None)
    if enumerate_all:
        return solutions
    try:
        found = next(solutions, None)
    except SearchTimeout:
        return SolveResult("timeout")
    return SolveResult("unsat") if found is None else SolveResult("sat", found)
