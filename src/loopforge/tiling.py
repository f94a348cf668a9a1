"""One tile per source cell: exits, fragment placement, crossings and loop lifting.

Both reductions replace every source cell with a transformed copy of one
tile and let the loop cross between neighbouring tiles at their facing
exits: the 5x7 block of the cubic stage and the genre gadgets.  A tile is
any object with

* ``frame``: the (w, h) node grid its edges and exits live in, which
  transforms act on.  Its nodes are cells, except for a lattice
  (Slitherlink) tile, whose frame is measured in dots: a W x H tile has a
  (W+1) x (H+1) frame.  Tiles abut in frame coordinates, so it is also
  the (dx, dy) offset between neighbouring tile positions;
* ``exits``: side -> the frame cell on that side of the tile where the
  loop may leave it;
* ``bank``: frozenset of two tile-local exit sides -> the edges of a
  tile sub-solution joining those exits.

A layout maps tile positions, which are the source cells, to placement
transforms.  ``crossings`` is the one crossing rule of both stages: built
once per layout, it maps each source edge between facing exits to the
image edge the loop crosses it by.  Lifting, the cubic stage's reopened
bars and projection, and certification's allowed crossings all read it.

Lifted edges join nodes of the board's node grid, so every lifted
solution is a ``CellLoop``: on the cells, or on the dot grid of a lattice
board.  The lift writes it flat, as the ``east``/``south`` byte arrays of
that grid, a row at a time: each fragment is oriented once per value
into rows of bytes (``fragment_rows``), and each image row is one join
of its tiles' rows.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Iterable

from .errors import ReductionError
from .grid import MASK_SIDES, OPPOSITE_SIDE, Cell, CellLoop, E, Edge, N, S, W, edge_cells
from .transforms import Transform


def placed_exits(tile, t: Transform) -> dict[str, Cell]:
    """Side -> frame cell of every exit of ``tile`` placed by ``t``."""
    w, h = tile.frame
    return {t.apply_side(side): t.apply_cell(w, h, cell) for side, cell in tile.exits.items()}


def misaligned(tile, t1: Transform, t2: Transform) -> list[str]:
    """The sides, of "E" and "S", through which a tile placed by ``t1``
    has an exit that misses the facing exit of a tile placed by ``t2``
    beyond that side: on another row for "E", another column for "S"."""
    e1, e2 = placed_exits(tile, t1), placed_exits(tile, t2)
    return [
        side
        for side, k in (("E", 1), ("S", 0))
        if side in e1 and OPPOSITE_SIDE[side] in e2 and e1[side][k] != e2[OPPOSITE_SIDE[side]][k]
    ]


def boundary_positions(tile, tiles_w: int, tiles_h: int) -> set[Edge]:
    """Every edge of the board's node grid that straddles a tile boundary."""
    fw, fh = tile.frame
    w, h = fw * tiles_w, fh * tiles_h
    out = {("h", c, r) for c in range(fw - 1, w - 1, fw) for r in range(h)}
    return out | {("v", c, r) for c in range(w) for r in range(fh - 1, h - 1, fh)}


def place_fragment(tile, frag: Iterable[Edge], t: Transform, tile_pos: Cell) -> set[Edge]:
    """Tile-local edges transformed by ``t`` and moved to ``tile_pos``."""
    w, h = tile.frame
    ox, oy = w * tile_pos[0], h * tile_pos[1]
    placed = set()
    for edge in frag:
        axis, c, r = t.apply_edge(w, h, edge)
        placed.add((axis, c + ox, r + oy))
    return placed


def crossings(tile, layout: dict[Cell, Transform]) -> dict[Edge, Edge]:
    """Source edge -> the image edge through which the loop crosses it.

    There is one entry for each edge between two tiles of ``layout`` whose
    exits face each other across it; the loop leaves the lesser tile
    through its east (south) exit.  Each transform's exits are placed once,
    as its east and south exit cells (or None) and whether it has a west
    and a north exit; None, for no tile, has none.
    """
    fw, fh = tile.frame
    placed = {t: placed_exits(tile, t) for t in set(layout.values())}
    table = {t: (p.get("E"), p.get("S"), "W" in p, "N" in p) for t, p in placed.items()}
    table[None] = (None, None, False, False)
    out: dict[Edge, Edge] = {}
    for (c, r), t in layout.items():
        east, south, _, _ = table[t]
        if east and table[layout.get((c + 1, r))][2]:
            out[("h", c, r)] = ("h", fw * c + east[0], fh * r + east[1])
        if south and table[layout.get((c, r + 1))][3]:
            out[("v", c, r)] = ("v", fw * c + south[0], fh * r + south[1])
    return out


@functools.lru_cache(maxsize=512)
def fragment_rows(frame: tuple[int, int], frag: frozenset[Edge], t: Transform) -> tuple[tuple[bytes, ...], ...]:
    """Tile-local edges moved through ``t``: the fh east rows and the fh
    south rows, of fw bytes each, of the fw x fh frame.  Kept by value, not
    by tile, so a descriptor copied with another bank finds its own."""
    fw, fh = frame
    grids = bytearray(fw * fh), bytearray(fw * fh)
    for edge in frag:
        axis, x, y = t.apply_edge(fw, fh, edge)
        if not (0 <= x < fw and 0 <= y < fh):
            raise ReductionError(f"fragment edge {edge} leaves the {fw}x{fh} frame under {t.name}")
        grids[axis == "v"][y * fw + x] = 1
    return tuple(tuple(bytes(grid[y * fw : (y + 1) * fw]) for y in range(fh)) for grid in grids)


def lift_loop(tile, layout: dict[Cell, Transform], loop: CellLoop) -> CellLoop:
    """The image of a source loop, flat on the node grid its tiles span.

    Each tile gets the bank fragment for the local exit pair the loop uses
    at its cell (blank rows where no tile is), and each source transition
    adds its crossing edge.  A tile with no fragment for its pair raises
    first, in layout order; then the least transition (``edge_sort_key``)
    without facing exits.
    """
    fw, fh = tile.frame
    cols, rows = zip(*layout)
    if min(cols) < 0 or min(rows) < 0:
        raise ReductionError("tile positions must not be negative")
    tiles_w, tiles_h = max(cols) + 1, max(rows) + 1
    cross = crossings(tile, layout)
    # The sides the loop leaves each cell by, as a side mask: E and W for
    # an "h" edge, S and N for a "v" edge.
    used: dict[Cell, int] = {}
    crossed, uncrossed = [], None
    for edge in loop.scan():
        a, b = edge_cells(edge)
        vertical = edge[0] == "v"
        used[a] = used.get(a, 0) | (S if vertical else E)
        used[b] = used.get(b, 0) | (N if vertical else W)
        image = cross.get(edge)
        if image is None:
            uncrossed = uncrossed or edge
        else:
            crossed.append(image)
    # Each tile's fragment rows, looked up once per transform and sides used.
    blank = ((bytes(fw),) * fh,) * 2
    tiles = [[blank] * tiles_w for _ in range(tiles_h)]
    oriented: dict[tuple[Transform, int], tuple[tuple[bytes, ...], ...]] = {}
    for (c, r), t in layout.items():
        mask = used.get((c, r), 0)
        frag = oriented.get((t, mask))
        if frag is None:
            pair = frozenset(map(t.inverse().apply_side, MASK_SIDES[mask]))
            if pair not in tile.bank:
                raise ReductionError(f"no bank fragment for local exit pair {sorted(pair)} at cell {(c, r)}")
            frag = oriented[(t, mask)] = fragment_rows(tile.frame, tile.bank[pair], t)
        tiles[r][c] = frag
    if uncrossed is not None:
        raise ReductionError("source transition ({},{},{}) has no facing exits".format(*uncrossed))
    # Image row y of a band is row y of each of its tiles in turn; ``east``
    # ends in a spare byte and ``south`` in a spare row, as ``LoopIds`` has.
    width, east, south = fw * tiles_w, bytearray(), bytearray()
    for band in tiles:
        east += b"".join(chain.from_iterable(zip(*[frag[0] for frag in band])))
        south += b"".join(chain.from_iterable(zip(*[frag[1] for frag in band])))
    east.append(0)
    south += bytes(width)
    for axis, x, y in crossed:
        (south if axis == "v" else east)[y * width + x] = 1
    return CellLoop.flat(width, fh * tiles_h, east, south)
