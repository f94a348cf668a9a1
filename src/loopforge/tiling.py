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
transforms.  ``crossing_edge`` takes a source edge between two tile
positions and returns the image edge the loop crosses it by.  Lifted
edges join nodes of the board's node grid, so every lifted solution is a
``CellLoop``: on the cells, or on the dot grid of a lattice board.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import ReductionError
from .grid import OPPOSITE_SIDE, Cell, CellLoop, Edge, edge_cells
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


def crossing_edge(
    tile,
    layout: dict[Cell, Transform],
    edge: Edge,
    placed: Optional[dict[Transform, dict[str, Cell]]] = None,
) -> Optional[Edge]:
    """Image edge through which the loop crosses the source edge ``edge``.

    None when a cell of ``edge`` has no tile or either tile lacks an exit
    on the shared boundary.  ``placed`` maps every transform of ``layout``
    to its ``placed_exits``; a caller crossing many edges passes it so
    each is computed once.
    """
    a, b = edge_cells(edge)
    if a not in layout or b not in layout:
        return None
    side = "E" if edge[0] == "h" else "S"
    if placed is None:
        mine, theirs = placed_exits(tile, layout[a]), placed_exits(tile, layout[b])
    else:
        mine, theirs = placed[layout[a]], placed[layout[b]]
    if side not in mine or OPPOSITE_SIDE[side] not in theirs:
        return None
    # The edge leaves the lesser tile through its east (south) exit.
    x, y = mine[side]
    fw, fh = tile.frame
    return (edge[0], fw * a[0] + x, fh * a[1] + y)


def lift_loop(tile, layout: dict[Cell, Transform], loop: CellLoop) -> set[Edge]:
    """Image edges of a source loop.

    Each tile gets the bank fragment for the local exit pair the loop uses
    at its cell, and each source transition adds its crossing edge.
    """
    # Transformed fragments at the origin, one per (transform, pair): at
    # most 8 x 6, however many tiles share them.
    oriented: dict[tuple[Transform, frozenset], set[Edge]] = {}
    fw, fh = tile.frame
    edges: set[Edge] = set()
    for cell, t in layout.items():
        inv = t.inverse()
        pair = frozenset(inv.apply_side(side) for side in loop.sides(cell))
        frag = oriented.get((t, pair))
        if frag is None:
            if pair not in tile.bank:
                raise ReductionError(f"no bank fragment for local exit pair {sorted(pair)} at cell {cell}")
            frag = oriented[(t, pair)] = place_fragment(tile, tile.bank[pair], t, (0, 0))
        ox, oy = fw * cell[0], fh * cell[1]
        edges.update((axis, c + ox, r + oy) for axis, c, r in frag)
    placed = {t: placed_exits(tile, t) for t in set(layout.values())}
    for axis, c, r in loop.transitions:
        cross = crossing_edge(tile, layout, (axis, c, r), placed)
        if cross is None:
            raise ReductionError(f"source transition ({axis},{c},{r}) has no facing exits")
        edges.add(cross)
    return edges
