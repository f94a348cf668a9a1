"""One tile per source cell: fragment placement, crossings and loop lifting.

Both reductions replace every source cell with a transformed copy of one
tile and let the loop cross between neighbouring tiles at their facing
exits: the 5x7 block of the cubic stage and the genre gadgets.  A tile is
any object with

* ``frame``: the (w, h) node grid its edges and exits live in, which
  transforms act on.  Its nodes are cells, except for a lattice
  (Slitherlink) tile, whose frame is measured in dots: a W x H tile has a
  (W+1) x (H+1) frame.  Tiles abut in frame coordinates, so it is also
  the (dx, dy) offset between neighbouring tile positions;
* ``placed_exits(t)``: side -> frame position of every exit under the
  placement transform ``t``;
* ``bank``: frozenset of two tile-local exit sides -> the edges of a
  tile sub-solution joining those exits.

A layout maps tile positions, which are the source cells, to placement
transforms.  Lifted edges join nodes of the board's node grid, so every
lifted solution is a ``CellLoop``: on the cells, or on the dot grid of a
lattice board.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import ReductionError
from .grid import OPPOSITE_SIDE, SIDE_DELTAS, Cell, CellLoop, Edge
from .transforms import Transform


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
    tile_pos: Cell,
    side: str,
    placed: Optional[dict[Transform, dict[str, Cell]]] = None,
) -> Optional[Edge]:
    """Image edge through which the loop crosses from ``tile_pos`` toward ``side``.

    None when there is no neighbour there or either tile lacks an exit on
    the shared boundary.  ``placed`` maps every transform of ``layout`` to
    its ``tile.placed_exits``; a caller crossing many boundaries passes it
    so each is computed once.
    """
    dc, dr = SIDE_DELTAS[side]
    nbr = (tile_pos[0] + dc, tile_pos[1] + dr)
    if nbr not in layout:
        return None
    exits = tile.placed_exits if placed is None else placed.__getitem__
    mine = exits(layout[tile_pos])
    theirs = exits(layout[nbr])
    if side not in mine or OPPOSITE_SIDE[side] not in theirs:
        return None
    # The edge leaves the west (north) tile through its east (south) exit.
    if side in ("E", "S"):
        (i, j), (x, y) = tile_pos, mine[side]
    else:
        (i, j), (x, y) = nbr, theirs[OPPOSITE_SIDE[side]]
    fw, fh = tile.frame
    return ("h" if side in ("E", "W") else "v", fw * i + x, fh * j + y)


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
    placed = {t: tile.placed_exits(t) for t in set(layout.values())}
    for axis, c, r in loop.transitions:
        cross = crossing_edge(tile, layout, (c, r), "E" if axis == "h" else "S", placed)
        if cross is None:
            raise ReductionError(f"source transition ({axis},{c},{r}) has no facing exits")
        edges.add(cross)
    return edges
