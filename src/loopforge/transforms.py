"""Rigid transforms of rectangular tiles (the dihedral group on a w x h frame).

A transform is applied as an optional horizontal mirror (col -> w-1-col)
followed by a number of 90-degree clockwise rotations.  Names follow the
manifest vocabulary: ``r0 r90 r180 r270`` for pure rotations, ``fx`` and
``fy`` for the horizontal and vertical reflections, ``fx90``/``fx270`` for
the diagonal reflections.  ``fxy`` is accepted as an alias for the
composition of both reflections (a 180-degree rotation).
"""

from __future__ import annotations

from typing import NamedTuple

from .grid import OPPOSITE_SIDE, SIDES, Cell, Edge, edge_between, edge_cells

_NAMES = {
    (0, False): "r0",
    (1, False): "r90",
    (2, False): "r180",
    (3, False): "r270",
    (0, True): "fx",
    (1, True): "fx90",
    (2, True): "fy",
    (3, True): "fx270",
}
_BY_NAME = {name: key for key, name in _NAMES.items()}
_BY_NAME["fxy"] = (2, False)


class Transform(NamedTuple):
    """A placement: ``mirror`` then ``rot`` quarter turns clockwise.

    A tuple, so layouts keyed or grouped by transform hash and compare
    it at C level.
    """

    rot: int
    mirror: bool

    @property
    def name(self) -> str:
        return _NAMES[self]

    @staticmethod
    def named(name: str) -> "Transform":
        try:
            rot, mirror = _BY_NAME[name]
        except KeyError:
            raise ValueError(f"unknown transform name {name!r}") from None
        return Transform(rot, mirror)

    def apply_cell(self, w: int, h: int, cell: Cell) -> Cell:
        c, r = cell
        if self.mirror:
            c = w - 1 - c
        for _ in range(self.rot):
            c, r = h - 1 - r, c
            w, h = h, w
        return (c, r)

    def apply_side(self, side: str) -> str:
        if self.mirror and side in ("E", "W"):
            side = OPPOSITE_SIDE[side]
        # SIDES runs clockwise, so a quarter turn is one step along it.
        return SIDES[(SIDES.index(side) + self.rot) % 4]

    def apply_edge(self, w: int, h: int, edge: Edge) -> Edge:
        a, b = edge_cells(edge)
        return edge_between(self.apply_cell(w, h, a), self.apply_cell(w, h, b))

    def then(self, other: "Transform") -> "Transform":
        """Composition: self first, then other."""
        k1 = -self.rot if other.mirror else self.rot
        return Transform((other.rot + k1) % 4, self.mirror ^ other.mirror)

    def inverse(self) -> "Transform":
        if self.mirror:
            return self
        return Transform((-self.rot) % 4, False)


ROTATIONS = tuple(Transform(k, False) for k in range(4))
ALL_TRANSFORMS = tuple(Transform(k, m) for m in (False, True) for k in range(4))
