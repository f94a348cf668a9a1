"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain data (board
size, bars, planted loop) so the same seed yields the same inputs.  The
program under test only ever sees the puzzles built from this data.

Planted sources: a random spanning tree of the (W/2)x(H/2) coarse grid
is doubled into a Hamiltonian cycle of the WxH board (each coarse cell
is a 2x2 block, each tree edge merges two block cycles), then a seeded
share of the edges off that loop is barred.  The loop stays a solution,
so the board is sat.  Barring one loop edge as well gives a board whose
answer is unknown until a decider runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

Edge = tuple[str, int, int]


@dataclass(frozen=True)
class Source:
    """A barred board plus the loop planted in it (None when not known)."""

    width: int
    height: int
    bars: frozenset[Edge]
    loop: Optional[frozenset[Edge]]

    def to_json(self) -> str:
        """Canonical JSON of the input, independent of set ordering."""
        doc = {
            "width": self.width,
            "height": self.height,
            "bars": sorted(self.bars, key=_edge_key),
            "loop": None if self.loop is None else sorted(self.loop, key=_edge_key),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _edge_key(edge: Edge) -> tuple[int, int, str]:
    axis, c, r = edge
    return (r, c, axis)


def grid_edges(width: int, height: int) -> list[Edge]:
    """Every internal edge of a WxH board in row-major order."""
    out = []
    for r in range(height):
        for c in range(width):
            if c + 1 < width:
                out.append(("h", c, r))
            if r + 1 < height:
                out.append(("v", c, r))
    return out


def planted_loop(rng: random.Random, width: int, height: int) -> frozenset[Edge]:
    """Hamiltonian cycle of an even-by-even board from a random spanning tree."""
    if width % 2 or height % 2 or width < 2 or height < 2:
        raise ValueError(f"planted loops need even sides, got {width}x{height}")
    cw, ch = width // 2, height // 2
    # Kruskal over shuffled coarse edges gives a seeded random spanning tree.
    coarse = grid_edges(cw, ch)
    rng.shuffle(coarse)
    parent = list(range(cw * ch))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    loop: set[Edge] = set()
    for i in range(cw):
        for j in range(ch):
            x, y = 2 * i, 2 * j
            loop |= {("h", x, y), ("h", x, y + 1), ("v", x, y), ("v", x + 1, y)}
    for axis, i, j in coarse:
        a = j * cw + i
        b = a + 1 if axis == "h" else a + cw
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        x, y = 2 * i, 2 * j
        if axis == "h":
            # Open the facing sides of the two blocks and join them.
            loop -= {("v", x + 1, y), ("v", x + 2, y)}
            loop |= {("h", x + 1, y), ("h", x + 1, y + 1)}
        else:
            loop -= {("h", x, y + 1), ("h", x, y + 2)}
            loop |= {("v", x, y + 1), ("v", x + 1, y + 1)}
    return frozenset(loop)


def planted_source(
    rng: random.Random, width: int, height: int, bar_share: float, bar_loop_edge: bool = False
) -> Source:
    """Planted loop plus bars on a seeded share of the off-loop edges.

    With ``bar_loop_edge`` one loop edge is barred too, and the planted
    loop is no longer known to be a solution (``loop`` is None).
    """
    loop = planted_loop(rng, width, height)
    off = [e for e in grid_edges(width, height) if e not in loop]
    bars = set(rng.sample(off, round(bar_share * len(off))))
    if bar_loop_edge:
        bars.add(rng.choice(sorted(loop, key=_edge_key)))
        return Source(width, height, frozenset(bars), None)
    return Source(width, height, frozenset(bars), loop)


def barless_source(width: int, height: int) -> Source:
    return Source(width, height, frozenset(), None)


# Small cubic sources: every board with at most 8 cells and both sides
# at least 2 is 2xk or kx2.  Its only Hamiltonian cycle is the perimeter
# and no cell has four neighbours, so it is cubic whatever is barred.
# Barring rungs (off-perimeter edges) keeps it sat.  Barring a perimeter
# edge between two non-corner cells (2x4 and 4x2 only), with the rungs at
# its ends open, makes it unsat with every cell still at two or more
# neighbours.  Barring both edges at a corner leaves a cell with one
# neighbour (degenerate).
SMALL_KINDS = {
    "sat": ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)),
    "unsat": ((2, 4), (4, 2)),
    "degenerate": ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)),
}


def small_cubic_source(rng: random.Random, width: int, height: int, kind: str) -> Source:
    """A 2xk or kx2 board of the given kind with seeded rung bars."""
    if (width, height) not in SMALL_KINDS[kind]:
        raise ValueError(f"no {kind} small cubic source of size {width}x{height}")
    loop = frozenset(
        e for e in grid_edges(width, height)
        if not (e[0] == "h" and 0 < e[2] < height - 1) and not (e[0] == "v" and 0 < e[1] < width - 1)
    )
    rungs = [e for e in grid_edges(width, height) if e not in loop]
    bars = {e for e in rungs if rng.random() < 0.5}
    if kind == "sat":
        return Source(width, height, frozenset(bars), loop)
    corners = {(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)}
    on = sorted(loop, key=_edge_key)
    if kind == "unsat":
        edge = rng.choice([e for e in on if not corners & set(_ends(e))])
        # Its end cells keep their rungs, or they would be left with one neighbour.
        bars = {e for e in bars if not set(_ends(e)) & set(_ends(edge))} | {edge}
    else:
        corner = rng.choice(sorted(corners))
        bars |= {e for e in on if corner in _ends(e)}
    return Source(width, height, frozenset(bars), None)


def _ends(edge: Edge) -> tuple[tuple[int, int], tuple[int, int]]:
    axis, c, r = edge
    return ((c, r), (c + 1, r)) if axis == "h" else ((c, r), (c, r + 1))
