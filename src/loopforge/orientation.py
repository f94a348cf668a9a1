"""Free-edge orientation for two-exit cells.

The bar graph's vertices are the cells plus one vertex outside each
exterior edge position, with one graph edge per bar (grid-boundary sides
count as bars to their exterior vertex).  It is read off the puzzle's
side masks (``sides_cache``): a cell's closed sides are its graph edges,
and no vertex or adjacency is built.  Cells with two exits then have
degree 2, cells with three exits and exterior vertices have degree 1, so
the graph is a disjoint union of paths and cycles.  Walking every
component in a consistent direction gives each degree-2 cell an outgoing
side; pointing the unused third opening of its tile that way guarantees
no two unused openings face each other across a bar.
"""

from __future__ import annotations

from itertools import compress

from .bsl import CubicBslPuzzle, open_sides
from .errors import ReductionError
from .grid import SIDES, Cell

# Per sides mask (bit k open for SIDES[k]): the closed sides, 1 for one
# closed side (degree 1), and 1 for fewer than two exits.
_CLOSED = bytes(~m & 15 for m in range(256))
_DEGREE_1 = bytes(bin(~m & 15).count("1") == 1 for m in range(256))
_FEW_EXITS = bytes(bin(m & 15).count("1") < 2 for m in range(256))
_SIDE = {1 << k: side for k, side in enumerate(SIDES)}
_BACK = {1: 4, 2: 8, 4: 1, 8: 2}


def orient(puzzle: CubicBslPuzzle) -> dict[Cell, str]:
    """Assign every degree-2 cell an outgoing side, one walk per component.

    Each path is walked away from its canonical-least endpoint: degree-1
    cells in row-major order first, then exterior vertices by (row, col,
    side).  Whatever is left is a cycle, walked from its least cell.
    """
    grid = puzzle.inner
    w, n = grid.dims.width, grid.dims.cell_count
    if grid.sides_cache is None:
        open_sides(grid)
    masks = grid.sides_cache
    few = masks.translate(_FEW_EXITS).find(1)
    if few >= 0:
        raise ReductionError(
            f"bar-graph vertex {('cell', few % w, few // w)} has degree {4 - bin(masks[few]).count('1')}; "
            "the puzzle has a cell with fewer than two exits"
        )
    closed = masks.translate(_CLOSED)
    step = {1: -w, 2: 1, 4: w, 8: -1}
    seen = bytearray(n)
    directions: dict[Cell, str] = {}

    def walk(i: int, out: int) -> None:
        # Leave id i by side ``out`` and follow the component until it
        # leaves the grid, meets a seen id or ends at a degree-1 cell.
        seen[i] = 1
        while True:
            j = i + step[out]
            if (out == 2 and j % w == 0) or (out == 8 and i % w == 0) or not 0 <= j < n or seen[j]:
                return
            seen[j] = 1
            out = closed[j] & ~_BACK[out]
            if not out:
                return
            directions[(j % w, j // w)] = _SIDE[out]
            i = j

    for i in compress(range(n), masks.translate(_DEGREE_1)):
        if not seen[i]:
            walk(i, closed[i])
    # An exterior vertex enters its border cell through a boundary side;
    # of one cell's, the first in SIDES order is the lowest bit.
    h = n // w
    for r in range(h):
        for c in range(w) if r in (0, h - 1) else (0, w - 1):
            if not seen[r * w + c]:
                outside = (r == 0) | (c == w - 1) << 1 | (r == h - 1) << 2 | (c == 0) << 3
                out = closed[r * w + c] & ~(outside & -outside)
                directions[(c, r)] = _SIDE[out]
                walk(r * w + c, out)
    # A cycle's least cell has its cycle neighbours east and south, and
    # east comes first in the canonical neighbour order N, W, E, S.
    for i in compress(range(n), closed):
        if not seen[i]:
            directions[(i % w, i // w)] = "E"
            walk(i, 2)
    return directions
