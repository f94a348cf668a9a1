"""Free-edge orientation for two-exit cells.

The bar graph's vertices are the cells plus one vertex outside each
exterior edge position, with one graph edge per bar (grid-boundary sides
count as bars to their exterior vertex).  It is read off the puzzle's
side masks (``BslPuzzle.sides``, in ``grid``'s bits): a cell's closed
sides are its graph edges, and no vertex or adjacency is built.  Cells
with two exits then have degree 2, cells with three exits and exterior
vertices have degree 1, so the graph is a disjoint union of paths and
cycles.  Walking every component in a consistent direction gives each
degree-2 cell an outgoing side; pointing the unused third opening of its
tile that way guarantees no two unused openings face each other across a
bar.
"""

from __future__ import annotations

from itertools import compress

from .bsl import CubicBslPuzzle, degenerate_cells
from .errors import ReductionError
from .grid import ALL_SIDES, BIT_SIDE, OPPOSITE_BIT, Cell, E, N, S, W, side_steps

# Per side mask: the closed sides, and 1 for one closed side (degree 1).
_CLOSED = bytes(~m & ALL_SIDES for m in range(256))
_DEGREE_1 = bytes(bin(~m & ALL_SIDES).count("1") == 1 for m in range(256))


def orient(puzzle: CubicBslPuzzle) -> dict[Cell, str]:
    """Assign every degree-2 cell an outgoing side, one walk per component.

    Each path is walked away from its canonical-least endpoint: degree-1
    cells in row-major order first, then exterior vertices by (row, col,
    side).  Whatever is left is a cycle, walked from its least cell.
    """
    grid = puzzle.inner
    w, n, masks = grid.dims.width, grid.dims.cell_count, grid.sides
    few = degenerate_cells(grid)
    if few:
        c, r = few[0]
        raise ReductionError(
            f"bar-graph vertex {('cell', c, r)} has degree {4 - bin(masks[r * w + c]).count('1')}; "
            "the puzzle has a cell with fewer than two exits"
        )
    closed = masks.translate(_CLOSED)
    step = side_steps(w)
    seen = bytearray(n)
    directions: dict[Cell, str] = {}

    def walk(i: int, out: int) -> None:
        # Leave id i by side ``out`` and follow the component until it
        # leaves the grid, meets a seen id or ends at a degree-1 cell.
        seen[i] = 1
        while True:
            j = i + step[out]
            if (out == E and j % w == 0) or (out == W and i % w == 0) or not 0 <= j < n or seen[j]:
                return
            seen[j] = 1
            out = closed[j] & ~OPPOSITE_BIT[out]
            if not out:
                return
            directions[(j % w, j // w)] = BIT_SIDE[out]
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
                outside = N * (r == 0) | E * (c == w - 1) | S * (r == h - 1) | W * (c == 0)
                out = closed[r * w + c] & ~(outside & -outside)
                directions[(c, r)] = BIT_SIDE[out]
                walk(r * w + c, out)
    # A cycle's least cell has its cycle neighbours east and south, and
    # east comes first in the canonical neighbour order N, W, E, S.
    for i in compress(range(n), closed):
        if not seen[i]:
            directions[(i % w, i // w)] = BIT_SIDE[E]
            walk(i, E)
    return directions
