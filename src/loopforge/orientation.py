"""Free-edge orientation for two-exit cells.

Build a graph whose vertices are the cells plus one vertex outside each
exterior edge position, with one graph edge per bar (grid-boundary sides
count as bars to their exterior vertex).  Each vertex's adjacency entries
pair a neighbour with the side the vertex leaves by toward it.  Cells
with two exits then have degree 2, cells with three exits and exterior
vertices have degree 1, so the graph is a disjoint union of paths and
cycles.  Walking every component in a consistent direction gives each
degree-2 cell an outgoing side; pointing the unused third opening of its
tile that way guarantees no two unused openings face each other across a
bar.
"""

from __future__ import annotations

from .bsl import CubicBslPuzzle, open_sides
from .errors import ReductionError
from .grid import OPPOSITE_SIDE, SIDE_DELTAS, SIDES, Cell

# Graph vertices: ("cell", col, row) or ("ext", side, col, row).
Vertex = tuple
# Each vertex's neighbours, with the side it leaves by toward each.
Adjacency = dict[Vertex, list[tuple[Vertex, str]]]


def build_bar_graph(puzzle: CubicBslPuzzle) -> Adjacency:
    """Adjacency over cells and exterior vertices, one graph edge per bar."""
    dims = puzzle.dims
    adjacency: Adjacency = {}
    for (c, r), sides in open_sides(puzzle.inner).items():
        cell = ("cell", c, r)
        if len(sides) < 2:
            raise ReductionError(
                f"bar-graph vertex {cell} has degree {4 - len(sides)}; "
                "the puzzle has a cell with fewer than two exits"
            )
        # Neighbours in canonical vertex order, with no sort: cells by
        # (row, col), which is N, W, E, S, then exterior vertices, which
        # differ only in their side, in SIDES order.
        nbrs = adjacency[cell] = []
        exterior = []
        for side in ("N", "W", "E", "S"):
            if side in sides:
                continue
            dc, dr = SIDE_DELTAS[side]
            if dims.contains((c + dc, r + dr)):
                nbrs.append((("cell", c + dc, r + dr), side))
            else:
                exterior.append(side)
        for side in SIDES:
            if side in exterior:
                nbrs.append((("ext", side, c, r), side))
                adjacency[("ext", side, c, r)] = [(cell, OPPOSITE_SIDE[side])]
    return adjacency


def orient(adjacency: Adjacency) -> dict[Cell, str]:
    """Assign every degree-2 cell an outgoing side, one walk per component."""
    directions: dict[Cell, str] = {}
    visited: set[Vertex] = set()

    def walk(start: Vertex, first: tuple[Vertex, str]) -> None:
        prev, (cur, side) = start, first
        _record(start, side)
        while cur not in visited:
            visited.add(cur)
            nxts = [item for item in adjacency[cur] if item[0] != prev]
            if not nxts:
                break
            # Degree <= 2, so at most one way forward.
            nxt, side = nxts[0]
            _record(cur, side)
            prev, cur = cur, nxt

    def _record(v: Vertex, side: str) -> None:
        # Only two-exit cells (bar-graph degree 2) need a free edge.
        if v[0] == "cell" and len(adjacency[v]) == 2:
            directions[(v[1], v[2])] = side

    # Path endpoints (degree 1) first, so each path is walked away from
    # its canonical-least endpoint; whatever is left after that is a cycle.
    # Canonical order puts cells, by (row, col), before exterior vertices,
    # by (row, col, side) as ``edge_sort_key`` ranks them; the keys are
    # distinct, so the sort never compares two vertices.
    keyed = sorted(
        ((len(nbrs) != 1, 0, v[2], v[1]) if v[0] == "cell" else (len(nbrs) != 1, 1, v[3], v[2], SIDES.index(v[1])), v)
        for v, nbrs in adjacency.items()
    )
    for _, v in keyed:
        if v in visited or not adjacency[v]:
            continue
        visited.add(v)
        walk(v, adjacency[v][0])
    return directions
