"""Free-edge orientation for two-exit cells.

Build a graph whose vertices are the cells plus one vertex outside each
exterior edge position, with one graph edge per bar (grid-boundary sides
count as bars to their exterior vertex).  Cells with two exits then have
degree 2, cells with three exits and exterior vertices have degree 1, so
the graph is a disjoint union of paths and cycles.  Walking every
component in a consistent direction gives each degree-2 cell an outgoing
edge; pointing the unused third opening of its tile that way guarantees
no two unused openings face each other across a bar.
"""

from __future__ import annotations

from .bsl import CubicBslPuzzle
from .errors import ReductionError
from .grid import (
    Cell,
    Edge,
    boundary_edges,
    edge_cells,
    edge_sort_key,
    internal_edges,
)

# Graph vertices: ("cell", col, row) or ("ext", side, col, row).
Vertex = tuple
# Each vertex's neighbours, with the bar joining them.
Adjacency = dict[Vertex, list[tuple[Vertex, Edge]]]


def _vertex_key(v: Vertex):
    if v[0] == "cell":
        return (0, v[2], v[1])
    return (1, edge_sort_key((v[1], v[2], v[3])))


def build_bar_graph(puzzle: CubicBslPuzzle) -> Adjacency:
    """Adjacency over cells and exterior vertices, one graph edge per bar."""
    dims = puzzle.dims
    adjacency: Adjacency = {}
    for cell in dims.cells():
        adjacency[("cell", cell[0], cell[1])] = []

    def link(a: Vertex, b: Vertex, via: Edge) -> None:
        adjacency.setdefault(a, []).append((b, via))
        adjacency.setdefault(b, []).append((a, via))

    for edge in internal_edges(dims):
        if edge in puzzle.bars:
            x, y = edge_cells(edge)
            link(("cell", x[0], x[1]), ("cell", y[0], y[1]), edge)
    for edge in boundary_edges(dims):
        side, c, r = edge
        link(("cell", c, r), ("ext", side, c, r), edge)

    for v, nbrs in adjacency.items():
        if len(nbrs) > 2:
            raise ReductionError(
                f"bar-graph vertex {v} has degree {len(nbrs)}; "
                "the puzzle has a cell with fewer than two exits"
            )
        nbrs.sort(key=lambda item: _vertex_key(item[0]))
    return adjacency


def _direction_of(via: Edge, cell: Cell) -> str:
    axis, c, r = via
    if axis == "h":
        return "E" if (c, r) == cell else "W"
    if axis == "v":
        return "S" if (c, r) == cell else "N"
    return axis  # boundary edge: its side letter


def orient(adjacency: Adjacency) -> dict[Cell, str]:
    """Assign every degree-2 cell an outgoing side, one walk per component."""
    directions: dict[Cell, str] = {}
    visited: set[Vertex] = set()

    def walk(start: Vertex, first: tuple[Vertex, Edge]) -> None:
        prev, (cur, via) = start, first
        _record(start, via)
        while cur not in visited:
            visited.add(cur)
            nxts = [item for item in adjacency[cur] if item[0] != prev]
            if not nxts:
                break
            # Degree <= 2, so at most one way forward.
            nxt, via = nxts[0]
            _record(cur, via)
            prev, cur = cur, nxt

    def _record(v: Vertex, via: Edge) -> None:
        # Only two-exit cells (bar-graph degree 2) need a free edge.
        if v[0] == "cell" and len(adjacency[v]) == 2:
            directions[(v[1], v[2])] = _direction_of(via, (v[1], v[2]))

    # Path endpoints (degree 1) first, so each path is walked away from
    # its canonical-least endpoint; whatever is left after that is a cycle.
    for v in sorted(adjacency, key=lambda v: (len(adjacency[v]) != 1, _vertex_key(v))):
        if v in visited or not adjacency[v]:
            continue
        visited.add(v)
        walk(v, adjacency[v][0])
    return directions
