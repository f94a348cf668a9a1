"""The solvers' side table, Masyu's pearl tables and Yajilin's neighbours,
against the grid's edge names.

``genres.base.side_table`` gives each flat node its edge ids by side
letter, from the flat ids of the edges alone.  The reference here names
each side's edge with ``grid.side_edge`` and looks it up among the
graph's edges, which are checked to be the grid's own edges in
canonical order.  Masyu's per-pearl tables,
its own sides and the same sides of the cells beyond, are read off the
same reference.  The boards include 1-wide and 1-high ones, where E and S
both step by 1 and only the width tells them apart, boards with closed
cells and bars, and Slitherlink's dot grids.
"""

from __future__ import annotations

import random

import pytest

from conftest import cell_mask, internal_edges, pair_edges
from loopforge.bsl import BslPuzzle
from loopforge.genres.base import build_cell_graph, side_table
from loopforge.genres.masyu import MasyuPuzzle, _MasyuSearch
from loopforge.genres.slitherlink import SlitherlinkPuzzle, _SlitherlinkSearch
from loopforge.genres.yajilin import YajilinPuzzle, _YajilinSearch
from loopforge.grid import SIDE_DELTAS, SIDES, GridDims, edge_cells, side_edge


def _reference(dims: GridDims, edges) -> list[dict]:
    """Each cell's edge ids by side: its ``side_edge`` looked up among ``edges``."""
    eidx = {e: i for i, e in enumerate(edges)}
    return [{d: eidx[side_edge(cell, d)] for d in SIDES if side_edge(cell, d) in eidx} for cell in dims.cells()]


def _board(seed: int) -> tuple[GridDims, frozenset, frozenset]:
    """A seeded board, its closed cells and its bars: 1xN, Nx1, 2x2, a dot
    grid, or a board up to 9x9 with closed cells and bars."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind == 0:
        return GridDims(1, rng.randint(1, 9)), frozenset(), frozenset()
    if kind == 1:
        return GridDims(rng.randint(1, 9), 1), frozenset(), frozenset()
    if kind == 2:
        return GridDims(2, 2), frozenset(), frozenset()
    if kind == 3:
        return GridDims(rng.randint(1, 8) + 1, rng.randint(1, 8) + 1), frozenset(), frozenset()
    dims = GridDims(rng.randint(1, 9), rng.randint(1, 9))
    cells = list(dims.cells())
    closed = frozenset(rng.sample(cells, round(len(cells) * rng.uniform(0, 0.3))))
    edges = internal_edges(dims)
    return dims, closed, frozenset(rng.sample(edges, round(len(edges) * rng.uniform(0, 0.3))))


@pytest.mark.parametrize("seed", range(60))
def test_side_table_names_each_edge_as_the_grid_does(seed):
    dims, closed, bars = _board(seed)
    pairs = build_cell_graph(dims, cell_mask(dims, closed), BslPuzzle(dims, bars).sides)
    # The graph as the grid names it: each internal edge across no bar
    # between open cells, in canonical order.
    edges = [e for e in internal_edges(dims) if e not in bars and not closed & set(edge_cells(e))]
    assert pair_edges(dims.width, pairs) == edges
    assert side_table(dims.width, dims.cell_count, pairs) == _reference(dims, edges)


@pytest.mark.parametrize("seed", range(20))
def test_masyu_and_slitherlink_read_the_reference_sides(seed):
    rng = random.Random(seed)
    dims = GridDims(rng.randint(1, 6), rng.randint(1, 6))
    cells = list(dims.cells())
    pearls = tuple((cell, rng.choice(("white", "black"))) for cell in rng.sample(cells, rng.randint(0, len(cells))))
    pairs = build_cell_graph(dims)
    # Each pearl's own sides, and the same sides of the cells beyond: -1 off the grid.
    w, ref = dims.width, _reference(dims, internal_edges(dims))
    want = {}
    for (c, r), colour in pearls:
        beyond = [(c + dc, r + dr) for dc, dr in map(SIDE_DELTAS.get, SIDES)]
        own = tuple(ref[r * w + c].get(d, -1) for d in SIDES)
        ahead = tuple(ref[y * w + x].get(d, -1) if dims.contains((x, y)) else -1 for (x, y), d in zip(beyond, SIDES))
        want[r * w + c] = (colour == "black", own, ahead)
    assert _MasyuSearch(MasyuPuzzle(dims, pearls), pairs).pearl_at == want
    # A clue's four borders, as the edges of its cell on the dot grid.
    dots = GridDims(dims.width + 1, dims.height + 1)
    pairs = build_cell_graph(dots)
    eidx = {e: i for i, e in enumerate(internal_edges(dots))}
    clues = tuple((cell, rng.randint(0, 3)) for cell in rng.sample(cells, rng.randint(1, len(cells))))
    search = _SlitherlinkSearch(SlitherlinkPuzzle(dims, clues), pairs)
    want = []
    for (c, r), count in sorted(clues):
        want.append((count, [eidx[e] for e in (("h", c, r), ("h", c, r + 1), ("v", c, r), ("v", c + 1, r))]))
    assert search.cells == want


@pytest.mark.parametrize("seed", range(30))
def test_yajilin_neighbours_are_the_open_cells_beside_each_cell(seed):
    rng = random.Random(seed)
    dims = GridDims(rng.randint(1, 8), rng.randint(1, 8))
    cells = list(dims.cells())
    grey = frozenset(rng.sample(cells, round(len(cells) * rng.uniform(0, 0.4))))
    puzzle = YajilinPuzzle(dims, grey)
    pairs = build_cell_graph(dims, puzzle.cells)
    search = _YajilinSearch(puzzle, pairs)
    for i, (c, r) in enumerate(cells):
        beside = {(c + dc, r + dr) for dc, dr in SIDE_DELTAS.values()}
        want = set() if (c, r) in grey else {x for x in beside if dims.contains(x) and x not in grey}
        assert {(y % dims.width, y // dims.width) for y, _ in search.incident[i]} == want
