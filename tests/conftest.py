from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from loopforge import formats
from loopforge.bsl import BslPuzzle
from loopforge.genres import GENRES
from loopforge.genres.simple_loop import SimpleLoopPuzzle
from loopforge.grid import MASK_SIDES, CellLoop, GridDims, edge_between, edge_sort_key
from loopforge.metacell import lift_to_cubic, reduce_to_cubic
from loopforge.search import IN

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as f:
        return json.load(f)


def fixture_puzzle(name: str):
    return formats.puzzle_from_json(load_fixture(name))


def fixture_solution(name: str):
    return formats.solution_from_json(load_fixture(f"{name}_solution"))


def neighbors(dims: GridDims, cell, bars=frozenset()) -> list:
    """(neighbour, edge) for each in-grid neighbour of ``cell`` across no
    bar of ``bars``, in the canonical N, W, E, S order of the edges."""
    c, r = cell
    out = []
    for nbr in ((c, r - 1), (c - 1, r), (c + 1, r), (c, r + 1)):
        if dims.contains(nbr) and edge_between(cell, nbr) not in bars:
            out.append((nbr, edge_between(cell, nbr)))
    return out


def sides_by_cell(puzzle: BslPuzzle) -> dict:
    """Each cell's open sides (``puzzle.sides``) as a frozenset of letters,
    with the cells in row-major order."""
    return dict(zip(puzzle.dims.cells(), map(MASK_SIDES.__getitem__, puzzle.sides)))


def internal_edges(dims: GridDims) -> list:
    """All internal edges in canonical order: row by row, and within a row
    by column, "h" before "v"."""
    edges = []
    for r in range(dims.height):
        for c in range(dims.width):
            if c + 1 < dims.width:
                edges.append(("h", c, r))
            if r + 1 < dims.height:
                edges.append(("v", c, r))
    return edges


def pair_edges(width: int, pairs) -> list:
    """The grid's name of each flat pair ``(a, b)`` of a ``width``-wide
    node grid: "v" when ``b - a == width``, else "h", at a's cell."""
    return [("v" if b - a == width else "h", a % width, a // width) for a, b in pairs]


def boundary_edges(dims: GridDims) -> list:
    """Every boundary edge ``(side, c, r)`` of the grid, in canonical order."""
    edges = [
        (side, c, r)
        for c, r in dims.cells()
        for side, nbr in (("N", (c, r - 1)), ("E", (c + 1, r)), ("S", (c, r + 1)), ("W", (c - 1, r)))
        if not dims.contains(nbr)
    ]
    return sorted(edges, key=edge_sort_key)


def art_entries(puzzle) -> dict:
    """Each nonempty cell of a genre board and its art character, in
    canonical (col, row) order, read off ``puzzle.scan()``."""
    return {(c, r): chr(ch) for c, r, ch in puzzle.scan()}


def cell_mask(dims: GridDims, cells) -> bytes:
    """The 0/1 byte mask of ``cells``, one byte per cell in flat id order."""
    mask = bytearray(dims.cell_count)
    for c, r in cells:
        mask[r * dims.width + c] = 1
    return bytes(mask)


def ring(c0, r0, c1, r1) -> frozenset:
    """Edges of the rectangle ring through cells (c0, r0)..(c1, r1)."""
    edges = {("h", c, r) for c in range(c0, c1) for r in (r0, r1)}
    return frozenset(edges | {("v", c, r) for c in (c0, c1) for r in range(r0, r1)})


def lifted_opening_pairs(template) -> set:
    """Lift all six Hamiltonian cycles of the barless 4x4 board through
    ``template`` and return the block-local opening pairs they use.

    ``lift_to_cubic`` raises when a lift fails its checks.
    """
    board = SimpleLoopPuzzle(GridDims(4, 4), frozenset())
    cycles = list(GENRES["simple-loop"].solve(board, enumerate_all=True))
    assert len(cycles) == 6
    _, manifest = reduce_to_cubic(BslPuzzle(GridDims(4, 4), frozenset()), template=template)
    pairs = set()
    for loop in cycles:
        lift_to_cubic(manifest, loop)
        for cell, t in manifest.transforms.items():
            pairs.add(frozenset(t.inverse().apply_side(side) for side in loop.sides(cell)))
    return pairs


def flat_loop(width: int, height: int, edges):
    """``edges`` held flat on a width x height node grid, or None when the
    byte arrays have no byte for one of them."""
    n = width * height
    east, south = bytearray(n + 1), bytearray(n + width)
    for axis, c, r in edges:
        data = east if axis == "h" else south if axis == "v" else b""
        i = r * width + c
        if not (0 <= c < width and 0 <= i < len(data)):
            return None
        data[i] = 1
    loop = CellLoop.flat(width, height, east, south)
    assert loop.transitions == edges
    return loop


def solve_seeded(monkeypatch, module, puzzle, seeds):
    """``module.solve(puzzle)`` with the edges ``seeds`` forced into the
    loop.  The module's ``run_search`` is wrapped: each ``(axis, c, r)``
    becomes the id of its flat pair in ``search.edges`` on the node grid
    the search runs on, and the ids are bound to ``search.solutions``."""
    run_search = module.run_search

    def seeded(search, dims, *args):
        ids = {pair: i for i, pair in enumerate(search.edges)}
        w = dims.width
        forced = [(ids[r * w + c, r * w + c + (w if axis == "v" else 1)], IN) for axis, c, r in seeds]
        search.solutions = functools.partial(search.solutions, forced)
        return run_search(search, dims, *args)

    monkeypatch.setattr(module, "run_search", seeded)
    return module.solve(puzzle)


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded once as the module ``perfbench_<name>``;
    the benchmark's files are only read."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[key]
            raise
    return sys.modules[key]
