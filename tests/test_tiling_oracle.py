"""Board assembly and loop lifting against straightforward references.

``ref_assemble_board`` moves every placed tile's art into one dict in
tile order and leaves the genre's ``from_art`` to sort it;
``ref_lift_loop`` finds each tile's bank fragment by the ``frozenset``
of tile-local sides the loop uses there.  That is how both were first
written.  ``catalog.assemble_board`` and ``tiling.lift_loop`` must give
the same boards, the same edge sets and the same errors for all four
genres (and, for lifting, the metacell), on:

* a uniform layout of every allowed transform;
* seeded random layouts, with and without holes;
* seeded ring loops under random layouts whose walled sides the ring
  never uses;
* the degenerate two-tile layout;
* seeded cubic sources up to 6x6 with a planted loop, through
  ``reduce_to_genre``, and for the smaller ones through both stages.
"""

from __future__ import annotations

import random

import pytest

from conftest import ring
from loopforge.bsl import BslPuzzle, CubicBslPuzzle
from loopforge.catalog import assemble_board, default_gadget
from loopforge.errors import ReductionError
from loopforge.genres import GENRES
from loopforge.grid import CellLoop, Edge, GridDims, edge_cells, internal_edges
from loopforge.metacell import default_metacell, lift_to_cubic, reduce_to_cubic
from loopforge.reduction import reduce_to_genre
from loopforge.tiling import crossing_edge, lift_loop, place_fragment

GENRE_NAMES = ("slitherlink", "masyu", "yajilin", "simple-loop")


# ----------------------------------------------------------------------
# References.


def ref_assemble_board(desc, layout, tiles_w, tiles_h):
    fw, fh = desc.frame
    tw, th = desc.tile.width, desc.tile.height
    art = {}
    for (i, j), t in layout.items():
        for cell, ch in desc.art.items():
            c, r = t.apply_cell(tw, th, cell)
            art[(c + fw * i, r + fh * j)] = ch
    return GENRES[desc.genre].from_art(desc.board_dims(tiles_w, tiles_h), art)


def ref_lift_loop(tile, layout, loop):
    fw, fh = tile.frame
    edges: set[Edge] = set()
    for cell, t in layout.items():
        pair = frozenset(t.inverse().apply_side(side) for side in loop.sides(cell))
        if pair not in tile.bank:
            raise ReductionError(f"no bank fragment for local exit pair {sorted(pair)} at cell {cell}")
        for axis, c, r in place_fragment(tile, tile.bank[pair], t, (0, 0)):
            edges.add((axis, c + fw * cell[0], r + fh * cell[1]))
    for axis, c, r in loop.transitions:
        cross = crossing_edge(tile, layout, (axis, c, r))
        if cross is None:
            raise ReductionError(f"source transition ({axis},{c},{r}) has no facing exits")
        edges.add(cross)
    return edges


# ----------------------------------------------------------------------
# Inputs.


def planted_loop(rng: random.Random, w: int, h: int) -> frozenset[Edge]:
    """A Hamiltonian cycle of the even w x h grid: the outline of a random
    spanning tree of its 2x2 blocks."""
    edges = set()
    for i in range(w // 2):
        for j in range(h // 2):
            edges |= ring(2 * i, 2 * j, 2 * i + 1, 2 * j + 1)
    links = [((i, j), (i + 1, j)) for i in range(w // 2 - 1) for j in range(h // 2)]
    links += [((i, j), (i, j + 1)) for i in range(w // 2) for j in range(h // 2 - 1)]
    rng.shuffle(links)
    root = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    for a, b in links:
        if find(a) == find(b):
            continue
        root[find(a)] = find(b)
        (i, j), (i2, _) = a, b
        if i2 != i:  # join across the east side of block a
            edges -= {("v", 2 * i + 1, 2 * j), ("v", 2 * i + 2, 2 * j)}
            edges |= {("h", 2 * i + 1, 2 * j), ("h", 2 * i + 1, 2 * j + 1)}
        else:  # across its south side
            edges -= {("h", 2 * i, 2 * j + 1), ("h", 2 * i, 2 * j + 2)}
            edges |= {("v", 2 * i, 2 * j + 1), ("v", 2 * i + 1, 2 * j + 1)}
    return frozenset(edges)


def planted_source(rng: random.Random, w: int, h: int) -> tuple[CubicBslPuzzle, CellLoop]:
    """A cubic source with a planted loop: each edge off the loop stays
    open, with probability one half, while both its cells have two open
    sides."""
    loop = planted_loop(rng, w, h)
    dims = GridDims(w, h)
    open_count = {cell: 2 for cell in dims.cells()}
    bars = set()
    edges = [e for e in internal_edges(dims) if e not in loop]
    rng.shuffle(edges)
    for edge in edges:
        a, b = edge_cells(edge)
        if open_count[a] == open_count[b] == 2 and rng.random() < 0.5:
            open_count[a] += 1
            open_count[b] += 1
        else:
            bars.add(edge)
    return CubicBslPuzzle(BslPuzzle(dims, frozenset(bars))), CellLoop(loop)


def sources():
    rng = random.Random(15)
    sizes = [(2, 2), (2, 4), (4, 2), (4, 4), (2, 6), (6, 2), (4, 6), (6, 4), (6, 6)]
    return [planted_source(rng, w, h) for w, h in sizes for _ in range(2)]


def random_layout(rng, desc, w, h, holes=0.0):
    allowed = desc.allowed_transforms()
    return {(i, j): rng.choice(allowed) for j in range(h) for i in range(w) if rng.random() >= holes}


def ring_layout(rng, desc, loop: CellLoop, cells):
    """A transform for each cell whose walled side the loop does not use there."""
    layout = {}
    for cell in cells:
        used = loop.sides(cell)
        layout[cell] = rng.choice([t for t in desc.allowed_transforms() if t.apply_side(desc.free_side) not in used])
    return layout


def outcome(fn, *args):
    try:
        return fn(*args)
    except ReductionError as exc:
        return ("error", str(exc))


# ----------------------------------------------------------------------
# Assembly.


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_uniform_layouts_of_every_transform(genre):
    desc = default_gadget(genre)
    for t in desc.allowed_transforms():
        layout = {(i, j): t for j in range(2) for i in range(3)}
        assert assemble_board(desc, layout, 3, 2) == ref_assemble_board(desc, layout, 3, 2), t.name


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_random_layouts(genre):
    desc = default_gadget(genre)
    rng = random.Random(genre)
    for k in range(30):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        layout = random_layout(rng, desc, w, h, holes=0.3 if k % 3 == 0 else 0.0)
        items = list(layout.items())
        rng.shuffle(items)
        layout = dict(items)
        assert assemble_board(desc, layout, w, h) == ref_assemble_board(desc, layout, w, h)


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_degenerate_two_tile_layout(genre):
    source = CubicBslPuzzle(BslPuzzle(GridDims(2, 2), frozenset({("h", 0, 0), ("v", 0, 0)})))
    board, manifest = reduce_to_genre(source, genre)
    assert manifest.degenerate
    assert board == ref_assemble_board(manifest.descriptor, manifest.layout, 2, 1)


# ----------------------------------------------------------------------
# Lifting.


@pytest.mark.parametrize("genre", GENRE_NAMES + ("metacell",))
def test_ring_lifts(genre):
    rng = random.Random(f"ring-{genre}")
    if genre == "metacell":
        # Every pair is in the metacell's bank; its placements alternate by parity.
        tile = default_metacell()
        _, manifest = reduce_to_cubic(BslPuzzle(GridDims(6, 6), frozenset()))
    else:
        tile = default_gadget(genre)
    for _ in range(40):
        c0, r0 = rng.randint(0, 3), rng.randint(0, 3)
        loop = CellLoop(ring(c0, r0, rng.randint(c0 + 1, 5), rng.randint(r0 + 1, 5)))
        cells = sorted({cell for edge in loop.transitions for cell in edge_cells(edge)})
        if genre == "metacell":
            layout = {cell: manifest.transforms[cell] for cell in cells}
        else:
            layout = ring_layout(rng, tile, loop, cells)
        assert lift_loop(tile, layout, loop) == ref_lift_loop(tile, layout, loop)


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_lift_errors(genre):
    desc = default_gadget(genre)
    rng = random.Random(f"errors-{genre}")
    loop = CellLoop(ring(0, 0, 3, 2))
    cells = sorted({cell for edge in loop.transitions for cell in edge_cells(edge)})
    for _ in range(10):
        layout = ring_layout(rng, desc, loop, cells)
        # A tile walled on a side the loop uses has no fragment for it ...
        cell = rng.choice(cells)
        walled = rng.choice(loop.sides(cell))
        bad = dict(layout)
        bad[cell] = rng.choice([t for t in desc.allowed_transforms() if t.apply_side(desc.free_side) == walled])
        want = outcome(ref_lift_loop, desc, bad, loop)
        assert want[0] == "error" and "no bank fragment" in want[1]
        assert outcome(lift_loop, desc, bad, loop) == want
        # ... and a loop cell with no tile leaves its transitions uncrossed.
        del layout[cell]
        want = outcome(ref_lift_loop, desc, layout, loop)
        assert want[0] == "error" and "no facing exits" in want[1]
        assert outcome(lift_loop, desc, layout, loop) == want


# ----------------------------------------------------------------------
# Both, through the reductions.


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_planted_sources(genre):
    desc = default_gadget(genre)
    for source, loop in sources():
        w, h = source.dims.width, source.dims.height
        board, manifest = reduce_to_genre(source, genre)
        assert board == ref_assemble_board(desc, manifest.layout, w, h)
        assert lift_loop(desc, manifest.layout, loop) == ref_lift_loop(desc, manifest.layout, loop)
        if w * h > 8:
            continue
        # Both stages: the source's cubic image, its lifted loop, and that image's genre board.
        image, cman = reduce_to_cubic(source.inner)
        assert lift_loop(cman.template, cman.transforms, loop) == ref_lift_loop(cman.template, cman.transforms, loop)
        lifted = lift_to_cubic(cman, loop)
        board, manifest = reduce_to_genre(image, genre)
        iw, ih = image.dims.width, image.dims.height
        assert board == ref_assemble_board(desc, manifest.layout, iw, ih)
        assert lift_loop(desc, manifest.layout, lifted) == ref_lift_loop(desc, manifest.layout, lifted)
