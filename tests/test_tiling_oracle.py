"""Board assembly and loop lifting against straightforward references.

``ref_assemble_board`` moves every placed tile's art into one dict of
cells in tile order, checks its characters with ``ref_check_art`` and
builds the puzzle from its sorted entries, with JSON and entry views
read off the sorted dict; ``ref_lift_loop`` finds each tile's bank
fragment by the ``frozenset`` of tile-local sides the loop uses there,
collects the image's edges as tuples in a set, and names the least
transition without facing exits.  That is how both were first written.
``catalog.assemble_board``, which builds a byte grid, and
``tiling.lift_loop`` must give the same boards (equal, with
the same entry views and the same JSON, read back from the text of
``to_json``'s fields), the same edge sets (the flat lift's, read off
its byte arrays) and the same errors for all four genres (and, for
lifting, the metacell), on:

* a uniform layout of every allowed transform;
* seeded random layouts, with and without holes;
* seeded ring loops under random layouts whose walled sides the ring
  never uses, each ring also held flat, as a lifted cubic loop is;
* the degenerate two-tile layout;
* seeded cubic sources up to 6x6 with a planted loop, through
  ``reduce_to_genre``, and for the smaller ones through both stages;
* seeded tiles with one bad art character, assembled and read alone.

``ref_crossing_edge`` works out the image edge of one source edge at a
time, as the lift once did; ``tiling.crossings``, built once per layout,
must map exactly the same edges to the same image edges on every layout
above, and on the metacell's parity placements.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import art_entries, flat_loop, internal_edges, ring
from loopforge.bsl import BslPuzzle, CubicBslPuzzle
from loopforge.catalog import assemble_board, default_gadget
from loopforge.errors import ReductionError
from loopforge.formats import dumps_canonical
from loopforge.genres import GENRES
from loopforge.genres.masyu import MasyuPuzzle
from loopforge.genres.simple_loop import SimpleLoopPuzzle
from loopforge.genres.slitherlink import SlitherlinkPuzzle
from loopforge.genres.yajilin import YajilinPuzzle
from loopforge.grid import OPPOSITE_SIDE, CellLoop, Edge, GridDims, edge_cells, edge_sort_key
from loopforge.metacell import default_metacell, lift_to_cubic, reduce_to_cubic
from loopforge.reduction import reduce_to_genre
from loopforge.tiling import crossings, lift_loop, place_fragment

GENRE_NAMES = ("slitherlink", "masyu", "yajilin", "simple-loop")


# ----------------------------------------------------------------------
# References.


def ref_check_art(art, alphabet):
    allowed = set(alphabet)
    if not allowed.issuperset(art.values()):
        cell, ch = next((cell, ch) for cell, ch in art.items() if ch not in allowed)
        raise ValueError(f"bad tile character {ch!r} at {cell}")


PEARLS = {"B": "black", "W": "white"}
# genre -> (art alphabet, puzzle from the sorted art, entry views, JSON field);
# every genre's art itself is compared too, as ``art_entries`` reads it.
REF_GENRES = {
    "masyu": (
        "BW",
        lambda dims, art: MasyuPuzzle(dims, tuple((cell, PEARLS[ch]) for cell, ch in art.items())),
        lambda art: {},
        lambda art: {"pearls": [{"col": c, "row": r, "color": PEARLS[ch]} for (c, r), ch in art.items()]},
    ),
    "slitherlink": (
        "0123456789",
        lambda dims, art: SlitherlinkPuzzle(dims, tuple((cell, int(ch)) for cell, ch in art.items())),
        lambda art: {"clues": tuple((cell, int(ch)) for cell, ch in art.items())},
        lambda art: {"clues": [{"col": c, "row": r, "count": int(ch)} for (c, r), ch in art.items()]},
    ),
    "yajilin": (
        "#",
        lambda dims, art: YajilinPuzzle(dims, frozenset(art)),
        lambda art: {"clues": ()},
        lambda art: {"grey": [{"col": c, "row": r, "count": None, "dir": None} for c, r in art]},
    ),
    "simple-loop": (
        "#",
        lambda dims, art: SimpleLoopPuzzle(dims, frozenset(art)),
        lambda art: {},
        lambda art: {"shaded": [{"col": c, "row": r} for c, r in art]},
    ),
}


def ref_assemble_board(desc, layout, tiles_w, tiles_h):
    fw, fh = desc.frame
    tw, th = desc.tile.width, desc.tile.height
    art = {}
    for (i, j), t in layout.items():
        for cell, ch in desc.art.items():
            c, r = t.apply_cell(tw, th, cell)
            art[(c + fw * i, r + fh * j)] = ch
    return ref_from_art(desc.genre, desc.board_dims(tiles_w, tiles_h), art)


def ref_from_art(genre, dims, art):
    """The puzzle, and its entry views and JSON fields, all from the art
    dict in (col, row) order, the order the assembled art once had."""
    alphabet, build, views, to_json = REF_GENRES[genre]
    art = dict(sorted(art.items()))
    ref_check_art(art, alphabet)
    return build(dims, art), {"art": art, **views(art)}, to_json(art)


def assert_same_board(board, ref):
    puzzle, views, doc = ref
    assert board == puzzle
    assert {name: art_entries(board) if name == "art" else getattr(board, name) for name in views} == views
    fields = GENRES[puzzle_genre(board)].to_json(board)
    assert json.loads(dumps_canonical(fields)) == doc


def puzzle_genre(board):
    return next(genre for genre, module in GENRES.items() if type(board) is module.PUZZLE)


def ref_crossing_edge(tile, layout, edge):
    """Image edge through which the loop crosses the source edge ``edge``,
    worked out for that edge alone; None when a cell of ``edge`` has no
    tile or either tile lacks an exit on the shared boundary."""
    a, b = edge_cells(edge)
    if a not in layout or b not in layout:
        return None
    side = "E" if edge[0] == "h" else "S"
    fw, fh = tile.frame

    def exits(t):
        return {t.apply_side(s): t.apply_cell(fw, fh, cell) for s, cell in tile.exits.items()}

    mine, theirs = exits(layout[a]), exits(layout[b])
    if side not in mine or OPPOSITE_SIDE[side] not in theirs:
        return None
    # The edge leaves the lesser tile through its east (south) exit.
    x, y = mine[side]
    return (edge[0], fw * a[0] + x, fh * a[1] + y)


def ref_lift_loop(tile, layout, loop):
    fw, fh = tile.frame
    edges: set[Edge] = set()
    for cell, t in layout.items():
        pair = frozenset(t.inverse().apply_side(side) for side in loop.sides(cell))
        if pair not in tile.bank:
            raise ReductionError(f"no bank fragment for local exit pair {sorted(pair)} at cell {cell}")
        for axis, c, r in place_fragment(tile, tile.bank[pair], t, (0, 0)):
            edges.add((axis, c + fw * cell[0], r + fh * cell[1]))
    for axis, c, r in sorted(loop.transitions, key=edge_sort_key):
        cross = ref_crossing_edge(tile, layout, (axis, c, r))
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


def flat_lift(tile, layout, loop):
    """``lift_loop``'s image as an edge set, checked to be flat on the node
    grid the layout's tiles span."""
    lifted = lift_loop(tile, layout, loop)
    fw, fh = tile.frame
    assert lifted.size == (fw * (max(c for c, _ in layout) + 1), fh * (max(r for _, r in layout) + 1))
    return lifted.transitions


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
        assert_same_board(assemble_board(desc, layout, 3, 2), ref_assemble_board(desc, layout, 3, 2))


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
        assert_same_board(assemble_board(desc, layout, w, h), ref_assemble_board(desc, layout, w, h))


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_degenerate_two_tile_layout(genre):
    source = CubicBslPuzzle(BslPuzzle(GridDims(2, 2), frozenset({("h", 0, 0), ("v", 0, 0)})))
    board, manifest = reduce_to_genre(source, genre)
    assert manifest.degenerate
    assert_same_board(board, ref_assemble_board(manifest.descriptor, manifest.layout, 2, 1))


def raised(build):
    try:
        build()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_bad_art_characters(genre):
    """A character outside the genre's alphabet, or a Slitherlink digit
    above 3, raises the reference's error, read alone and on boards."""
    desc = default_gadget(genre)
    tw, th = desc.tile.width, desc.tile.height
    rng = random.Random(f"art-{genre}")
    for ch in "?#B7\x7f":
        if ch in REF_GENRES[genre][0] and ch != "7":
            continue
        for _ in range(3):
            cell = (rng.randrange(tw), rng.randrange(th))
            bad = replace(desc, art={**desc.art, cell: ch})
            grid = bytearray(tw * th)
            for (c, r), x in bad.art.items():
                grid[r * tw + c] = ord(x)
            want = raised(lambda: ref_from_art(genre, bad.tile, bad.art))
            if ch in REF_GENRES[genre][0]:
                assert want == (ValueError, f"clue 7 at {cell} out of range")
            else:
                assert want == (ValueError, f"bad tile character {ch!r} at {cell}")
            assert raised(lambda: GENRES[genre].from_art(bad.tile, bytes(grid))) == want
            layout = random_layout(rng, desc, 3, 2)
            want = raised(lambda: ref_assemble_board(bad, layout, 3, 2))
            assert want is not None and raised(lambda: assemble_board(bad, layout, 3, 2)) == want


# ----------------------------------------------------------------------
# Crossings.


def layouts(genre):
    """(tile, layout) for each kind of layout this file builds."""
    rng = random.Random(f"crossings-{genre}")
    if genre == "metacell":
        tile = default_metacell()
        # The parity placements, on a barless source and on every planted one.
        yield tile, reduce_to_cubic(BslPuzzle(GridDims(6, 6), frozenset()))[1].transforms
        for source, _ in sources():
            yield tile, reduce_to_cubic(source.inner)[1].transforms
        return
    desc = default_gadget(genre)
    for t in desc.allowed_transforms():
        yield desc, {(i, j): t for j in range(2) for i in range(3)}
    for k in range(30):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        yield desc, random_layout(rng, desc, w, h, holes=0.3 if k % 3 == 0 else 0.0)
    for _ in range(10):
        c0, r0 = rng.randint(0, 3), rng.randint(0, 3)
        loop = CellLoop(ring(c0, r0, rng.randint(c0 + 1, 5), rng.randint(r0 + 1, 5)))
        cells = sorted({cell for edge in loop.transitions for cell in edge_cells(edge)})
        yield desc, ring_layout(rng, desc, loop, cells)
    degenerate = CubicBslPuzzle(BslPuzzle(GridDims(2, 2), frozenset({("h", 0, 0), ("v", 0, 0)})))
    yield desc, reduce_to_genre(degenerate, genre)[1].layout
    for source, _ in sources():
        yield desc, reduce_to_genre(source, genre)[1].layout
        if source.dims.width * source.dims.height <= 8:
            yield desc, reduce_to_genre(reduce_to_cubic(source.inner)[0], genre)[1].layout


@pytest.mark.parametrize("genre", GENRE_NAMES + ("metacell",))
def test_crossings_match_the_reference(genre):
    """``crossings`` maps exactly the edges the reference crosses, to the
    same image edges, over every edge of a grid one tile wider and taller
    than the layout, so edges to a missing tile or off it count too."""
    count = 0
    for tile, layout in layouts(genre):
        if not layout:
            continue
        cols, rows = zip(*layout)
        want = {}
        for edge in internal_edges(GridDims(max(cols) + 2, max(rows) + 2)):
            image = ref_crossing_edge(tile, layout, edge)
            if image is not None:
                want[edge] = image
        assert crossings(tile, layout) == want
        count += len(want)
    assert count > 0


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
        want = ref_lift_loop(tile, layout, loop)
        assert flat_lift(tile, layout, loop) == want
        # The source held flat, as a lifted cubic solution is, lifts the same.
        assert flat_lift(tile, layout, flat_loop(7, 6, loop.transitions)) == want


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_lift_errors(genre):
    desc = default_gadget(genre)
    rng = random.Random(f"errors-{genre}")
    loop = CellLoop(ring(0, 0, 3, 2))
    flat = flat_loop(4, 3, loop.transitions)
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
        assert outcome(flat_lift, desc, bad, loop) == want
        assert outcome(flat_lift, desc, bad, flat) == want
        # ... and a loop cell with no tile leaves its transitions uncrossed.
        del layout[cell]
        want = outcome(ref_lift_loop, desc, layout, loop)
        assert want[0] == "error" and "no facing exits" in want[1]
        assert outcome(flat_lift, desc, layout, loop) == want
        assert outcome(flat_lift, desc, layout, flat) == outcome(ref_lift_loop, desc, layout, flat)


# A 2x2 ring lifted with its tile (1, 1) missing: ("v", 1, 0) and
# ("h", 0, 1) both lack facing exits, and the ring's frozenset of edges
# iterates in an order that depends on the hash seed.
MISSING_TILE = """
from loopforge.catalog import default_gadget
from loopforge.errors import ReductionError
from loopforge.grid import CellLoop
from loopforge.tiling import lift_loop
desc = default_gadget("simple-loop")
loop = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))
free = {t: t.apply_side(desc.free_side) for t in desc.allowed_transforms()}
layout = {cell: next(t for t in free if free[t] not in loop.sides(cell)) for cell in ((0, 0), (1, 0), (0, 1))}
try:
    lift_loop(desc, layout, loop)
except ReductionError as exc:
    print(exc)
"""


def test_lift_names_the_least_uncrossed_transition_under_any_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", MISSING_TILE], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "source transition (v,1,0) has no facing exits", seed


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_fragment_cache_follows_the_bank(genre):
    """Oriented fragments are cached by value, so a descriptor copied with
    another bank lifts that bank, however warm the cache is for the first."""
    desc = default_gadget(genre)
    rng = random.Random(f"stale-{genre}")
    loop = CellLoop(ring(0, 0, 3, 2))
    cells = sorted({cell for edge in loop.transitions for cell in edge_cells(edge)})
    layout = ring_layout(rng, desc, loop, cells)
    original = flat_lift(desc, layout, loop)
    assert original == ref_lift_loop(desc, layout, loop)
    cell = rng.choice(cells)
    pair = frozenset(layout[cell].inverse().apply_side(side) for side in loop.sides(cell))
    # A shallow copy shares the bank dict, so it gets a new one without the pair.
    missing = copy.copy(desc)
    missing.bank = {k: v for k, v in desc.bank.items() if k != pair}
    raised = outcome(flat_lift, missing, layout, loop)
    assert raised[1].startswith(f"no bank fragment for local exit pair {sorted(pair)} at cell ")
    assert raised == outcome(ref_lift_loop, missing, layout, loop)
    # Another fragment for the pair: the bank's, less its least edge.
    other = replace(desc, bank={**desc.bank, pair: frozenset(sorted(desc.bank[pair], key=edge_sort_key)[1:])})
    lifted = flat_lift(other, layout, loop)
    assert lifted == ref_lift_loop(other, layout, loop)
    assert lifted != original
    assert flat_lift(desc, layout, loop) == original


# ----------------------------------------------------------------------
# Both, through the reductions.


@pytest.mark.parametrize("genre", GENRE_NAMES)
def test_planted_sources(genre):
    desc = default_gadget(genre)
    for source, loop in sources():
        w, h = source.dims.width, source.dims.height
        board, manifest = reduce_to_genre(source, genre)
        assert_same_board(board, ref_assemble_board(desc, manifest.layout, w, h))
        assert flat_lift(desc, manifest.layout, loop) == ref_lift_loop(desc, manifest.layout, loop)
        if w * h > 8:
            continue
        # Both stages: the source's cubic image, its lifted loop, and that image's genre board.
        image, cman = reduce_to_cubic(source.inner)
        assert flat_lift(cman.template, cman.transforms, loop) == ref_lift_loop(cman.template, cman.transforms, loop)
        lifted = lift_to_cubic(cman, loop)
        board, manifest = reduce_to_genre(image, genre)
        iw, ih = image.dims.width, image.dims.height
        assert_same_board(board, ref_assemble_board(desc, manifest.layout, iw, ih))
        assert flat_lift(desc, manifest.layout, lifted) == ref_lift_loop(desc, manifest.layout, lifted)
