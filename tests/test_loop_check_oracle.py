"""The byte-array loop check against a set-based reference.

``loop_ids`` keeps a loop as padded byte arrays, and the four genre
verifiers read those arrays by flat id.  The reference below keeps the
loop as sets of ids, counts degrees with a ``Counter`` and tests
membership with ``in``, the way the check was first written.  Both must
return the same ``Violation`` (code, message, cell and edge) on seeded
random boards: rings, pairs of rings, toggled edges and edges off the
grid, with pearls, clues and grey cells placed mostly in rows and
columns 0, 1 and last, where the padded look-ups wrap.  The loop check
alone is also compared on the boundaries of random face sets, which
give holes, loops nested in holes and loops side by side, and on
spirals, whose long arms the even-odd orientation must get right.

Every loop is checked in each form it can be held in (``_forms``): built
from edges, flat on the verifier's own node grid (read in place, bounds
by bytes), and flat on a grid one node wider and taller (converted back
to edges).  The reference always reads the edge set.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from conftest import art_entries, cell_mask, flat_loop, internal_edges, ring
from loopforge.genres import masyu, simple_loop, slitherlink, yajilin
from loopforge.grid import (
    CELL_LOOP_WORDS,
    SIDE_DELTAS,
    CellLoop,
    GridDims,
    Violation,
    edge_cells,
    edge_sort_key,
    loop_ids,
    validate_loop,
)

BOARDS = 2000


# ----------------------------------------------------------------------
# Reference: the set-based check.


@dataclass(frozen=True)
class SetLoop:
    width: int
    east: set
    south: set
    visited: set

    def least(self, ids):
        return min((i % self.width, i // self.width) for i in ids)


def ref_loop_ids(width, height, edges, words=CELL_LOOP_WORDS):
    empty, outside, bad_degree = words
    if not edges:
        return Violation("empty", empty)
    w1, h1 = width - 1, height - 1
    east = [r * width + c for axis, c, r in edges if axis == "h" and 0 <= c < w1 and 0 <= r < height]
    south = [r * width + c for axis, c, r in edges if axis == "v" and 0 <= c < width and 0 <= r < h1]
    if len(east) + len(south) != len(edges):
        inside = {("h", i % width, i // width) for i in east} | {("v", i % width, i // width) for i in south}
        return Violation("bounds", outside, edge=min(edges - inside, key=edge_sort_key))
    degree = Counter(east)
    degree.update(south)
    degree.update([i + 1 for i in east])
    degree.update([i + width for i in south])
    loop = SetLoop(width, set(east), set(south), set(degree))
    if len(degree) != len(edges) or max(degree.values()) != 2:
        cell = loop.least(i for i, d in degree.items() if d != 2)
        return Violation("degree", bad_degree.format(degree[cell[1] * width + cell[0]]), cell=cell)
    east, south = loop.east, loop.south
    start = prev = cur = next(iter(degree))
    for steps in range(1, len(edges) + 1):
        if cur in east and cur + 1 != prev:
            prev, cur = cur, cur + 1
        elif cur - 1 in east and cur - 1 != prev:
            prev, cur = cur, cur - 1
        elif cur in south and cur + width != prev:
            prev, cur = cur, cur + width
        else:
            prev, cur = cur, cur - width
        if cur == start:
            break
    else:
        return Violation("walk", "cycle walk failed to close", cell=loop.least([cur]))
    if steps != len(edges):
        return Violation("components", "loop has more than one component", cell=loop.least(degree))
    return loop


def ref_validate_loop(dims, loop, must_visit=None):
    ids = ref_loop_ids(dims.width, dims.height, loop.transitions)
    if isinstance(ids, Violation):
        return ids
    if must_visit is None:
        return None
    required = {r * dims.width + c for c, r in must_visit}
    missing = required - ids.visited
    if missing:
        return Violation("unvisited", "required cell not visited", cell=ids.least(missing))
    extra = ids.visited - required
    if extra:
        return Violation("forbidden", "cell visited but not allowed", cell=ids.least(extra))
    return None


def ref_masyu(puzzle, sol) -> Optional[Violation]:
    w = puzzle.dims.width
    loop = ref_loop_ids(w, puzzle.dims.height, sol.transitions)
    if isinstance(loop, Violation):
        return loop
    east, south = loop.east, loop.south
    for (c, r), art in art_entries(puzzle).items():
        p = r * w + c
        if p not in loop.visited:
            return Violation("pearl", "pearl not on the loop", cell=(c, r))
        sides = (
            (p - w in south, p - 2 * w in south),
            (p in east, p + 1 in east),
            (p in south, p + w in south),
            (p - 1 in east, p - 2 in east),
        )
        continues = [beyond for used, beyond in sides if used]
        straight_here = (sides[0][0] and sides[2][0]) or (sides[1][0] and sides[3][0])
        if art == "W":
            if not straight_here:
                return Violation("pearl", "loop must run straight through a white pearl", cell=(c, r))
            if all(continues):
                return Violation("pearl", "neither side of a white pearl turns", cell=(c, r))
        else:
            if straight_here:
                return Violation("pearl", "loop must turn on a black pearl", cell=(c, r))
            if not all(continues):
                return Violation("pearl", "loop must run straight beside a black pearl", cell=(c, r))
    return None


def ref_slitherlink(puzzle, sol) -> Optional[Violation]:
    dw = puzzle.dims.width + 1
    loop = ref_loop_ids(dw, puzzle.dims.height + 1, sol.transitions, slitherlink.LATTICE_LOOP_WORDS)
    if isinstance(loop, Violation):
        return loop
    east, south = loop.east, loop.south
    for (c, r), count in puzzle.clues:
        d = r * dw + c
        got = (d in east) + (d + dw in east) + (d in south) + (d + 1 in south)
        if got != count:
            return Violation("clue", f"cell has {got} edges, expected {count}", cell=(c, r))
    return None


def ref_yajilin(puzzle, sol) -> Optional[Violation]:
    w, h = puzzle.dims.width, puzzle.dims.height
    loop = ref_loop_ids(w, h, sol.transitions)
    if isinstance(loop, Violation):
        return loop
    grey = {r * w + c for c, r in art_entries(puzzle)}
    hit = loop.visited & grey
    if hit:
        return Violation("grey", "loop passes through a grey cell", cell=loop.least(hit))
    shaded = set(range(w * h)) - loop.visited - grey
    touching = {i for i in shaded if (i + 1 in shaded and i % w != w - 1) or i + w in shaded}
    if touching:
        return Violation("shading", "two shaded cells are adjacent", cell=loop.least(touching))
    for cell, count, direction in puzzle.clues:
        got = sum(r * w + c in shaded for c, r in puzzle.ray(cell, direction))
        if got != count:
            return Violation("clue", f"arrow count is {got}, expected {count}", cell=cell)
    return None


def ref_simple_loop(puzzle, sol) -> Optional[Violation]:
    unshaded = [c for c in puzzle.dims.cells() if c not in art_entries(puzzle)]
    return ref_validate_loop(puzzle.dims, sol, must_visit=unshaded)


# ----------------------------------------------------------------------
# Random boards.


def _coord(rng, size):
    """An index below ``size``, mostly 0, 1 or the last."""
    return rng.choice((0, 1, size - 1, size - 1, rng.randrange(size))) % size


def _cells(rng, dims, k):
    """Up to k distinct cells, mostly on the first two and the last row or column."""
    return list(dict.fromkeys((_coord(rng, dims.width), _coord(rng, dims.height)) for _ in range(k)))


def _off_grid(rng, w, h, boundary_sides):
    """An edge outside a w x h node grid: past either end, or not "h"/"v"."""
    c, r = rng.randrange(w), rng.randrange(h)
    choices = [("h", w - 1, r), ("v", c, h - 1), ("h", -1, r), ("v", c, -1), ("h", c, h), ("v", w, r)]
    if boundary_sides:
        choices.append((rng.choice(("N", "E", "S", "W")), c, r))
    return rng.choice(choices)


def _random_ring(rng, w, h):
    c0, c1 = sorted(rng.sample(range(w), 2))
    r0, r1 = sorted(rng.sample(range(h), 2))
    return set(ring(c0, r0, c1, r1))


def _edges(rng, w, h, boundary_sides=False):
    """Random edges on a w x h node grid, mostly single loops or near misses."""
    pool = internal_edges(GridDims(w, h))
    if w >= 2 and h >= 2 and rng.random() < 0.8:
        edges = _random_ring(rng, w, h)
        kind = rng.random()
        if kind < 0.35:
            edges ^= _random_ring(rng, w, h)
        elif kind < 0.5:
            edges ^= {rng.choice(pool)}
        elif kind < 0.56:
            edges.add(_off_grid(rng, w, h, boundary_sides))
    else:
        edges = set(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
        if rng.random() < 0.3:
            edges.add(_off_grid(rng, w, h, boundary_sides))
    return frozenset(edges)


def _dims(rng):
    return GridDims(rng.randint(1, 7), rng.randint(1, 7))


def _on_loop(dims, edges):
    """Cells the edges touch, clipped to the grid."""
    cells = set()
    for axis, c, r in edges:
        cells.add((c, r))
        cells.add((c + 1, r) if axis == "h" else (c, r + 1))
    return {cell for cell in cells if dims.contains(cell)}


def _grid_edges(rng, dims):
    """Edges for a genre board; "h"/"v" only, since a ``CellLoop`` refuses others."""
    return _edges(rng, dims.width, dims.height)


def _check(codes, got, want):
    assert got == want
    codes[want.code if want is not None else None] += 1


def _forms(width, height, edges):
    """The loop of ``edges`` as each form of ``CellLoop`` can hold it, for a
    verifier on a width x height node grid."""
    forms = [CellLoop(edges), flat_loop(width, height, edges), flat_loop(width + 1, height + 1, edges)]
    return [loop for loop in forms if loop is not None]


def test_loop_ids_and_validate_loop_match_the_reference():
    rng = random.Random(2024)
    codes = Counter()
    for _ in range(BOARDS):
        dims = _dims(rng)
        edges = _edges(rng, dims.width, dims.height, boundary_sides=True)
        want = ref_loop_ids(dims.width, dims.height, edges)
        got = loop_ids(dims.width, dims.height, edges)
        if isinstance(want, Violation):
            _check(codes, got, want)
            continue
        assert bytes(got.visited) == bytes(i in want.visited for i in range(dims.cell_count))
        assert bytes(got.east) == bytes(i in want.east for i in range(dims.cell_count + 1))
        assert bytes(got.south) == bytes(i in want.south for i in range(dims.cell_count + dims.width))
        must = rng.choice((None, list(dims.cells()), list(_on_loop(dims, edges)), _cells(rng, dims, 4)))
        if must is not None and rng.random() < 0.5:
            must = must + _cells(rng, dims, 2)
        mask = None if must is None else cell_mask(dims, must)
        for sol in _forms(dims.width, dims.height, edges):
            _check(codes, validate_loop(dims, sol, mask), ref_validate_loop(dims, CellLoop(edges), must))
    assert set(codes) >= {"empty", "bounds", "degree", "components", "unvisited", "forbidden", None}


def test_flat_loops_match_the_reference():
    """``flat_ids`` on the loop's own grid, violations and arrays alike."""
    rng = random.Random(2029)
    codes = Counter()
    for _ in range(BOARDS):
        dims = _dims(rng)
        w, h = dims.width, dims.height
        edges = _edges(rng, w, h)
        flat = flat_loop(w, h, edges)
        if flat is None:
            continue
        want = ref_loop_ids(w, h, edges)
        got = flat.ids(w, h)
        if isinstance(want, Violation):
            _check(codes, got, want)
            continue
        codes[None] += 1
        assert got.east is flat.east and got.south is flat.south
        assert bytes(got.visited) == bytes(i in want.visited for i in range(w * h))
    assert set(codes) >= {"empty", "bounds", "degree", "components", None}


def _face_boundary(faces):
    """The edges with exactly one side in ``faces``, a set of faces (c, r),
    face (c, r) lying below and right of node (c, r)."""
    edges = set()
    for c, r in faces:
        edges ^= {("h", c, r), ("h", c, r + 1), ("v", c, r), ("v", c + 1, r)}
    return frozenset(edges)


def _even(edges):
    """Whether every node of ``edges`` has degree 2."""
    return set(Counter(cell for edge in edges for cell in edge_cells(edge)).values()) <= {2}


def _spiral(a, b):
    """The faces of a corridor one face wide that spirals clockwise into
    an a x b block of faces from its top-left face, one face between arms."""
    faces, (c, r), k, turns = {(0, 0)}, (0, 0), 0, 0
    while turns < 2:
        dc, dr = ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
        nxt = (c + dc, r + dr)
        if 0 <= nxt[0] < a and 0 <= nxt[1] < b and nxt not in faces and (nxt[0] + dc, nxt[1] + dr) not in faces:
            faces.add(nxt)
            (c, r), turns = nxt, 0
        else:
            k, turns = (k + 1) % 4, turns + 1
    return faces


def _check_loop(codes, width, height, edges):
    """Every form of the loop against the reference, arrays as well."""
    dims = GridDims(width, height)
    want = ref_loop_ids(width, height, edges)
    got = loop_ids(width, height, edges)
    if not isinstance(want, Violation):
        assert bytes(got.visited) == bytes(i in want.visited for i in range(dims.cell_count))
    for form in _forms(width, height, edges):
        _check(codes, validate_loop(dims, form), ref_validate_loop(dims, CellLoop(edges)))
    return want


def test_face_set_boundaries_match_the_reference():
    """Boundaries of random face sets whose nodes all have degree 0 or 2:
    holes, loops inside holes, and loops side by side."""
    rng = random.Random(2030)
    codes = Counter()
    several = 0
    for _ in range(3 * BOARDS):
        w, h = rng.randint(2, 10), rng.randint(2, 10)
        share = rng.random()
        faces = {(c, r) for c in range(w - 1) for r in range(h - 1) if rng.random() < share}
        edges = _face_boundary(faces)
        if _even(edges):
            want = _check_loop(codes, w, h, edges)
            several += isinstance(want, Violation) and want.code == "components"
    assert set(codes) == {"empty", "components", None}
    assert codes[None] >= 500 and several >= 500


def test_spirals_match_the_reference():
    """Spiral loops alone, inside a ring of faces and beside a second spiral."""
    codes = Counter()
    for a in range(1, 16):
        for b in range(1, 16):
            faces = _spiral(a, b)
            around = {(c, r) for c in range(a + 4) for r in range(b + 4) if c in (0, a + 3) or r in (0, b + 3)}
            inside = around | {(c + 2, r + 2) for c, r in faces}
            beside = faces | {(a + 1 + c, r) for c, r in _spiral(b, a)}
            cases = ((a + 1, b + 1, faces), (a + 5, b + 5, inside), (a + b + 2, max(a, b) + 1, beside))
            for k, (w, h, shape) in enumerate(cases):
                edges = _face_boundary(shape)
                assert _even(edges)
                want = _check_loop(codes, w, h, edges)
                assert (want.code if isinstance(want, Violation) else None) == (None if k == 0 else "components")
    assert codes == {None: 3 * 225, "components": 3 * 2 * 225}


def test_masyu_verify_matches_the_reference():
    rng = random.Random(2025)
    codes = Counter()
    messages = Counter()
    for _ in range(BOARDS):
        dims = _dims(rng)
        edges = _grid_edges(rng, dims)
        sol = CellLoop(edges)
        pearls = []
        for cell in _cells(rng, dims, rng.randint(0, 4)):
            colour = rng.choice(("white", "black"))
            if rng.random() < 0.6:
                # Prefer a colour the loop satisfies, so whole boards pass too.
                fits = [
                    c for c in ("white", "black") if ref_masyu(masyu.MasyuPuzzle(dims, ((cell, c),)), sol) is None
                ]
                colour = fits[0] if fits else colour
            pearls.append((cell, colour))
        puzzle = masyu.MasyuPuzzle(dims, tuple(pearls))
        want = ref_masyu(puzzle, sol)
        for form in _forms(dims.width, dims.height, edges):
            _check(codes, masyu.verify(puzzle, form), want)
        if want is not None and want.code == "pearl":
            messages[want.message] += 1
    assert set(codes) >= {"empty", "bounds", "degree", "components", "pearl", None}
    assert set(messages) == {
        "pearl not on the loop",
        "loop must run straight through a white pearl",
        "neither side of a white pearl turns",
        "loop must turn on a black pearl",
        "loop must run straight beside a black pearl",
    }


def test_slitherlink_verify_matches_the_reference():
    rng = random.Random(2026)
    codes = Counter()
    for _ in range(BOARDS):
        dims = _dims(rng)
        edges = _edges(rng, dims.width + 1, dims.height + 1)
        sol = CellLoop(edges)
        clues = []
        for c, r in _cells(rng, dims, rng.randint(0, 4)):
            sides = {("h", c, r), ("h", c, r + 1), ("v", c, r), ("v", c + 1, r)}
            count = len(sides & sol.transitions) if rng.random() < 0.7 else rng.randint(0, 3)
            clues.append(((c, r), min(count, 3)))
        puzzle = slitherlink.SlitherlinkPuzzle(dims, tuple(clues))
        for form in _forms(dims.width + 1, dims.height + 1, edges):
            _check(codes, slitherlink.verify(puzzle, form), ref_slitherlink(puzzle, sol))
    assert set(codes) >= {"empty", "bounds", "degree", "components", "clue", None}


def test_yajilin_verify_matches_the_reference():
    rng = random.Random(2027)
    codes = Counter()
    for _ in range(BOARDS):
        dims = _dims(rng)
        edges = _grid_edges(rng, dims)
        sol = CellLoop(edges)
        if rng.random() < 0.5:
            # Grey everywhere off the loop but a few cells: little shading.
            grey = set(dims.cells()) - _on_loop(dims, edges)
            grey -= set(_cells(rng, dims, rng.randint(0, 3)))
            grey |= set(_cells(rng, dims, rng.randint(0, 1)))
            if rng.random() < 0.2 and dims.height > 1:
                # Shade both ends of a row break, which touch as flat ids only.
                r = rng.randrange(dims.height - 1)
                grey -= {(dims.width - 1, r), (0, r + 1)}
        else:
            grey = set(_cells(rng, dims, rng.randint(0, 6)))
        clues = []
        for cell in sorted(grey):
            if rng.random() < 0.3:
                direction = rng.choice(tuple(SIDE_DELTAS))
                bare = yajilin.YajilinPuzzle(dims, frozenset(grey))
                count = sum(x not in grey and x not in _on_loop(dims, edges) for x in bare.ray(cell, direction))
                clues.append((cell, count + (rng.random() < 0.2), direction))
        puzzle = yajilin.YajilinPuzzle(dims, frozenset(grey), tuple(clues))
        for form in _forms(dims.width, dims.height, edges):
            _check(codes, yajilin.verify(puzzle, form), ref_yajilin(puzzle, sol))
    assert set(codes) >= {"empty", "bounds", "degree", "components", "grey", "shading", "clue", None}


def test_simple_loop_verify_matches_the_reference():
    rng = random.Random(2028)
    codes = Counter()
    for _ in range(BOARDS):
        dims = _dims(rng)
        edges = _grid_edges(rng, dims)
        shaded = set(dims.cells()) - _on_loop(dims, edges) if rng.random() < 0.7 else set()
        shaded ^= set(_cells(rng, dims, rng.randint(0, 2)))
        puzzle = simple_loop.SimpleLoopPuzzle(dims, frozenset(shaded))
        for form in _forms(dims.width, dims.height, edges):
            _check(codes, simple_loop.verify(puzzle, form), ref_simple_loop(puzzle, CellLoop(edges)))
    assert set(codes) >= {"empty", "bounds", "degree", "components", "unvisited", "forbidden", None}
