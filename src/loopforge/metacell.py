"""The 5x7 building block that turns any barred-loop board into a cubic one.

Each source cell becomes a 35-cell block with a fixed internal bar
pattern and one blockable opening per side.  Blocks are reflected
horizontally on odd columns and vertically on odd rows so openings of
neighbouring blocks line up; a source bar blocks the shared opening.
Every pair of openings admits a tour of all 35 cells.  That the image is
solvable exactly when the source is, is checked rather than argued:
``tests/test_metacell.py::test_cubic_stage_by_exhaustion`` enumerates
every image cycle of every bar set on 2x2, 3x2 and 2x3, projects each
back to a source solution, and finds each source solution reached by the
product of its blocks' tour counts (2 per opening pair, 8 for E-W).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional

from .bsl import BslPuzzle, CubicBslPuzzle, check_cubic, verify_bsl
from .errors import FormatError, ReductionError, malformed
from .genres.base import build_cell_graph
from .grid import ALL_SIDES, MASK_SIDES, SIDES, Cell, CellLoop, Edge, GridDims, checkerboard_color, edge_between
from .search import EXACT2, LoopSearch
from .tileart import parse_exits, parse_fragment_grid, read_tile_file
from .tiling import boundary_positions, crossings, lift_loop, misaligned, place_fragment
from .transforms import Transform

TEMPLATE_W, TEMPLATE_H = 5, 7
_DATA_PATH = Path(__file__).parent / "data" / "metacell.txt"

# Placement transforms: reflect horizontally on odd source columns and
# vertically on odd source rows (both when both apply).
_PLACEMENTS = {
    (0, 0): Transform.named("r0"),
    (1, 0): Transform.named("fx"),
    (0, 1): Transform.named("fy"),
    (1, 1): Transform.named("fxy"),
}


@dataclass(frozen=True, slots=True)
class MetacellTemplate:
    dims: GridDims
    bars: frozenset[Edge]
    exits: dict[str, Cell]  # side -> border cell, for N, E, S, W
    # Covering-tour transitions per opening pair; load_metacell fills it.
    bank: dict[frozenset, frozenset[Edge]] = field(default_factory=dict, compare=False, repr=False)

    @property
    def frame(self) -> tuple[int, int]:
        return (self.dims.width, self.dims.height)


def load_metacell(path: Optional[Path] = None) -> MetacellTemplate:
    """Load and certify the block template and search its bank.

    Any invariant failure raises, and so does a pair of openings with no
    covering tour.
    """
    text = (path or _DATA_PATH).read_text(encoding="utf-8")
    with malformed("metacell template"):
        headers, sections = read_tile_file(text, ("exits",))
        exits = parse_exits(headers["exits"], (TEMPLATE_W, TEMPLATE_H))
        for name in sections:
            if name != "bars":
                raise FormatError(f"unknown descriptor section [{name}]")
        bars = parse_fragment_grid(sections["bars"], TEMPLATE_W, TEMPLATE_H)
    if sorted(exits) != sorted(SIDES):
        raise FormatError(f"template must have one exit per side, found {sorted(exits)}")
    template = MetacellTemplate(
        GridDims(TEMPLATE_W, TEMPLATE_H),
        bars,
        {side: exits[side] for side in SIDES},
    )
    problem = _certify_template(template)
    if problem is not None:
        raise FormatError(f"metacell template rejected: {problem}")
    return replace(template, bank=build_metacell_bank(template))


@functools.cache
def default_metacell() -> MetacellTemplate:
    """The packaged template, loaded and certified once per process.

    Callers share the one object, so its bank is searched once as well:
    ``load_metacell`` searches it before it returns.
    """
    return load_metacell()


def _certify_template(template: MetacellTemplate) -> Optional[str]:
    dims = template.dims
    if dims.cell_count != 35:
        return f"expected 35 cells, got {dims.cell_count}"
    blacks = sum(1 for cell in dims.cells() if checkerboard_color(cell) == "black")
    if blacks != 18:
        return f"expected 18 black / 17 white cells, got {blacks} black"
    for side, cell in template.exits.items():
        if checkerboard_color(cell) != "black":
            return f"{side} exit at {cell} is not on a black cell"
    # Cubicity with every opening blocked: the bare block.
    if check_cubic(BslPuzzle(dims, template.bars)):
        return "a cell has four accessible neighbours with exits blocked"
    # Cubicity with openings active: a 2x2 assembly keeps all shared
    # openings unblocked and exercises every reflection.
    image, _ = reduce_to_cubic(BslPuzzle(GridDims(2, 2), frozenset()), template=template)
    if check_cubic(image.inner):
        return "a cell has four accessible neighbours with exits open"
    # Facing openings of adjacent placements must line up.
    for key, t in _PLACEMENTS.items():
        if "E" in misaligned(template, t, t.then(Transform.named("fx"))):
            return f"east/west openings misaligned for placement {key}"
        if "S" in misaligned(template, t, t.then(Transform.named("fy"))):
            return f"north/south openings misaligned for placement {key}"
    return None


# ----------------------------------------------------------------------
# solution bank

def build_metacell_bank(template: MetacellTemplate) -> dict[frozenset, frozenset[Edge]]:
    """A covering tour's transitions for each of the six opening pairs.

    Of a pair's tours the bank keeps the one whose cells, walked from the
    pair's first opening in ``SIDES`` order and read as (row, col), come
    first.  That rule keeps the tours the bank has always held, so lifted
    solutions stay byte-identical; the search's own first tour differs
    on N-W and E-W.
    """
    bank: dict[frozenset, frozenset[Edge]] = {}
    for a, b in itertools.combinations(SIDES, 2):
        best = min(_covering_tours(template, a, b), key=lambda tour: [(r, c) for c, r in tour], default=None)
        if best is None:
            raise FormatError(f"no covering tour between openings {a} and {b}")
        bank[frozenset((a, b))] = frozenset(edge_between(x, y) for x, y in zip(best, best[1:]))
    return bank


def _covering_tours(template: MetacellTemplate, a: str, b: str) -> Iterator[list[Cell]]:
    """Every tour of all 35 cells from opening ``a``'s cell to opening ``b``'s.

    An extra node joined to the two exit cells closes each tour into a
    loop through all 36 nodes, which ``LoopSearch`` enumerates.
    """
    pairs = build_cell_graph(template.dims, sides=BslPuzzle(template.dims, template.bars).sides)
    w, extra = template.dims.width, template.dims.cell_count
    start, end = (r * w + c for c, r in (template.exits[a], template.exits[b]))
    graph = pairs + [(extra, start), (extra, end)]
    for loop in LoopSearch(extra + 1, graph, [EXACT2] * (extra + 1)).solutions():
        nbrs: dict[int, list[int]] = {}
        for ei in loop:
            u, v = graph[ei]
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        path = [extra, start]
        while len(path) < len(loop):
            x, y = nbrs[path[-1]]
            path.append(y if x == path[-2] else x)
        yield [(x % w, x // w) for x in path[1:]]


# ----------------------------------------------------------------------
# reduction

@dataclass
class CubicReductionManifest:
    """Per-cell placement record enabling deterministic lifting."""

    source: BslPuzzle
    image: CubicBslPuzzle
    transforms: dict[Cell, Transform]
    blocked: dict[Cell, frozenset[str]]
    template: MetacellTemplate


@functools.lru_cache(maxsize=16)
def _walls(frame: GridDims, bars: frozenset[Edge], width: int, height: int) -> frozenset[Edge]:
    """Every block wall of a width x height source; images of one size share its edge tuples."""
    tpl = MetacellTemplate(frame, bars, {})
    walls = boundary_positions(tpl, width, height)
    for (c, r), t in _PLACEMENTS.items():
        blocks = [(TEMPLATE_W * i, TEMPLATE_H * j) for i in range(c, width, 2) for j in range(r, height, 2)]
        walls.update((axis, x + dx, y + dy) for axis, x, y in place_fragment(tpl, bars, t, (0, 0)) for dx, dy in blocks)
    return frozenset(walls)


def reduce_to_cubic(
    puzzle: BslPuzzle,
    template: Optional[MetacellTemplate] = None,
) -> tuple[CubicBslPuzzle, CubicReductionManifest]:
    """Expand every cell into a 5x7 block; image dims are (5W, 7H)."""
    tpl = template or default_metacell()
    dims = puzzle.dims
    transforms = {(c, r): _PLACEMENTS[(c % 2, r % 2)] for c, r in dims.cells()}
    # Wall every block boundary, then reopen the crossing of each
    # unbarred source edge.
    bars = _walls(tpl.dims, tpl.bars, dims.width, dims.height)
    bars -= {image for edge, image in crossings(tpl, transforms).items() if edge not in puzzle.bars}
    blocked = dict(zip(dims.cells(), (MASK_SIDES[ALL_SIDES ^ m] for m in puzzle.sides)))

    image = CubicBslPuzzle(BslPuzzle(GridDims(TEMPLATE_W * dims.width, TEMPLATE_H * dims.height), frozenset(bars)))
    return image, CubicReductionManifest(puzzle, image, transforms, blocked, tpl)


def lift_to_cubic(manifest: CubicReductionManifest, bsl_solution: CellLoop) -> CellLoop:
    """Stitch per-block tour fragments along the source loop."""
    bad = verify_bsl(manifest.source, bsl_solution)
    if bad is not None:
        raise ReductionError(f"source solution rejected: {bad}")
    lifted = lift_loop(manifest.template, manifest.transforms, bsl_solution)
    bad = verify_bsl(manifest.image.inner, lifted)
    if bad is not None:
        raise ReductionError(f"lifted solution invalid: {bad}")
    return lifted


def project_from_cubic(manifest: CubicReductionManifest, cubic_solution: CellLoop) -> CellLoop:
    """Read off which openings the image loop crosses; every block must use two."""
    bad = verify_bsl(manifest.image.inner, cubic_solution)
    if bad is not None:
        raise ReductionError(f"image solution rejected: {bad}")
    cross = crossings(manifest.template, manifest.transforms)
    projected = CellLoop(frozenset(edge for edge, image in cross.items() if image in cubic_solution))
    bad = verify_bsl(manifest.source, projected)
    if bad is not None:
        raise ReductionError(f"projected solution invalid: {bad}")
    return projected
