"""The 5x7 building block that turns any barred-loop board into a cubic one.

Each source cell becomes a 35-cell block with a fixed internal bar
pattern and one blockable opening per side.  Blocks are reflected
horizontally on odd columns and vertically on odd rows so openings of
neighbouring blocks line up; a source bar blocks the shared opening.
Every pair of openings admits a tour of all 35 cells, and the
checkerboard count (18 black, 17 white, all openings on black) forces
any full solution to pass through each block exactly once, so the image
is solvable exactly when the source is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .bsl import BslPuzzle, CubicBslPuzzle, check_cubic, verify_bsl
from .errors import FormatError, ReductionError
from .grid import (
    SIDES,
    Cell,
    CellLoop,
    CellPathFragmentSet,
    Edge,
    GridDims,
    Violation,
    boundary_edge,
    checkerboard_color,
    edge_between,
    edge_cells,
    internal_edges,
    neighbors,
)
from .tileart import parse_bar_grid, strip_comments
from .tiling import crossing_edge, lift_loop, place_fragment
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

MetacellBank = dict[frozenset, CellPathFragmentSet]  # {side, side} -> covering tour


@dataclass(frozen=True, slots=True)
class MetacellTemplate:
    dims: GridDims
    bars: frozenset[Edge]
    exits: tuple[tuple[str, Cell], ...]  # (side, border cell) for N, E, S, W
    _bank: dict[frozenset, frozenset[Edge]] = field(default_factory=dict, compare=False, repr=False)

    @property
    def bank(self) -> dict[frozenset, frozenset[Edge]]:
        """Covering-tour transitions per opening pair, searched for on first use."""
        if not self._bank:
            self._bank.update((pair, frag.transitions) for pair, frag in build_metacell_bank(self).items())
        return self._bank

    @property
    def frame(self) -> tuple[int, int]:
        return (self.dims.width, self.dims.height)

    @property
    def pitch(self) -> tuple[int, int]:
        """Blocks sit side by side with no seam."""
        return self.frame

    def exit_cell(self, side: str) -> Cell:
        for s, cell in self.exits:
            if s == side:
                return cell
        raise KeyError(side)

    def placed_exits(self, transform: Transform) -> dict[str, Cell]:
        """Side -> local cell map after applying a placement transform."""
        return {
            transform.apply_side(side): transform.apply_cell(TEMPLATE_W, TEMPLATE_H, cell)
            for side, cell in self.exits
        }


def load_metacell(path: Optional[Path] = None) -> MetacellTemplate:
    """Load and certify the block template; any invariant failure raises."""
    text = (path or _DATA_PATH).read_text(encoding="utf-8")
    bars, exits = parse_bar_grid(strip_comments(text), TEMPLATE_W, TEMPLATE_H)
    if sorted(exits) != sorted(SIDES):
        raise FormatError(f"template must have one exit per side, found {sorted(exits)}")
    template = MetacellTemplate(
        GridDims(TEMPLATE_W, TEMPLATE_H),
        bars,
        tuple((side, exits[side]) for side in SIDES),
    )
    problem = _certify_template(template)
    if problem is not None:
        raise FormatError(f"metacell template rejected: {problem}")
    return template


@functools.cache
def default_metacell() -> MetacellTemplate:
    """The packaged template, loaded and certified once per process.

    Callers share the one object, so its bank is searched once as well.
    """
    return load_metacell()


def _certify_template(template: MetacellTemplate) -> Optional[str]:
    dims = template.dims
    if dims.cell_count != 35:
        return f"expected 35 cells, got {dims.cell_count}"
    blacks = sum(1 for cell in dims.cells() if checkerboard_color(cell) == "black")
    if blacks != 18:
        return f"expected 18 black / 17 white cells, got {blacks} black"
    for side, cell in template.exits:
        if checkerboard_color(cell) != "black":
            return f"{side} exit at {cell} is not on a black cell"
        if boundary_edge(cell, side)[0] != side:  # sanity of construction
            return "exit side mismatch"
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
        right = t.then(Transform.named("fx"))
        below = t.then(Transform.named("fy"))
        if template.placed_exits(t)["E"][1] != template.placed_exits(right)["W"][1]:
            return f"east/west openings misaligned for placement {key}"
        if template.placed_exits(t)["S"][0] != template.placed_exits(below)["N"][0]:
            return f"north/south openings misaligned for placement {key}"
    return None


# ----------------------------------------------------------------------
# solution bank

def _covering_path(template: MetacellTemplate, start: Cell, goal: Cell) -> Optional[list[Cell]]:
    """First tour of all 35 cells from start to goal, canonical order."""
    dims = template.dims
    adj: dict[Cell, list[Cell]] = {}
    for cell in dims.cells():
        adj[cell] = [n for n, e in neighbors(dims, cell) if e not in template.bars]
    total = dims.cell_count
    visited = {start}
    path = [start]

    def reachable_ok(cur: Cell) -> bool:
        seen = {cur}
        stack = [cur]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in visited and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return all(c in seen or c in visited for c in adj)

    def rec(cur: Cell) -> bool:
        if len(path) == total:
            return cur == goal
        if not reachable_ok(cur):
            return False
        for nxt in adj[cur]:
            if nxt in visited or (nxt == goal and len(path) != total - 1):
                continue
            visited.add(nxt)
            path.append(nxt)
            if rec(nxt):
                return True
            visited.remove(nxt)
            path.pop()
        return False

    return path if rec(start) else None


def build_metacell_bank(template: MetacellTemplate) -> MetacellBank:
    """Derive a covering fragment for each of the six opening pairs by search."""
    sides = [side for side, _ in template.exits]
    fragments: MetacellBank = {}
    for i in range(len(sides)):
        for j in range(i + 1, len(sides)):
            a, b = sides[i], sides[j]
            cells = _covering_path(template, template.exit_cell(a), template.exit_cell(b))
            if cells is None:
                raise FormatError(f"no covering tour between openings {a} and {b}")
            transitions = frozenset(edge_between(x, y) for x, y in zip(cells, cells[1:]))
            stubs = frozenset(
                {boundary_edge(template.exit_cell(a), a), boundary_edge(template.exit_cell(b), b)}
            )
            fragments[frozenset((a, b))] = CellPathFragmentSet(transitions, stubs)
    return fragments


def validate_metacell_bank(template: MetacellTemplate, bank: MetacellBank) -> Optional[Violation]:
    """Structural checks on every fragment plus an independent existence search."""
    sides = [side for side, _ in template.exits]
    pairs = [frozenset((sides[i], sides[j])) for i in range(4) for j in range(i + 1, 4)]
    for pair in pairs:
        if pair not in bank:
            return Violation("missing-pair", f"no fragment for opening pair {sorted(pair)}")
        frag = bank[pair]
        crossing = frag.transitions & template.bars
        if crossing:
            return Violation("bar", "fragment crosses a bar", edge=min(crossing))
        expected_stubs = frozenset(boundary_edge(template.exit_cell(s), s) for s in pair)
        if frag.stubs != expected_stubs:
            return Violation("stubs", f"fragment open ends differ for pair {sorted(pair)}")
        deg = frag.degree_map()
        if set(deg) != set(template.dims.cells()):
            missing = set(template.dims.cells()) - set(deg)
            return Violation("coverage", "fragment misses a cell", cell=min(missing))
        bad = [cell for cell, d in deg.items() if d != 2]
        if bad:
            return Violation("degree", "fragment cell degree is not 2", cell=min(bad))
        # Connectivity: one open path, so a walk from one stub end must
        # traverse every transition.
        a, b = (template.exit_cell(s) for s in sorted(pair))
        adj: dict[Cell, list[Cell]] = {}
        for edge in frag.transitions:
            x, y = edge_cells(edge)
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
        prev, cur, steps = None, a, 0
        while True:
            nxts = [n for n in adj.get(cur, []) if n != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            steps += 1
        if steps != len(frag.transitions) or cur != b:
            return Violation("path", f"fragment for {sorted(pair)} is not a single open path")
        if _covering_path(template, a, b) is None:
            return Violation("existence", f"no covering tour exists for {sorted(pair)}")
    return None


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


def reduce_to_cubic(
    puzzle: BslPuzzle,
    template: Optional[MetacellTemplate] = None,
) -> tuple[CubicBslPuzzle, CubicReductionManifest]:
    """Expand every cell into a 5x7 block; image dims are (5W, 7H)."""
    tpl = template or default_metacell()
    W, H = puzzle.dims.width, puzzle.dims.height
    image_dims = GridDims(5 * W, 7 * H)
    bars: set[Edge] = set()
    transforms: dict[Cell, Transform] = {}
    blocked: dict[Cell, set[str]] = {}

    for c, r in puzzle.dims.cells():
        t = _PLACEMENTS[(c % 2, r % 2)]
        transforms[(c, r)] = t
        blocked[(c, r)] = set()
        bars |= place_fragment(tpl, tpl.bars, t, (c, r))

    for c, r in puzzle.dims.cells():
        # Shared boundary with the right neighbour.
        if c + 1 < W:
            open_edge = crossing_edge(tpl, transforms, (c, r), "E")
            source_barred = ("h", c, r) in puzzle.bars
            for rr in range(7 * r, 7 * r + TEMPLATE_H):
                e = ("h", 5 * c + TEMPLATE_W - 1, rr)
                if e != open_edge or source_barred:
                    bars.add(e)
            if source_barred:
                blocked[(c, r)].add("E")
                blocked[(c + 1, r)].add("W")
        else:
            blocked[(c, r)].add("E")
        if c == 0:
            blocked[(c, r)].add("W")
        # Shared boundary with the neighbour below.
        if r + 1 < H:
            open_edge = crossing_edge(tpl, transforms, (c, r), "S")
            source_barred = ("v", c, r) in puzzle.bars
            for cc in range(5 * c, 5 * c + TEMPLATE_W):
                e = ("v", cc, 7 * r + TEMPLATE_H - 1)
                if e != open_edge or source_barred:
                    bars.add(e)
            if source_barred:
                blocked[(c, r)].add("S")
                blocked[(c, r + 1)].add("N")
        else:
            blocked[(c, r)].add("S")
        if r == 0:
            blocked[(c, r)].add("N")

    image = CubicBslPuzzle(BslPuzzle(image_dims, frozenset(bars)))
    manifest = CubicReductionManifest(
        source=puzzle,
        image=image,
        transforms=transforms,
        blocked={cell: frozenset(v) for cell, v in blocked.items()},
        template=tpl,
    )
    return image, manifest


def lift_to_cubic(manifest: CubicReductionManifest, bsl_solution: CellLoop) -> CellLoop:
    """Stitch per-block tour fragments along the source loop."""
    bad = verify_bsl(manifest.source, bsl_solution)
    if bad is not None:
        raise ReductionError(f"source solution rejected: {bad}")
    lifted = CellLoop(frozenset(lift_loop(manifest.template, manifest.transforms, bsl_solution)))
    bad = verify_bsl(manifest.image.inner, lifted)
    if bad is not None:
        raise ReductionError(f"lifted solution invalid: {bad}")
    return lifted


def project_from_cubic(manifest: CubicReductionManifest, cubic_solution: CellLoop) -> CellLoop:
    """Read off which openings the image loop crosses; every block must use two."""
    bad = verify_bsl(manifest.image.inner, cubic_solution)
    if bad is not None:
        raise ReductionError(f"image solution rejected: {bad}")
    transitions = set()
    for axis, c, r in internal_edges(manifest.source.dims):
        cross = crossing_edge(manifest.template, manifest.transforms, (c, r), "E" if axis == "h" else "S")
        if cross in cubic_solution.transitions:
            transitions.add((axis, c, r))
    projected = CellLoop(frozenset(transitions))
    bad = verify_bsl(manifest.source, projected)
    if bad is not None:
        raise ReductionError(f"projected solution invalid: {bad}")
    return projected
