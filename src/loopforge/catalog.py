"""Gadget descriptors and their certification harness.

A descriptor is a declarative must-visit tile for one genre: tile art,
three exits on distinct sides, the walled fourth side, allowed placement
transforms, forced lines, and one complete tile sub-solution per
unordered exit pair.  The art is the tile's characters other than ``.``;
what they mean is the genre's own, read by its ``from_art`` at load and
again for every assembled board, so catalog never branches on genre.
Certification assembles small tiled boards and machine-checks the
conditions a working tile must satisfy:

(a) every board solution visits every tile;
(b) copies tile the plane on a rectangular adjacency;
(c) the three exits are the only boundary openings used;
(d) a boundary may only be crossed into a facing exit, never into a wall
    or off the board;
(e) every exit pair extends to a full board solution;
(f) transforms point the exits in any three of the four directions.

(b) and (f) are static.  (e)'s witness is the lifted ring tour, checked
by the genre's verify: a tile ring's tour lifted through the bank, the
same lift the reduction places, for every tile size, so no search runs
for it.  (a), (c) and (d) are exhausted, in the budget left, where the
tile is small enough to enumerate every board solution.  Otherwise (a)
is recorded as budget-limited, never as a false pass, and (c) and (d),
audited over the (e) witnesses only, take (e)'s status.  No search
starts once the budget is spent.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .errors import FormatError, ReductionError, SearchTimeout, malformed
from .genres import GENRES
from .grid import SIDES, Cell, CellLoop, Edge, GridDims, edge_cells, edge_sort_key
from .tileart import parse_exits, parse_fragment_grid, read_tile_file
from .tiling import boundary_positions, crossings, lift_loop, misaligned, place_fragment
from .transforms import ALL_TRANSFORMS, ROTATIONS, Transform

DEFAULT_CATALOG = Path(__file__).parent / "data" / "gadgets"
MANDATORY_GENRES = tuple(GENRES)
HEADER_KEYS = ("genre", "tile", "transforms", "exits", "free")

# Tiles small enough to enumerate every board solution at 2x2 scale.
EXHAUSTIVE_TILE_CELLS = 30


@dataclass
class GadgetDescriptor:
    genre: str
    tile: GridDims
    exits: dict[str, Cell]  # side -> frame cell of the exit on that side
    free_side: str
    transforms: frozenset[str]  # {"rotate"} or {"rotate", "reflect"}
    forced: frozenset[Edge]
    bank: dict[frozenset, frozenset[Edge]]  # {side, side} -> tile sub-solution
    art: dict[Cell, str] = field(default_factory=dict)  # cell -> tile character other than "."

    # ------------------------------------------------------------------
    @property
    def frame(self) -> tuple[int, int]:
        """Node grid of the tile's edges and exits: the tile grown by its
        genre's ``FRAME_OFFSET``, so cells, or dots for the dot lattice."""
        k = GENRES[self.genre].FRAME_OFFSET
        return (self.tile.width + k, self.tile.height + k)

    def board_dims(self, tiles_w: int, tiles_h: int) -> GridDims:
        """The board of tiles_w x tiles_h tiles; frames abut, so a dot
        lattice's last row and column of dots hold no cells."""
        fw, fh = self.frame
        k = GENRES[self.genre].FRAME_OFFSET
        return GridDims(fw * tiles_w - k, fh * tiles_h - k)

    def allowed_transforms(self) -> tuple[Transform, ...]:
        return ALL_TRANSFORMS if "reflect" in self.transforms else ROTATIONS

    def transform_for_free_side(self, direction: str) -> Transform:
        for t in self.allowed_transforms():
            if t.apply_side(self.free_side) == direction:
                return t
        raise FormatError(f"no allowed transform points the walled side {direction}")


# ----------------------------------------------------------------------
# loading

def catalog_dir() -> Path:
    override = os.environ.get("LOOPFORGE_CATALOG")
    return Path(override) if override else DEFAULT_CATALOG


def load_gadget(genre: str, directory: Optional[Path] = None) -> GadgetDescriptor:
    """Load a genre tile descriptor and run every static invariant check."""
    path = (directory or catalog_dir()) / f"{genre.replace('-', '_')}.txt"
    if not path.exists():
        raise FormatError(f"no descriptor for genre {genre!r} at {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    headers, sections = read_tile_file(text, HEADER_KEYS)

    if headers.get("genre") != genre:
        raise FormatError(f"descriptor genre {headers.get('genre')!r} does not match {genre!r}")
    # The tile's size is a header and its art a section: name which is missing.
    missing = [f"header {key!r}" for key in HEADER_KEYS if key not in headers]
    if missing or "tile" not in sections:
        raise FormatError(f"bad descriptor for {genre}: missing {(missing or ['section [tile]'])[0]}")
    with malformed(f"descriptor for {genre}"):
        tw, th = (int(x) for x in headers["tile"].split())
        transforms = frozenset(headers["transforms"].split())
        if not transforms <= {"rotate", "reflect"}:
            raise FormatError(f"unknown transform set {sorted(transforms)}")
        desc = GadgetDescriptor(
            genre=genre,
            tile=GridDims(tw, th),
            exits={},
            free_side=headers["free"],
            transforms=transforms,
            forced=frozenset(),
            bank={},
        )

        fw, fh = desc.frame
        desc.exits = parse_exits(headers["exits"], (fw, fh))
        rows = sections.pop("tile")
        if len(rows) != th or any(len(row) != tw for row in rows):
            raise FormatError(f"tile art must be {tw}x{th}")
        desc.art = {(c, r): ch for r, row in enumerate(rows) for c, ch in enumerate(row) if ch != "."}
        for name, body in sections.items():
            if name == "forced":
                desc.forced = parse_fragment_grid(body, fw, fh)
            elif name.startswith("solution "):
                a, _, b = name.split()[1].partition("-")
                desc.bank[frozenset((a, b))] = parse_fragment_grid(body, fw, fh)
            else:
                raise FormatError(f"unknown descriptor section [{name}]")
        GENRES[genre].from_art(desc.tile, b"".join(_oriented_rows(desc, Transform(0, False))))
        problem = validate_descriptor(desc)
    if problem:
        raise FormatError(f"descriptor for {genre} rejected: {problem}")
    return desc


def default_gadget(genre: str) -> GadgetDescriptor:
    """The descriptor for ``genre`` in ``catalog_dir()``, loaded once per process.

    Callers share the one object.  The cache is keyed by the directory as
    well, so a changed ``LOOPFORGE_CATALOG`` is honoured; ``load_gadget``
    reads the file afresh.
    """
    return _load_gadget_once(genre, catalog_dir())


@functools.cache
def _load_gadget_once(genre: str, directory: Path) -> GadgetDescriptor:
    return load_gadget(genre, directory)


def validate_descriptor(desc: GadgetDescriptor) -> Optional[str]:
    """Static invariants: exit geometry, bank coverage, transform reach."""
    if len(desc.exits) != 3:
        return "a tile needs exactly 3 exits on distinct sides"
    if desc.free_side in desc.exits or desc.free_side not in SIDES:
        return "the walled side must be the one side without an exit"
    expected_pairs = {frozenset(pair) for pair in itertools.combinations(desc.exits, 2)}
    if set(desc.bank) != expected_pairs:
        return f"solution bank must cover exactly the pairs {sorted(map(sorted, expected_pairs))}"
    for pair, frag in desc.bank.items():
        if not desc.forced <= frag:
            return f"forced lines missing from the {sorted(pair)} sub-solution"
        ends = _fragment_ends(frag)
        want = {desc.exits[s] for s in pair}
        if ends != want:
            return f"sub-solution for {sorted(pair)} ends at {sorted(ends)}, expected {sorted(want)}"
    # (f): the walled side can point any of the four directions.
    for direction in SIDES:
        try:
            desc.transform_for_free_side(direction)
        except FormatError:
            return f"transforms cannot point the walled side {direction}"
    # Exit alignment across every pair of allowed placements.
    for t1 in desc.allowed_transforms():
        for t2 in desc.allowed_transforms():
            sides = misaligned(desc, t1, t2)
            if sides:
                axis = "east/west" if sides[0] == "E" else "south/north"
                return f"{axis} exits misaligned between {t1.name} and {t2.name}"
    return None


def _fragment_ends(frag: frozenset[Edge]) -> set[Cell]:
    deg: dict[Cell, int] = {}
    for edge in frag:
        for end in edge_cells(edge):
            deg[end] = deg.get(end, 0) + 1
    return {cell for cell, d in deg.items() if d == 1}


# ----------------------------------------------------------------------
# board assembly (shared with the reduction engine)

def _oriented_rows(desc: GadgetDescriptor, t: Transform) -> list[bytes]:
    """The tile's art moved through ``t``, one byte string per row, 0 for "."."""
    tw, th = desc.tile.width, desc.tile.height
    w, h = (th, tw) if t.rot % 2 else (tw, th)
    grid = bytearray(w * h)
    for cell, ch in desc.art.items():
        c, r = t.apply_cell(tw, th, cell)
        grid[r * w + c] = ord(ch)
    return [bytes(grid[r * w : (r + 1) * w]) for r in range(h)]


def assemble_board(desc: GadgetDescriptor, layout: dict[Cell, Transform], tiles_w: int, tiles_h: int):
    """The genre puzzle whose art is every placed tile's art, moved through its transform.

    The art is moved through each transform once, as one byte string per
    tile row.  Each board row joins those rows of its tiles (blank where no
    tile is) across the frame seams, and the seam rows are blank, so the
    genre's ``from_art`` reads one byte grid and nothing is kept per cell.
    """
    k = GENRES[desc.genre].FRAME_OFFSET
    dims = desc.board_dims(tiles_w, tiles_h)
    oriented = {t: _oriented_rows(desc, t) for t in set(layout.values())}
    blank = [bytes(desc.tile.width)] * desc.tile.height
    blocks = []
    for j in range(tiles_h):
        tiles = [oriented.get(layout.get((i, j)), blank) for i in range(tiles_w)]
        blocks.append(b"".join([bytes(k).join([rows[y] for rows in tiles]) for y in range(len(blank))]))
    return GENRES[desc.genre].from_art(dims, bytes(k * dims.width).join(blocks))


def tile_visited(desc: GadgetDescriptor, sol_edges: frozenset[Edge], tile_pos: Cell) -> bool:
    """Whether an edge of the solution starts at a node of the tile's frame."""
    fw, fh = desc.frame
    x0, y0 = fw * tile_pos[0], fh * tile_pos[1]
    return any(x0 <= c < x0 + fw and y0 <= r < y0 + fh for _, c, r in sol_edges)


# ----------------------------------------------------------------------
# certification

RING_2X2 = {
    (0, 0): Transform.named("r0"),
    (1, 0): Transform.named("r0"),
    (0, 1): Transform.named("r180"),
    (1, 1): Transform.named("r90"),
}
RING_2X3 = {
    (0, 0): Transform.named("r0"),
    (1, 0): Transform.named("r0"),
    (2, 0): Transform.named("r0"),
    (0, 1): Transform.named("r180"),
    (1, 1): Transform.named("r180"),
    (2, 1): Transform.named("r90"),
}
# The one tour through every tile of each ring, as a loop on tile positions;
# the middle tiles of the 2x3 ring go straight through.
RING_2X2_TOUR = CellLoop(frozenset({("h", 0, 0), ("h", 0, 1), ("v", 0, 0), ("v", 1, 0)}))
RING_2X3_TOUR = CellLoop(
    frozenset({("h", 0, 0), ("h", 1, 0), ("h", 0, 1), ("h", 1, 1), ("v", 0, 0), ("v", 2, 0)})
)


@dataclass
class ConditionVerdict:
    status: str  # "pass" | "fail" | "budget-limited" | "static-pass"
    detail: str = ""
    witnesses: int = 0


@dataclass
class GadgetCertificate:
    genre: str
    conditions: dict[str, ConditionVerdict]
    elapsed_ms: float = 0.0

    @property
    def overall(self) -> str:
        statuses = [v.status for v in self.conditions.values()]
        if any(s == "fail" for s in statuses):
            return "no"
        if all(s in ("pass", "static-pass") for s in statuses):
            return "yes"
        return "partial"

    def to_json(self) -> dict:
        return {
            "genre": self.genre,
            "certified": self.overall,
            "elapsed_ms": round(self.elapsed_ms, 1),
            "conditions": {
                k: {"status": v.status, "detail": v.detail, "witnesses": v.witnesses}
                for k, v in sorted(self.conditions.items())
            },
        }


def _ring_required_pairs(layout: dict[Cell, Transform], ring: CellLoop) -> dict[Cell, frozenset]:
    """Tile-local exit pairs used by the ring tour."""
    return {pos: frozenset(t.inverse().apply_side(s) for s in ring.sides(pos)) for pos, t in layout.items()}


def _auditor(desc, layout, tiles_w, tiles_h) -> Callable[[frozenset[Edge]], Optional[str]]:
    """The check of one board solution against (a), (c) and (d).

    The allowed crossings, the boundary positions and the placed forced
    lines depend only on the layout, so they are built once here, not for
    every solution audited.
    """
    allowed = set(crossings(desc, layout).values())
    boundary = boundary_positions(desc, tiles_w, tiles_h)
    forced = {pos: place_fragment(desc, desc.forced, t, pos) for pos, t in layout.items()}

    def audit(edges: frozenset[Edge]) -> Optional[str]:
        bad = (edges & boundary) - allowed
        if bad:
            return f"boundary crossed away from a facing exit at {min(bad, key=edge_sort_key)}"
        for pos in layout:
            if not tile_visited(desc, edges, pos):
                return f"tile {pos} not visited"
        # Forced lines must appear inside every visited tile's placement.
        for pos, lines in forced.items():
            if not lines <= edges:
                missing = min(lines - edges, key=edge_sort_key)
                return f"forced line missing at {missing} in tile {pos}"
        return None

    return audit


def certify_gadget(desc: GadgetDescriptor, budget_ms: float = 60000.0) -> GadgetCertificate:
    """Run the full condition battery against small tiled boards."""
    start = time.monotonic()
    conditions: dict[str, ConditionVerdict] = {}

    # (b) square tiling with aligned exits; alignment is re-checked here
    # although load-time validation already enforces it.
    align = validate_descriptor(desc)
    if align:
        conditions["b"] = ConditionVerdict("fail", align)
    elif desc.tile.width == desc.tile.height:
        conditions["b"] = ConditionVerdict("static-pass", "square tile, exits aligned under all placements")
    else:
        conditions["b"] = ConditionVerdict("fail", "tile is not square")

    # (f) already validated statically; record it.
    try:
        for direction in SIDES:
            desc.transform_for_free_side(direction)
        conditions["f"] = ConditionVerdict("static-pass", "walled side reaches all four directions")
    except FormatError as exc:
        conditions["f"] = ConditionVerdict("fail", str(exc))

    # (e) one witness per bank pair.
    checked = [_witness(desc, pair) for pair in sorted(desc.bank, key=sorted)]
    witnessed = sum(ok for ok, _ in checked)
    e_status = "pass" if witnessed == len(checked) else "fail"
    conditions["e"] = ConditionVerdict(e_status, "; ".join(detail for _, detail in checked), witnessed)

    # (a), (c), (d): exhaustive enumeration at 2x2 for small tiles.
    if desc.tile.cell_count <= EXHAUSTIVE_TILE_CELLS:
        board = assemble_board(desc, RING_2X2, 2, 2)
        audit = _auditor(desc, RING_2X2, 2, 2)
        count = 0
        problem = None
        try:
            # Only the budget left, and no search once it is spent.
            left = budget_ms - (time.monotonic() - start) * 1000.0
            if left <= 0:
                raise SearchTimeout("certification budget spent")
            for sol in GENRES[desc.genre].solve(board, budget_ms=left, enumerate_all=True):
                count += 1
                problem = audit(sol.transitions)
                if problem:
                    break
            if problem:
                verdict = ConditionVerdict("fail", f"solution {count}: {problem}", count)
            elif count == 0:
                verdict = ConditionVerdict("fail", "2x2 board has no solutions at all", 0)
            else:
                verdict = ConditionVerdict("pass", f"all {count} board solutions audited", count)
        except SearchTimeout:
            verdict = ConditionVerdict("budget-limited", f"enumeration stopped after {count} solutions", count)
        conditions["a"] = verdict
        conditions["c"] = ConditionVerdict(verdict.status, "boundary audit over the same enumeration", count)
        conditions["d"] = ConditionVerdict(verdict.status, "facing-exit audit over the same enumeration", count)
    else:
        # (c) and (d) are audited over the witnesses only, so they stand
        # or fall with (e).
        conditions["a"] = ConditionVerdict(
            "budget-limited",
            "tile too large to enumerate every board solution; wall forcing argued, not machine-exhausted",
            witnessed,
        )
        conditions["c"] = ConditionVerdict(e_status, f"boundary audit over {witnessed} witnesses", witnessed)
        conditions["d"] = ConditionVerdict(e_status, f"facing-exit audit over {witnessed} witnesses", witnessed)

    return GadgetCertificate(desc.genre, conditions, (time.monotonic() - start) * 1000.0)


def _witness(desc: GadgetDescriptor, pair: frozenset) -> tuple[bool, str]:
    """Whether ``pair`` is witnessed, and the detail: the ring tour lifted
    through the bank must pass the genre's verify on the assembled ring
    and the audit of (c) and (d)."""
    ctx = _witness_context(pair)
    if ctx is None:
        return False, f"no ring context realises pair {sorted(pair)}"
    layout, ring, tiles_w, tiles_h = ctx
    try:
        loop = lift_loop(desc, layout, ring)
    except ReductionError as exc:
        return False, f"{sorted(pair)}: {exc}"
    if GENRES[desc.genre].verify(assemble_board(desc, layout, tiles_w, tiles_h), loop) is not None:
        return False, f"{sorted(pair)}: no board solution extends the sub-solution"
    problem = _auditor(desc, layout, tiles_w, tiles_h)(loop.transitions)
    if problem:
        return False, f"{sorted(pair)}: witness violates boundary rules: {problem}"
    return True, f"{sorted(pair)}: witnessed on {tiles_w}x{tiles_h} ring"


def _witness_context(pair: frozenset):
    """Smallest ring layout with a tile whose local pair matches.

    Both rings place tiles by rotations only, which every descriptor allows.
    """
    for layout, ring, tiles_w, tiles_h in ((RING_2X2, RING_2X2_TOUR, 2, 2), (RING_2X3, RING_2X3_TOUR, 3, 2)):
        if pair in _ring_required_pairs(layout, ring).values():
            return layout, ring, tiles_w, tiles_h
    return None


def catalog_listing(certify: bool = True, budget_ms: float = 30000.0) -> list[str]:
    lines = []
    for genre in MANDATORY_GENRES:
        try:
            desc = load_gadget(genre)
        except FormatError:
            lines.append(f"{genre} - transforms=- certified=no")
            continue
        tdesc = "+".join(sorted(desc.transforms))
        status = "unchecked"
        if certify:
            status = certify_gadget(desc, budget_ms).overall
        lines.append(
            f"{genre} {desc.tile.width}x{desc.tile.height} transforms={tdesc} certified={status}"
        )
    return lines
