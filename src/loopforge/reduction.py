"""Compile a cubic barred-loop puzzle into a genre puzzle, tile per cell.

Every source cell becomes one must-visit tile.  A cell with three
accessible neighbours gets its walled side on the barred direction; a
cell with two gets the walled side on one barred direction and its
unused third exit on the other, chosen by the orientation pass so no two
unused exits ever face each other.  Sources with a cell of fewer than
two accessible neighbours are unsolvable by inspection and are mapped to
a fixed two-tile unsolvable instance instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bsl import CubicBslPuzzle, degenerate_cells, open_sides, verify_bsl
from .catalog import GadgetDescriptor, assemble_board, default_gadget
from .errors import ReductionError
from .genres import GENRES
from .grid import SIDES, Cell, CellLoop
from .orientation import build_bar_graph, orient
from .tiling import lift_loop
from .transforms import Transform

ALL_SIDES = frozenset(SIDES)


@dataclass
class TilePlacement:
    transform: Transform
    exits: frozenset[str]  # board directions carrying exits
    free_edge: Optional[str]  # the unused third exit of a two-exit cell


@dataclass
class GenreReductionManifest:
    genre: str
    source: CubicBslPuzzle
    descriptor: GadgetDescriptor
    degenerate: bool
    board: object  # the genre puzzle the reduction built
    placements: dict[Cell, TilePlacement]

    @property
    def layout(self) -> dict[Cell, Transform]:
        return {cell: p.transform for cell, p in self.placements.items()}


def reduce_to_genre(
    puzzle: CubicBslPuzzle,
    genre: str,
    descriptor: Optional[GadgetDescriptor] = None,
):
    """Build the genre puzzle and the manifest that makes lifting deterministic."""
    desc = descriptor or default_gadget(genre)
    if desc.genre != genre:
        raise ReductionError(f"descriptor genre {desc.genre!r} does not match {genre!r}")

    degenerate = bool(degenerate_cells(puzzle.inner))
    placements: dict[Cell, TilePlacement] = {}
    if degenerate:
        # Canonical unsolvable two-tile instance: the shared boundary has a
        # wall on both sides, so no loop can visit both tiles.
        tiles_w, tiles_h = 2, 1
        placements[(0, 0)] = TilePlacement(desc.transform_for_free_side("E"), frozenset(), None)
        placements[(1, 0)] = TilePlacement(desc.transform_for_free_side("W"), frozenset(), None)
    else:
        tiles_w, tiles_h = puzzle.dims.width, puzzle.dims.height
        directions = orient(build_bar_graph(puzzle))
        toward: dict[str, Transform] = {}  # walled side -> its transform, looked up once each
        for cell, open_dirs in open_sides(puzzle.inner).items():
            free_edge = None
            if len(open_dirs) == 3:
                exits = open_dirs
            elif len(open_dirs) == 2:
                free_edge = directions[cell]
                exits = open_dirs | {free_edge}
            else:
                raise ReductionError(f"cell {cell} has {len(open_dirs)} exits after the degenerate check")
            walled = next(iter(ALL_SIDES - exits))
            t = toward.get(walled)
            if t is None:
                t = toward[walled] = desc.transform_for_free_side(walled)
            placements[cell] = TilePlacement(t, exits, free_edge)

    layout = {cell: p.transform for cell, p in placements.items()}
    board = assemble_board(desc, layout, tiles_w, tiles_h)
    return board, GenreReductionManifest(genre, puzzle, desc, degenerate, board, placements)


def lift_to_genre(manifest: GenreReductionManifest, cubic_solution: CellLoop):
    """Stitch bank sub-solutions along the source loop into a board solution."""
    if manifest.degenerate:
        raise ReductionError("cannot lift through a degenerate (unsolvable) reduction")
    bad = verify_bsl(manifest.source.inner, cubic_solution)
    if bad is not None:
        raise ReductionError(f"source solution rejected: {bad}")
    sol = CellLoop(frozenset(lift_loop(manifest.descriptor, manifest.layout, cubic_solution)))
    bad = GENRES[manifest.genre].verify(manifest.board, sol)
    if bad is not None:
        raise ReductionError(f"lifted solution invalid: {bad}")
    return sol
