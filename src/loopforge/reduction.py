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

from .bsl import CubicBslPuzzle, degenerate_cells, verify_bsl
from .catalog import GadgetDescriptor, assemble_board, default_gadget
from .errors import ReductionError
from .genres import GENRES
from .grid import MASK_SIDES, SIDES, Cell, CellLoop
from .orientation import orient
from .tiling import lift_loop
from .transforms import Transform


@dataclass(frozen=True)
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
    layout: dict[Cell, Transform]  # each placement's transform


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
        directions = orient(puzzle)
        # One placement per side mask and free edge, shared by every cell with them.
        shared: dict[tuple[int, Optional[str]], TilePlacement] = {}
        for cell, mask in zip(puzzle.dims.cells(), puzzle.inner.sides):
            free_edge = directions.get(cell)
            p = shared.get((mask, free_edge))
            if p is None:
                open_dirs = MASK_SIDES[mask]
                if len(open_dirs) not in (2, 3):
                    raise ReductionError(f"cell {cell} has {len(open_dirs)} exits after the degenerate check")
                exits = open_dirs | {free_edge} if free_edge else open_dirs
                walled = next(side for side in SIDES if side not in exits)
                t = desc.transform_for_free_side(walled)
                p = shared[(mask, free_edge)] = TilePlacement(t, exits, free_edge)
            placements[cell] = p

    layout = {cell: p.transform for cell, p in placements.items()}
    board = assemble_board(desc, layout, tiles_w, tiles_h)
    return board, GenreReductionManifest(genre, puzzle, desc, degenerate, board, placements, layout)


def lift_to_genre(manifest: GenreReductionManifest, cubic_solution: CellLoop):
    """Stitch bank sub-solutions along the source loop into a board solution."""
    if manifest.degenerate:
        raise ReductionError("cannot lift through a degenerate (unsolvable) reduction")
    bad = verify_bsl(manifest.source.inner, cubic_solution)
    if bad is not None:
        raise ReductionError(f"source solution rejected: {bad}")
    sol = lift_loop(manifest.descriptor, manifest.layout, cubic_solution)
    bad = GENRES[manifest.genre].verify(manifest.board, sol)
    if bad is not None:
        raise ReductionError(f"lifted solution invalid: {bad}")
    return sol
