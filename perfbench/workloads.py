"""The three benchmark workloads: compile, decide and genre-solve.

``WORKLOADS[name](rng)`` returns one *pass*: a list of cases whose
inputs are drawn from ``rng``.  Every pass of a workload has the same
labels (size and kind) in the same order, so each whole pass weighs
every label equally; the inputs behind the labels are fresh in every
pass.

Inputs are generated before any case is timed and reach the program
only as puzzles.  A case's ``run`` is what gets timed; ``check`` then
compares its output with a reference that does not come from the code
path being timed, and returns ``(decided, problem)``: ``problem`` is
None when the output is right.

Every loopforge call goes through a module attribute (``metacell.x``,
not ``from ... import x``) so the traced run sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from loopforge import bsl, catalog, formats, grid, metacell, reduction
from loopforge import genres as genres_pkg

import inputs

GENRES = catalog.MANDATORY_GENRES


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, Optional[str]]]


def _bsl(source: inputs.Source) -> bsl.BslPuzzle:
    return bsl.BslPuzzle(grid.GridDims(source.width, source.height), source.bars)


def _loop_problem(puzzle: bsl.BslPuzzle, loop) -> Optional[str]:
    bad = bsl.verify_bsl(puzzle, loop)
    return None if bad is None else f"returned loop rejected: {bad}"


# ----------------------------------------------------------------------
# compile: planted n x n sources through both reductions, lifts and verify.
# One source per (n, genre) in every pass; n = 2 shows fixed per-call
# costs, n = 8 per-cell costs.
COMPILE_SIZES = (2, 4, 6, 8)
COMPILE_BAR_SHARE = 0.4


def _image_json(puzzle: bsl.BslPuzzle, genre: str) -> str:
    cubic, _ = metacell.reduce_to_cubic(puzzle)
    board, _ = reduction.reduce_to_genre(cubic, genre)
    return formats.dumps_canonical(formats.puzzle_to_json(board))


def _compile_case(n: int, genre: str, source: inputs.Source, pitch: int) -> Case:
    puzzle = _bsl(source)
    planted = grid.CellLoop(source.loop)

    def run():
        cubic, cman = metacell.reduce_to_cubic(puzzle)
        lifted = metacell.lift_to_cubic(cman, planted)
        projected = metacell.project_from_cubic(cman, lifted)
        board, gman = reduction.reduce_to_genre(cubic, genre)
        solution = reduction.lift_to_genre(gman, lifted)
        violation = genres_pkg.GENRES[genre].verify(board, solution)
        image = formats.dumps_canonical(formats.puzzle_to_json(board))
        return cubic.dims, projected, board.dims, violation, image

    def check(out):
        cubic_dims, projected, dims, violation, image = out
        if (cubic_dims.width, cubic_dims.height) != (5 * n, 7 * n):
            return True, f"cubic image is {cubic_dims.width}x{cubic_dims.height}, expected {5 * n}x{7 * n}"
        if projected.transitions != planted.transitions:
            return True, "projection does not return the planted loop"
        if violation is not None:
            return True, f"lifted {genre} solution rejected: {violation}"
        # Size law: one tile per cubic cell; lattice tiles share a seam.
        seam = 1 if genre == "slitherlink" else 0
        want = (pitch * 5 * n - seam, pitch * 7 * n - seam)
        if (dims.width, dims.height) != want:
            return True, f"{genre} image is {dims.width}x{dims.height}, expected {want[0]}x{want[1]}"
        if _image_json(puzzle, genre) != image:
            return True, "image JSON differs when the source is reduced again"
        return True, None

    return Case(f"n{n}-{genre}", run, check)


def compile_pass(rng: random.Random) -> list[Case]:
    # Tile pitch from the descriptors; the size law that uses it is checked above.
    pitch = {}
    for genre in GENRES:
        tile = catalog.load_gadget(genre).tile.width
        pitch[genre] = tile + 1 if genre == "slitherlink" else tile
    cases = []
    for n in COMPILE_SIZES:
        for genre in GENRES:
            source = inputs.planted_source(rng, n, n, COMPILE_BAR_SHARE)
            cases.append(_compile_case(n, genre, source, pitch[genre]))
    return cases


# ----------------------------------------------------------------------
# decide: plain BSL boards through the DP and the backtracking decider.
# Labels other than the barless ones get DECIDE_INPUTS inputs per pass.
DECIDE_BUDGET_MS = 250.0
DECIDE_INPUTS = 8
# Group 1, both deciders.  Barless boards avoid odd x odd, which the
# backtracker cannot refute within any useful budget.
DECIDE_BARLESS = ((8, 8), (10, 8), (10, 10), (11, 10), (12, 10), (12, 12))
DECIDE_PLANTED = ((8, 8), (10, 10), (12, 12), (12, 8), (8, 12))
DECIDE_PLANTED_SHARE = 0.3
# Group 2, backtracking only: beyond the DP's profile cap.  Same bar
# share as group 1; at it about one board in five exceeds the budget, so
# the search's heavy tail shows in decided_frac.
DECIDE_LARGE = ((14, 14), (16, 16), (18, 18), (20, 20), (20, 14))
# Cubic images of small planted sources (2x4 and 4x2 also with a loop
# edge barred), decided by backtracking and referenced by the DP on the source.
DECIDE_IMAGES = (((2, 4), False), ((2, 4), True), ((4, 2), False), ((4, 2), True), ((4, 4), False))
DECIDE_IMAGE_SHARE = 0.5


def _both_deciders(label: str, source: inputs.Source, expected: Optional[bool]) -> Case:
    puzzle = _bsl(source)

    def run():
        return bsl.solve_bsl_dp(puzzle), bsl.solve_bsl_backtrack(puzzle, budget_ms=DECIDE_BUDGET_MS)

    def check(out):
        dp_sat, result = out
        if expected is not None and dp_sat != expected:
            return True, f"DP says {dp_sat}, expected {expected}"
        if result.status == "timeout":
            return False, None
        if (result.status == "sat") != dp_sat:
            return True, f"backtracking says {result.status}, DP says {dp_sat}"
        return True, _loop_problem(puzzle, result.solution) if result.status == "sat" else None

    return Case(label, run, check)


def _backtrack_only(label: str, puzzle: bsl.BslPuzzle, expected: bool) -> Case:
    def run():
        return bsl.solve_bsl_backtrack(puzzle, budget_ms=DECIDE_BUDGET_MS)

    def check(result):
        if result.status == "timeout":
            return False, None
        if (result.status == "sat") != expected:
            return True, f"backtracking says {result.status}, expected {'sat' if expected else 'unsat'}"
        return True, _loop_problem(puzzle, result.solution) if result.status == "sat" else None

    return Case(label, run, check)


def decide_pass(rng: random.Random) -> list[Case]:
    cases = []
    for w, h in DECIDE_BARLESS:
        # A barless board has a Hamiltonian cycle iff its cell count is even.
        cases.append(_both_deciders(f"barless-{w}x{h}", inputs.barless_source(w, h), w * h % 2 == 0))
    for _ in range(DECIDE_INPUTS):
        for w, h in DECIDE_PLANTED:
            for barred in (False, True):
                source = inputs.planted_source(rng, w, h, DECIDE_PLANTED_SHARE, barred)
                label = f"planted-{w}x{h}{'-barred' if barred else ''}"
                cases.append(_both_deciders(label, source, None if barred else True))
        for w, h in DECIDE_LARGE:
            source = inputs.planted_source(rng, w, h, DECIDE_PLANTED_SHARE)
            cases.append(_backtrack_only(f"large-{w}x{h}", _bsl(source), True))
        for (w, h), barred in DECIDE_IMAGES:
            source = _bsl(inputs.planted_source(rng, w, h, DECIDE_IMAGE_SHARE, barred))
            image, _ = metacell.reduce_to_cubic(source)
            label = f"image-{w}x{h}{'-barred' if barred else ''}"
            cases.append(_backtrack_only(label, image.inner, bsl.solve_bsl_dp(source)))
    return cases


# ----------------------------------------------------------------------
# genre-solve: each genre's solver on images of small cubic sources, plus
# certification of all four gadgets.
SOLVE_BUDGET_MS = 200.0
CERTIFY_BUDGET_MS = 10000.0
# Inputs per (genre, kind, size) in a pass; the certifications run once.
SOLVE_INPUTS = 3
# (kind, source size) per genre.  Every slitherlink image runs into the
# budget at present, so it gets one sat and one degenerate source
# instead of twelve, which would make the run mostly slitherlink timeouts.
SOLVE_MIX = {
    **{
        genre: tuple((kind, dims) for kind, sizes in inputs.SMALL_KINDS.items() for dims in sizes)
        for genre in ("masyu", "yajilin", "simple-loop")
    },
    "slitherlink": (("sat", (2, 2)), ("degenerate", (2, 2))),
}


def _solve_case(genre: str, kind: str, source: inputs.Source) -> Case:
    cubic = bsl.CubicBslPuzzle(_bsl(source))
    expected = bsl.solve_bsl_dp(cubic.inner)
    module = genres_pkg.GENRES[genre]

    def run():
        board, _ = reduction.reduce_to_genre(cubic, genre)
        return board, module.solve(board, budget_ms=SOLVE_BUDGET_MS)

    def check(out):
        board, result = out
        if result.status == "timeout":
            return False, None
        if (result.status == "sat") != expected:
            return True, f"{genre} solver says {result.status}, source DP says {expected}"
        if result.status == "sat":
            bad = module.verify(board, result.solution)
            if bad is not None:
                return True, f"{genre} solution rejected: {bad}"
        return True, None

    return Case(f"{genre}-{kind}-{source.width}x{source.height}", run, check)


def _certify_case(genre: str) -> Case:
    def run():
        return catalog.certify_gadget(catalog.load_gadget(genre), budget_ms=CERTIFY_BUDGET_MS)

    def check(cert):
        # Decided means machine-checked "yes"; "partial" is undecided, "no" wrong.
        if cert.overall == "no":
            return True, f"{genre} gadget certification says no"
        return cert.overall == "yes", None

    return Case(f"certify-{genre}", run, check)


def genre_solve_pass(rng: random.Random) -> list[Case]:
    cases = []
    for genre in GENRES:
        for _ in range(SOLVE_INPUTS):
            for kind, (w, h) in SOLVE_MIX[genre]:
                cases.append(_solve_case(genre, kind, inputs.small_cubic_source(rng, w, h, kind)))
        cases.append(_certify_case(genre))
    return cases


WORKLOADS: dict[str, Callable[[random.Random], list[Case]]] = {
    "compile": compile_pass,
    "decide": decide_pass,
    "genre-solve": genre_solve_pass,
}
