"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import copy
import itertools
import random
import time

import pytest

from conftest import fixture_puzzle, fixture_solution, internal_edges, lifted_opening_pairs, neighbors
from loopforge.bsl import (
    BslPuzzle,
    CubicBslPuzzle,
    check_cubic,
    degenerate_cells,
    solve_bsl_backtrack,
    solve_bsl_dp,
    verify_bsl,
)
from loopforge.catalog import certify_gadget, load_gadget
from loopforge.genres import GENRES
from loopforge.grid import CellLoop, GridDims, checkerboard_color
from loopforge.metacell import build_metacell_bank, lift_to_cubic, load_metacell, reduce_to_cubic
from loopforge.orientation import orient
from loopforge.reduction import lift_to_genre, reduce_to_genre

GENRE_FIXTURES = {
    "bsl": "bsl_example",
    "cubic-bsl": "cubic_example",
    "slitherlink": "slitherlink_example",
    "masyu": "masyu_example",
    "yajilin": "yajilin_example",
    "simple-loop": "simple_loop_example",
}

DELTAS = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_metacell_certification():
    started = time.monotonic()
    template = load_metacell()
    blacks = sum(1 for c in template.dims.cells() if checkerboard_color(c) == "black")
    bank = build_metacell_bank(template)
    # Lifting the six barless 4x4 cycles verifies every fragment they use.
    pairs = lifted_opening_pairs(template)
    elapsed = time.monotonic() - started
    ok = (
        template.dims.cell_count == 35
        and blacks == 18
        and len(bank) == 6
        and pairs == set(bank)
        and elapsed < 10.0
    )
    report(1, ok, f"35 cells, 18/17 split, 6 covering fragments by search, all lifted, {elapsed:.2f}s")


def test_criterion_2_cubic_equivalence_exact():
    started = time.monotonic()
    mismatches = 0
    edges = internal_edges(GridDims(2, 2))
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            source = BslPuzzle(GridDims(2, 2), frozenset(combo))
            image, _ = reduce_to_cubic(source)
            assert (image.dims.width, image.dims.height) == (10, 14)
            if solve_bsl_dp(source) is not solve_bsl_dp(image.inner):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 300.0
    report(2, ok, f"16/16 bar subsets agree through the 10x14 image, {elapsed:.2f}s")


def test_criterion_3_oracle_cross_check():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(500):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        pool = internal_edges(GridDims(w, h))
        bars = frozenset(e for e in pool if rng.random() < 0.35)
        p = BslPuzzle(GridDims(w, h), bars)
        if solve_bsl_dp(p) is not (solve_bsl_backtrack(p).status == "sat"):
            mismatches += 1
    report(3, mismatches == 0, f"500 random instances, {mismatches} oracle mismatches")


def test_criterion_4_parity_property():
    bad = []
    for w in (1, 3, 5):
        for h in (1, 3, 5):
            p = BslPuzzle(GridDims(w, h), frozenset())
            if solve_bsl_dp(p):
                bad.append((w, h, "dp"))
            if solve_bsl_backtrack(p).status != "unsat":
                bad.append((w, h, "backtrack"))
    report(4, not bad, f"odd-by-odd boards up to 5x5 unsat by both oracles; issues: {bad}")


def _random_cubic(rng, w, h):
    dims = GridDims(w, h)
    bars = set()

    def acc(cell):
        return [e for _, e in neighbors(dims, cell) if e not in bars]

    while True:
        over = [c for c in dims.cells() if len(acc(c)) > 3]
        if not over:
            break
        cell = rng.choice(over)
        cands = acc(cell)
        rng.shuffle(cands)
        for e in cands:
            bars.add(e)
            if all(len(acc(x)) >= 2 for x in dims.cells()):
                break
            bars.remove(e)
        else:
            return None
    return CubicBslPuzzle(BslPuzzle(dims, frozenset(bars)))


def test_criterion_5_orientation_property():
    started = time.monotonic()
    fig_bars = frozenset(
        {("v", 1, 3), ("h", 1, 3), ("h", 1, 2), ("h", 1, 1), ("v", 1, 1),
         ("h", 2, 3), ("h", 2, 2), ("h", 2, 1), ("v", 3, 1), ("v", 4, 2)}
    )
    instances = [CubicBslPuzzle(BslPuzzle(GridDims(5, 5), fig_bars))]
    rng = random.Random(404)
    while len(instances) < 201:
        p = _random_cubic(rng, rng.randint(2, 10), rng.randint(2, 10))
        if p is not None and not degenerate_cells(p.inner):
            instances.append(p)
    violations = 0
    for p in instances:
        assignment = orient(p)
        two_exit = [c for c in p.dims.cells() if len(neighbors(p.dims, c, p.bars)) == 2]
        if set(assignment) != set(two_exit):
            violations += 1
            continue
        for cell, d in assignment.items():
            dc, dr = DELTAS[d]
            nbr = (cell[0] + dc, cell[1] + dr)
            if p.dims.contains(nbr) and nbr in assignment:
                dc2, dr2 = DELTAS[assignment[nbr]]
                if (nbr[0] + dc2, nbr[1] + dr2) == cell:
                    violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 30.0
    report(5, ok, f"201 instances (reference + 200 random), {violations} violations, {elapsed:.1f}s")


def test_criterion_6_gadget_certification():
    details = []
    ok = True
    for genre, want in (("simple-loop", "yes"), ("yajilin", "yes")):
        cert = certify_gadget(load_gadget(genre), budget_ms=120000)
        good = cert.overall == want and all(
            cert.conditions[c].status == "pass" for c in ("a", "c", "d", "e")
        )
        ok &= good
        details.append(f"{genre}={cert.overall}")
    for genre in ("masyu", "slitherlink"):
        cert = certify_gadget(load_gadget(genre), budget_ms=120000)
        good = all(cert.conditions[c].status == "pass" for c in ("c", "d", "e"))
        if genre == "slitherlink":
            good &= cert.conditions["a"].status == "budget-limited"
        ok &= good
        details.append(f"{genre}={cert.overall}")
    yajilin = load_gadget("yajilin")
    mutated = copy.copy(yajilin)
    mutated.art = {c: ch for c, ch in yajilin.art.items() if c != (0, 1)}
    flipped = certify_gadget(mutated, budget_ms=120000).overall != "yes"
    ok &= flipped
    details.append(f"yajilin-mutation-flips={flipped}")
    report(6, ok, ", ".join(details))


def test_criterion_7_end_to_end_forward_soundness():
    started = time.monotonic()
    source = fixture_puzzle("bsl_example")
    src_sol = fixture_solution("bsl_example")
    assert verify_bsl(source, src_sol) is None
    cubic, cubic_manifest = reduce_to_cubic(source)
    cubic_sol = lift_to_cubic(cubic_manifest, src_sol)
    green = []
    for genre in ("slitherlink", "masyu", "yajilin", "simple-loop"):
        board, manifest = reduce_to_genre(cubic, genre)
        lifted = lift_to_genre(manifest, cubic_sol)
        if GENRES[genre].verify(board, lifted) is None:
            green.append(genre)
    elapsed = time.monotonic() - started
    ok = len(green) == 4 and elapsed < 120.0
    report(7, ok, f"lifted solutions verified for {green}, {elapsed:.1f}s")


def test_criterion_8_small_scale_bidirectional_equivalence():
    started = time.monotonic()
    cases = []
    e21 = internal_edges(GridDims(2, 1))
    for k in range(len(e21) + 1):
        for combo in itertools.combinations(e21, k):
            cases.append(BslPuzzle(GridDims(2, 1), frozenset(combo)))
    e22 = internal_edges(GridDims(2, 2))
    sampled = [frozenset()] + [frozenset({e}) for e in e22] + [
        frozenset({e22[0], e22[3]}),
        frozenset({e22[1], e22[2]}),
        frozenset(e22),
    ]
    for bars in sampled[:8]:
        cases.append(BslPuzzle(GridDims(2, 2), bars))
    mismatches = 0
    for source in cases:
        assert check_cubic(source) == []
        cubic = CubicBslPuzzle(source)
        want = solve_bsl_dp(source)
        for genre in ("simple-loop", "yajilin"):
            board, _ = reduce_to_genre(cubic, genre)
            got = GENRES[genre].solve(board, budget_ms=60000)
            if got.status == "timeout" or (got.status == "sat") is not want:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 600.0
    report(
        8,
        ok,
        f"{len(cases)} sources x 2 genres, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_9_fixture_conformance_and_mutation_kill():
    rng = random.Random(1234)
    details = []
    ok = True
    for genre, name in GENRE_FIXTURES.items():
        puzzle = fixture_puzzle(name)
        sol = fixture_solution(name)
        if genre in ("bsl", "cubic-bsl"):
            inner = puzzle.inner if genre == "cubic-bsl" else puzzle
            accepted = verify_bsl(inner, sol) is None
            pool = internal_edges(inner.dims)
            current = sol.transitions
            check = lambda edges: verify_bsl(inner, CellLoop(edges)) is None
        else:
            accepted = GENRES[genre].verify(puzzle, sol) is None
            if genre == "slitherlink":
                pool = internal_edges(GridDims(puzzle.dims.width + 1, puzzle.dims.height + 1))
            else:
                pool = internal_edges(puzzle.dims)
            current = sol.transitions
            check = lambda edges: GENRES[genre].verify(puzzle, CellLoop(edges)) is None
        kills = 0
        samples = 20
        for _ in range(samples):
            edge = rng.choice(pool)
            if not check(frozenset(current ^ {edge})):
                kills += 1
        good = accepted and kills == samples
        ok &= good
        details.append(f"{genre}:{kills}/{samples}")
    report(9, ok, "fixtures accepted, mutation kills " + " ".join(details))
