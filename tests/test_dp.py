"""The plug-profile DP pinned against backtracking and a fixed verdict list.

The DP is the oracle the backtracking solver is checked against, so its
own verdicts are pinned here from independent ends: exhaustive bar
subsets of small boards and seeded barred boards against backtracking,
a literal verdict list for boards up to 10 wide, and the sizes the DP
rejects before building any profile.
"""

from __future__ import annotations

import random

import pytest

from conftest import internal_edges
from loopforge import dp
from loopforge.bsl import BslPuzzle, solve_bsl_backtrack, solve_bsl_dp, verify_bsl
from loopforge.grid import GridDims


def planted_loop(rng: random.Random, width: int, height: int) -> frozenset:
    """Hamiltonian cycle of an even-by-even board: a random spanning tree of
    2x2 blocks, each tree edge merging two block cycles."""
    cw, ch = width // 2, height // 2
    loop = set()
    for i in range(cw):
        for j in range(ch):
            x, y = 2 * i, 2 * j
            loop |= {("h", x, y), ("h", x, y + 1), ("v", x, y), ("v", x + 1, y)}
    coarse = list(internal_edges(GridDims(cw, ch)))
    rng.shuffle(coarse)
    root = list(range(cw * ch))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for axis, i, j in coarse:
        a = j * cw + i
        b = a + 1 if axis == "h" else a + cw
        if find(a) == find(b):
            continue
        root[find(a)] = find(b)
        x, y = 2 * i, 2 * j
        if axis == "h":
            loop -= {("v", x + 1, y), ("v", x + 2, y)}
            loop |= {("h", x + 1, y), ("h", x + 1, y + 1)}
        else:
            loop -= {("h", x, y + 1), ("h", x, y + 2)}
            loop |= {("v", x, y + 1), ("v", x + 1, y + 1)}
    return frozenset(loop)


def planted_bars(rng: random.Random, width: int, height: int, share: float, break_loop: bool) -> frozenset:
    """Bars on ``share`` of the edges off a planted loop, plus one loop edge
    when ``break_loop`` (the verdict is then unknown until decided)."""
    loop = planted_loop(rng, width, height)
    off = [e for e in internal_edges(GridDims(width, height)) if e not in loop]
    bars = set(rng.sample(off, round(share * len(off))))
    if break_loop:
        bars.add(rng.choice(sorted(loop)))
    return frozenset(bars)


def random_bars(rng: random.Random, width: int, height: int, share: float) -> frozenset:
    edges = list(internal_edges(GridDims(width, height)))
    return frozenset(rng.sample(edges, round(share * len(edges))))


def transpose(bars: frozenset) -> frozenset:
    return frozenset(("v", r, c) if axis == "h" else ("h", r, c) for axis, c, r in bars)


def backtrack_verdict(width: int, height: int, bars: frozenset) -> bool:
    puzzle = BslPuzzle(GridDims(width, height), bars)
    result = solve_bsl_backtrack(puzzle, budget_ms=10000)
    assert result.status in ("sat", "unsat")
    if result.status == "sat":
        assert verify_bsl(puzzle, result.solution) is None
    return result.status == "sat"


@pytest.mark.parametrize("width,height", [(2, 4), (4, 2)])
def test_every_bar_subset_matches_backtracking(width, height):
    edges = list(internal_edges(GridDims(width, height)))
    sat = 0
    for mask in range(1 << len(edges)):
        bars = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
        expected = backtrack_verdict(width, height, bars)
        assert dp.hamiltonian_cycle_exists(width, height, bars) is expected, sorted(bars)
        assert solve_bsl_dp(BslPuzzle(GridDims(width, height), bars)) is expected
        sat += expected
    # The perimeter is the board's only tour; it survives bars on the two
    # rungs only.
    assert sat == 4


def test_seeded_barred_boards_match_backtracking():
    rng = random.Random(20241)
    verdicts = []
    for _ in range(150):
        width, height = rng.randint(2, 8), rng.randint(2, 8)
        if width % 2 == 0 and height % 2 == 0 and rng.random() < 0.5:
            bars = planted_bars(rng, width, height, rng.choice((0.2, 0.4, 0.6)), rng.random() < 0.5)
        else:
            bars = random_bars(rng, width, height, rng.choice((0.05, 0.1, 0.2)))
        expected = backtrack_verdict(width, height, bars)
        assert dp.hamiltonian_cycle_exists(width, height, bars) is expected, (width, height, sorted(bars))
        verdicts.append(expected)
    # The set exercises both verdicts.
    assert 30 <= sum(verdicts) <= 120


def _pinned_boards():
    """Seeded barless, planted and loop-broken boards up to 10 wide."""
    rng = random.Random(777)
    boards = [(w, h, frozenset()) for w in range(2, 11) for h in range(2, 11) if w * h <= 80]
    for _ in range(40):
        width, height = rng.choice((2, 4, 6, 8, 10)), rng.choice((2, 4, 6, 8, 10))
        boards.append((width, height, planted_bars(rng, width, height, rng.choice((0.3, 0.6)), rng.random() < 0.6)))
    for _ in range(20):
        width, height = rng.randint(3, 10), rng.randint(3, 8)
        boards.append((width, height, random_bars(rng, width, height, 0.08)))
    return boards


# "1" for sat, "0" for unsat, in _pinned_boards order.
PINNED_VERDICTS = (
    "111111111101010101111111111101010101111111111101010101111111"
    "111101010111111111100101001101101101101101100010010011011101"
    "00000100010011000"
)


def test_pinned_verdicts():
    boards = _pinned_boards()
    got = "".join("1" if dp.hamiltonian_cycle_exists(w, h, bars) else "0" for w, h, bars in boards)
    assert len(got) == len(PINNED_VERDICTS)
    assert got == PINNED_VERDICTS
    for (width, height, bars), verdict in zip(boards, got):
        if not bars:
            # A barless board has a Hamiltonian cycle iff its cell count is even.
            assert verdict == ("1" if width * height % 2 == 0 else "0")


def test_transposed_dispatch_with_bars():
    rng = random.Random(31)
    for _ in range(40):
        height, width = rng.randint(2, 6), rng.randint(7, 10)
        if width % 2 == 0 and height % 2 == 0:
            bars = planted_bars(rng, width, height, 0.4, rng.random() < 0.5)
        else:
            bars = random_bars(rng, width, height, 0.1)
        wide = BslPuzzle(GridDims(width, height), bars)
        tall = BslPuzzle(GridDims(height, width), transpose(bars))
        verdict = dp.hamiltonian_cycle_exists(width, height, bars)
        assert solve_bsl_dp(wide) is verdict
        assert solve_bsl_dp(tall) is verdict
        assert dp.hamiltonian_cycle_exists(height, width, transpose(bars)) is verdict


@pytest.mark.parametrize(
    "width,height",
    [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (1, 6), (6, 1), (3, 3), (3, 5), (5, 3), (5, 5), (7, 3)],
)
def test_degenerate_sizes_are_unsat(width, height):
    assert dp.hamiltonian_cycle_exists(width, height, frozenset()) is False
    assert solve_bsl_dp(BslPuzzle(GridDims(width, height), frozenset())) is False


def test_smallest_board():
    assert dp.hamiltonian_cycle_exists(2, 2, frozenset()) is True
    for bar in internal_edges(GridDims(2, 2)):
        assert dp.hamiltonian_cycle_exists(2, 2, frozenset({bar})) is False
