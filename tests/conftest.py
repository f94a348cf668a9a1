from __future__ import annotations

import json
from pathlib import Path

import pytest

from loopforge import formats

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as f:
        return json.load(f)


def fixture_puzzle(name: str):
    return formats.puzzle_from_json(load_fixture(name))


def fixture_solution(name: str):
    return formats.solution_from_json(load_fixture(f"{name}_solution"))


def ring(c0, r0, c1, r1) -> frozenset:
    """Edges of the rectangle ring through cells (c0, r0)..(c1, r1)."""
    edges = {("h", c, r) for c in range(c0, c1) for r in (r0, r1)}
    return frozenset(edges | {("v", c, r) for c in (c0, c1) for r in range(r0, r1)})
