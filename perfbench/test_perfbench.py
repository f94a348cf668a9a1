"""Checks on the benchmark's own inputs and on BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from loopforge.bsl import BslPuzzle, degenerate_cells, solve_bsl_dp, verify_bsl  # noqa: E402
from loopforge.grid import CellLoop, GridDims  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PLANTED_SIZES = sorted(
    {(n, n) for n in workloads.COMPILE_SIZES}
    | set(workloads.DECIDE_PLANTED)
    | set(workloads.DECIDE_LARGE)
    | {dims for dims, _ in workloads.DECIDE_IMAGES}
)


def _puzzle(source: inputs.Source) -> BslPuzzle:
    return BslPuzzle(GridDims(source.width, source.height), source.bars)


def test_planted_sources_pass_verify_bsl_with_their_loop():
    rng = random.Random(2024)
    for width, height in PLANTED_SIZES:
        for share in (0.0, 0.3, 0.6):
            source = inputs.planted_source(rng, width, height, share)
            assert verify_bsl(_puzzle(source), CellLoop(source.loop)) is None, (width, height, share)
            assert not source.bars & source.loop


def test_barring_a_loop_edge_hides_the_loop():
    source = inputs.planted_source(random.Random(5), 8, 8, 0.3, bar_loop_edge=True)
    assert source.loop is None
    assert len(source.bars) == round(0.3 * (112 - 64)) + 1


def test_small_cubic_sources_have_their_kind():
    rng = random.Random(7)
    for kind, sizes in inputs.SMALL_KINDS.items():
        for width, height in sizes:
            for _ in range(4):
                source = inputs.small_cubic_source(rng, width, height, kind)
                puzzle = _puzzle(source)
                assert solve_bsl_dp(puzzle) == (kind == "sat")
                assert bool(degenerate_cells(puzzle)) == (kind == "degenerate")
                if kind == "sat":
                    assert verify_bsl(puzzle, CellLoop(source.loop)) is None


def _planted_json(seed: int) -> list[str]:
    rng = random.Random(seed)
    out = [inputs.planted_source(rng, w, h, 0.4).to_json() for w, h in PLANTED_SIZES]
    out += [
        inputs.small_cubic_source(rng, w, h, kind).to_json()
        for kind, sizes in inputs.SMALL_KINDS.items()
        for w, h in sizes
    ]
    return out


def test_same_seed_gives_byte_identical_inputs():
    assert _planted_json(11) == _planted_json(11)
    assert _planted_json(11) != _planted_json(12)


def test_workload_passes_repeat_for_a_seed():
    for name, make_pass in workloads.WORKLOADS.items():
        first, again = make_pass(random.Random(3)), make_pass(random.Random(3))
        assert [c.label for c in first] == [c.label for c in again], name
        assert [c.label for c in first] == [c.label for c in make_pass(random.Random(4))], name


def test_run_stops_at_whole_passes():
    made = []

    def make_pass(k):
        made.append(k)
        return [workloads.Case(f"c{i}", lambda: time.sleep(0.01), lambda out: (True, None)) for i in range(3)]

    replay = run.RunResult()
    result = run.run_passes(make_pass, seconds=0.1, replay=replay)
    assert made == list(range(len(result.passes))) and len(result.passes) >= 2
    assert len(result.samples) == 3 * len(result.passes)
    assert replay.passes == result.passes
    assert [s.case for s in replay.samples] == [s.case for s in result.samples]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run.RunResult(setup_s=[0.1])
    result.samples += [run.Sample("a", 1.0, True, False), run.Sample("b", 2.0, True, False)]
    end_to_end = run.end_to_end(result)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, unit) for k, (_, unit) in end_to_end.items()]
    layers = run.per_layer(tracing.Tracer(), result, result)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, unit) for k, (_, unit) in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
