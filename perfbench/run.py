"""loopforge benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

Runs whole passes of the workload's cases, one case after another on one
thread, until the pass boundary nearest to ``--seconds``.  Each pass
draws fresh inputs from the seed.  Every output is checked; the run
prints a readable report and, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every pass runs twice, traced and then untraced: the traced
runs give the per-layer metrics and write their spans under
``perfbench/out/``, and the pair gives the tracing overhead.
Exits 1 when any output is wrong and 2 when loopforge cannot be loaded
from ``src/`` of this checkout.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is timed in a fresh interpreter, so stdlib modules loopforge
# pulls in are imported cold as on a CLI call; interpreter start-up is not
# loopforge's cost and is left out.
SETUP_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import loopforge.cli
from loopforge import catalog, metacell
for genre in catalog.MANDATORY_GENRES:
    catalog.load_gadget(genre)
metacell.build_metacell_bank(metacell.load_metacell())
print(time.perf_counter() - start)
"""
# One set-up sample is taken whenever this long has passed since the last,
# so the samples span the run as the case samples do; at least
# SETUP_MIN_SAMPLES are taken.
SETUP_EVERY_S = 2.0
SETUP_MIN_SAMPLES = 9


def time_setup() -> float:
    """Seconds a fresh interpreter takes to import loopforge and load its data."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)


@dataclass
class Sample:
    case: str
    ms: float
    decided: bool
    wrong: bool


@dataclass
class RunResult:
    samples: list[Sample] = field(default_factory=list)
    passes: list[list] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Time spent inside timed cases, checks and set-up samples excluded."""
        return sum(s.ms for s in self.samples) / 1000.0


def run_passes(make_pass, seconds: float, tracer=None, replay: RunResult | None = None, setup: bool = False) -> RunResult:
    """Closed loop over whole passes until the pass boundary nearest to ``seconds``.

    ``make_pass(k)`` builds pass k.  With ``tracer``, each pass runs with
    the tracer installed; with ``replay``, each pass then runs again
    untraced into ``replay``, so both see the machine in the same state.
    """
    result = RunResult()
    started = last_setup = time.perf_counter()
    if setup:
        result.setup_s.append(time_setup())
    while True:
        elapsed = time.perf_counter() - started
        if result.passes and elapsed + elapsed / len(result.passes) / 2 >= seconds:
            break
        cases = make_pass(len(result.passes))
        result.passes.append(cases)
        if tracer is not None:
            tracer.install()
        try:
            for case in cases:
                if setup and time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    result.setup_s.append(time_setup())
                    last_setup = time.perf_counter()
                result.samples.append(_sample(result, case, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if replay is not None:
            replay.passes.append(cases)
            replay.samples += [_sample(replay, case, None) for case in cases]
    while setup and len(result.setup_s) < SETUP_MIN_SAMPLES:
        result.setup_s.append(time_setup())
    return result


def _sample(result: RunResult, case, tracer) -> Sample:
    """Run ``case`` once, timed, then check its output outside the timing."""
    out, error = None, None
    if tracer is not None:
        tracer.begin_case(len(result.samples))
    t0 = time.perf_counter()
    try:
        out = case.run()
    except Exception:  # a crash is a wrong output, not the end of the run
        error = traceback.format_exc(limit=4)
    ms = (time.perf_counter() - t0) * 1000.0
    if tracer is not None:
        tracer.end_case()
    if error is None:
        try:
            decided, problem = case.check(out)
        except Exception:
            decided, problem = False, traceback.format_exc(limit=4)
    else:
        decided, problem = False, f"raised:\n{error}"
    if problem is not None:
        result.problems.append(f"pass {len(result.passes) - 1}, {case.label}: {problem}")
    return Sample(case.label, ms, decided, problem is not None)


def end_to_end(result: RunResult) -> dict[str, tuple[float, str]]:
    """The gated user-facing metrics over every sample of the run's whole passes."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "cases_per_s": (len(result.samples) / result.busy_s, "1/s"),
        "decided_frac": (sum(s.decided for s in result.samples) / len(result.samples), "fraction"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, traced: RunResult, replay: RunResult) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced half, source line counts and tracing overhead."""
    units = {"busy_s": "s", "self_s": "s", "cells_per_s": "1/s", "decided_frac": "fraction", "bytes": "bytes"}
    metrics = {k: (v, units.get(k.rsplit(".", 1)[1], "count")) for k, v in tracer.layer_metrics().items()}
    metrics.update({k: (v, "lines") for k, v in tracing.source_lines(SRC).items()})
    traced_rate = len(traced.samples) / traced.busy_s if traced.busy_s else 0.0
    plain_rate = len(replay.samples) / replay.busy_s if replay.busy_s else 0.0
    metrics["trace.samples_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1.0 if traced_rate else 0.0, "fraction")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("compile", "decide", "genre-solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import loopforge
    except ImportError as exc:
        print(f"cannot load loopforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    loaded_from = Path(loopforge.__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        print(f"loopforge was loaded from {loaded_from}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    make = workloads.WORKLOADS[args.workload]

    def make_pass(k: int) -> list:
        return make(random.Random(f"{args.workload}:{args.seed}:{k}"))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        tracer, replay = tracing.Tracer(), RunResult()
        run = run_passes(make_pass, args.seconds, tracer=tracer, replay=replay)
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        metrics = per_layer(tracer, run, replay)
        problems = run.problems + replay.problems
        attempted = len(run.samples) + len(replay.samples)
        _print_layers(metrics)
        print(f"{len(run.passes)} passes, {len(run.samples)} samples, each run traced and untraced; "
              f"overhead {metrics['trace.overhead_frac'][0]:+.1%}; spans in {spans_path}")
    else:
        run = run_passes(make_pass, seconds=args.seconds, setup=True)
        metrics = end_to_end(run)
        problems = run.problems
        attempted = len(run.samples)
        _print_end_to_end(run, metrics)

    for problem in problems:
        print(f"WRONG {problem}", file=sys.stderr)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if not problems else 1


def _print_end_to_end(run: RunResult, metrics: dict) -> None:
    ms = [s.ms for s in run.samples]
    n = len(ms)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    beyond = sum(1 for x in ms if x > p90)
    wrong = sum(s.wrong for s in run.samples)
    print(f"{n} samples: {len(run.passes)} passes of {len(run.passes[0])} cases; {run.busy_s:.1f} s in cases; "
          f"{len(run.setup_s)} set-up samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit}")
    # Printed but not gated: see perfbench/README.md.
    print(f"  {'case_ms_p50':<14} {statistics.median(ms):12.4f} ms  (n={n})")
    print(f"  {'case_ms_p90':<14} {p90:12.4f} ms  (n={n}, {beyond} beyond)")
    print(f"  {'wrong_frac':<14} {wrong / n:12.4f} fraction")


def _print_layers(metrics: dict) -> None:
    layers = sorted(
        {k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_s")},
        key=lambda layer: -metrics[f"{layer}.self_s"][0],
    )
    print(f"  {'layer':<34} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
    for layer in layers:
        if metrics[f"{layer}.calls"][0]:
            print(f"  {layer:<34} {metrics[f'{layer}.calls'][0]:>8} "
                  f"{metrics[f'{layer}.busy_s'][0]:>10.4f} {metrics[f'{layer}.self_s'][0]:>10.4f}")


if __name__ == "__main__":
    sys.exit(main())
