"""Span tracing of loopforge's stage-level functions, from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper on
every loaded loopforge module that holds it, so calls made through
``from .x import f`` bindings are seen as well as module-qualified ones.
Nothing under ``src/`` changes, and ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, case, is_call)``: ``parent`` is
the index of the span that was open when it started (None at top
level), ``case`` the benchmark case it belongs to.  A function that
returns a generator (``solve(..., enumerate_all=True)``) gets one call
span plus one span per resumption, so the enumeration's time lands on
the solver and not on whoever iterates it.

Per-edge helpers such as ``Transform.apply_edge`` are left unwrapped on
purpose: they run tens of thousands of times per case and the wrapper
would cost more than they do.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

GENRE_MODULES = ("slitherlink", "masyu", "yajilin", "simple_loop")

# Stage-level functions, as "<module under loopforge>.<function>".
LAYERS = (
    "dp.hamiltonian_cycle_exists",
    "bsl.solve_bsl_backtrack",
    "bsl.verify_bsl",
    *(f"genres.{g}.solve" for g in GENRE_MODULES),
    *(f"genres.{g}.verify" for g in GENRE_MODULES),
    "catalog.certify_gadget",
    "catalog.load_gadget",
    "catalog.assemble_board",
    "catalog.place_fragment",
    "metacell.load_metacell",
    "metacell.build_metacell_bank",
    "metacell.reduce_to_cubic",
    "metacell.lift_to_cubic",
    "metacell.project_from_cubic",
    "reduction.reduce_to_genre",
    "reduction.lift_to_genre",
    "orientation.orient",
    "grid.validate_loop",
    "formats.puzzle_to_json",
    "formats.dumps_canonical",
)


def _status(counts: Counter, name: str, result) -> None:
    status = getattr(result, "status", None)
    if status in ("sat", "unsat"):
        counts[f"{name}.{status}"] += 1
    elif status == "timeout":
        counts[f"{name}.timeouts"] += 1


# Work counts taken from a call's arguments or result: (counts, name, args, result).
ANNOTATE: dict[str, Callable] = {
    "dp.hamiltonian_cycle_exists": lambda k, n, a, r: k.update({f"{n}.cells": a[0] * a[1]}),
    "bsl.solve_bsl_backtrack": lambda k, n, a, r: _status(k, n, r),
    **{f"genres.{g}.solve": (lambda k, n, a, r: _status(k, n, r)) for g in GENRE_MODULES},
    "catalog.certify_gadget": lambda k, n, a, r: k.update({f"{n}.witnesses": r.conditions["e"].witnesses}),
    "metacell.reduce_to_cubic": lambda k, n, a, r: k.update({f"{n}.image_cells": r[0].dims.cell_count}),
    "formats.dumps_canonical": lambda k, n, a, r: k.update({f"{n}.bytes": len(r.encode("utf-8"))}),
}


class Tracer:
    """Collects spans in memory while ``active``; writes them out on request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.case: Optional[int] = None
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, is_call: bool) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.case, is_call])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def begin_case(self, case: int) -> None:
        """Open the root span of one benchmark case and start recording."""
        self.case = case
        self.active = True
        self._open("case", True)

    def end_case(self) -> None:
        self._close(self.stack[-1])
        self.active = False

    def _wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATE.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name, True)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if isinstance(result, types.GeneratorType):
                return tracer._resume(name, result)
            if annotate is not None:
                annotate(tracer.counts, name, args, result)
            return result

        return traced

    def _resume(self, name: str, gen):
        # Items are credited to the span open when iteration starts: the
        # layer the enumeration works for.
        owner = self.spans[self.stack[-1]][0] if self.stack else "bench"
        while True:
            index = self._open(name, False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(index)
            self.counts[f"{owner}.enumerated"] += 1
            yield item

    # -- installation --------------------------------------------------
    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "loopforge" or key.startswith("loopforge.")]
        for layer in LAYERS:
            module_name, _, attr = layer.rpartition(".")
            original = getattr(importlib.import_module(f"loopforge.{module_name}"), attr)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per layer, plus the work counts.

        busy_s sums the spans that have no ancestor of the same name;
        self_s subtracts from each span the time its child spans cover.
        """
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, parent, _case, is_call in self.spans:
            duration = end - start
            calls[name] += is_call
            own[name] += duration
            if parent is not None:
                own[self.spans[parent][0]] -= duration
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                busy[name] += duration
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
        dp = "dp.hamiltonian_cycle_exists"
        out[f"{dp}.cells_per_s"] = self.counts[f"{dp}.cells"] / busy[dp] if busy[dp] else 0.0
        for solver in ("bsl.solve_bsl_backtrack", *(f"genres.{g}.solve" for g in GENRE_MODULES)):
            for outcome in ("sat", "unsat", "timeouts"):
                out[f"{solver}.{outcome}"] = self.counts[f"{solver}.{outcome}"]
        for g in GENRE_MODULES:
            solver = f"genres.{g}.solve"
            decided = out[f"{solver}.sat"] + out[f"{solver}.unsat"]
            tried = decided + out[f"{solver}.timeouts"]
            out[f"{solver}.decided_frac"] = decided / tried if tried else 0.0
        for key in (
            "catalog.certify_gadget.witnesses",
            "catalog.certify_gadget.enumerated",
            "metacell.reduce_to_cubic.image_cells",
            "formats.dumps_canonical.bytes",
        ):
            out[key] = self.counts[key]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"fields":["name","start","end","parent","case","is_call"],"spans":[\n')
            f.write(",\n".join(json.dumps(s, separators=(",", ":")) for s in self.spans))
            f.write("\n]}\n")


# Modules under src/loopforge when the benchmark was defined.  A module
# added later counts toward the total only; one removed reads 0.
SOURCE_MODULES = (
    "__init__", "bsl", "catalog", "cli", "dp", "errors", "formats", "grid", "metacell",
    "orientation", "reduction", "search", "tileart", "transforms",
    "genres.__init__", "genres.base", "genres.masyu", "genres.simple_loop",
    "genres.slitherlink", "genres.yajilin",
)


def source_lines(src: Path) -> dict[str, int]:
    """Line count of each module in SOURCE_MODULES, plus of all of src/loopforge."""
    package = src / "loopforge"
    out = {}
    for module in SOURCE_MODULES:
        path = package.joinpath(*module.split(".")).with_suffix(".py")
        out[f"src.{module}.lines"] = path.read_bytes().count(b"\n") if path.exists() else 0
    out["src.total.lines"] = sum(p.read_bytes().count(b"\n") for p in package.rglob("*.py"))
    return out
