"""Span tracing for the traced benchmark run.

Only the traced run installs anything.  ``Tracer.install`` replaces every
public function of the traced gpdbench modules with a timing wrapper, at every
place a gpdbench module binds it (the package namespace and each submodule's
globals), so a call from one library function into another becomes a child
span of its caller.  ``Tracer.restore`` puts every original back.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the benchmark operation that
was running, and ``counts`` a dict of exact work counts or None.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("spec", "position", "distance", "constraints", "evaluator",
           "reference", "cli")


def _span_name(module: str, function: str) -> str:
    # cli subcommands are cmd_<name>; report them as cli.<name>.
    if module == "cli" and function.startswith("cmd_"):
        function = function[4:]
    return f"{module}.{function}"


def _rows(value) -> int:
    points = getattr(value, "points", value)
    return int(len(points))


def _count_evaluate_batch(args, kwargs, result, error):
    rows = _rows(args[0] if args else kwargs["rows"])
    rejected = len(getattr(error, "row_errors", ())) if error else 0
    return {"rows": rows, "rows_rejected": rejected}


def _count_dominance_mask(args, kwargs, result, error):
    counts = {"points_in": _rows(args[0] if args else kwargs["points"])}
    if error is None:
        counts["points_kept"] = int(result.sum())
    return counts


def _count_igd(args, kwargs, result, error):
    a = _rows(args[0] if args else kwargs["approximation"])
    r = _rows(args[1] if len(args) > 1 else kwargs["reference"])
    # Computed from array sizes: igd builds the full r x a float64 matrix.
    return {"distance_pairs": r * a, "bytes_computed": 8 * r * a}


COUNTERS = {
    "evaluator.evaluate_batch": _count_evaluate_batch,
    "reference.dominance_mask": _count_dominance_mask,
    "reference.igd": _count_igd,
}


class Tracer:
    """Collects nested spans from wrapped gpdbench functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tracer, clock, counter = self, self.clock, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if counter is not None:
                    span[5] = counter(args, kwargs, result, error)

        return traced

    def install(self, package: str = "gpdbench") -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.wrap(_span_name(short, attr), value)
        binders = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module in binders:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def layer_table(spans) -> dict[str, dict]:
    """Aggregate spans per name: calls, busy_s, self_s and summed counts.

    busy_s is inclusive time.  A span nested inside a span of the same name
    adds to calls but not to busy_s, so recursion is not counted twice.
    self_s is each span's duration minus the durations of its direct
    children, which cover disjoint parts of it on one thread.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _op, counts) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        outer = True
        while parent >= 0:
            if spans[parent][0] == name:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            row["busy_s"] += end - start
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return dict(table)


_BUSY = ("position.meta_variables", "position.spherical_map", "position.p_norm",
         "distance.normalized_angle", "distance.deceptive_g", "distance.robust_g",
         "distance.valley_center", "distance.radial_profile", "distance.compose",
         "constraints.constraint_table", "spec.parse_spec")
_BUSY_SELF = ("evaluator.evaluate_batch", "reference.pareto_set_sample",
              "reference.front_sample", "reference.perturb_experiment",
              "cli.eval", "cli.search")


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric the benchmark names, flattened to numbers.

    A layer a workload never reaches reads zero.
    """
    table = layer_table(spans)

    def row(name):
        return table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    out: dict[str, float] = {}
    ev = row("evaluator.evaluate_batch")
    out["evaluator.evaluate_batch.calls"] = ev["calls"]
    out["evaluator.evaluate_batch.rows"] = ev.get("rows", 0)
    out["evaluator.evaluate_batch.rows_rejected"] = ev.get("rows_rejected", 0)
    out["evaluator.kernel_share"] = (
        (ev["busy_s"] - ev["self_s"]) / ev["busy_s"] if ev["busy_s"] else 0.0)
    for name in _BUSY:
        out[f"{name}.busy_s"] = row(name)["busy_s"]
    for name in _BUSY_SELF:
        out[f"{name}.busy_s"] = row(name)["busy_s"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    rp = row("position.realize_position")
    out["position.realize_position.calls"] = rp["calls"]
    out["position.realize_position.busy_s"] = rp["busy_s"]
    dm = row("reference.dominance_mask")
    out["reference.dominance_mask.calls"] = dm["calls"]
    out["reference.dominance_mask.points_in"] = dm.get("points_in", 0)
    out["reference.dominance_mask.points_kept"] = dm.get("points_kept", 0)
    out["reference.dominance_mask.kept_frac"] = (
        dm.get("points_kept", 0) / dm["points_in"] if dm.get("points_in") else 0.0)
    out["reference.dominance_mask.busy_s"] = dm["busy_s"]
    ig = row("reference.igd")
    out["reference.igd.calls"] = ig["calls"]
    out["reference.igd.distance_pairs"] = ig.get("distance_pairs", 0)
    out["reference.igd.bytes_computed"] = ig.get("bytes_computed", 0)
    out["reference.igd.busy_s"] = ig["busy_s"]
    return out
