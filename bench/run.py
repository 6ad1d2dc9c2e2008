"""gpdbench benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload optimizer-loop --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from the ``src/`` directory next
to this one, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics with nothing installed in the library and scales their
timings to the reference speed of a calibration kernel.  ``--trace 1``
runs a fixed number of passes on two instances of the workload, alternating
an untraced one and one with every public function of the traced modules
wrapped, and reports per-layer metrics from the traced spans.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run records and spans are written under ``.bench_out/`` in the
repository root.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = os.cpu_count() or 1
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("optimizer-loop", "bulk-scoring", "reference-suite")

# Metrics the final JSON line carries, with their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "evals_per_s": "1/s", "pass_s": "s"}
PER_LAYER_COUNTS = {"calls", "rows", "points_in", "points_kept",
                    "distance_pairs", "bytes_computed"}
# Per-layer metrics that every workload reaches; the rest are only reported.
PER_LAYER = (
    "evaluator.evaluate_batch.calls", "evaluator.evaluate_batch.rows",
    "evaluator.evaluate_batch.busy_s", "evaluator.evaluate_batch.self_s",
    "evaluator.kernel_share",
    "position.meta_variables.busy_s", "position.spherical_map.busy_s",
    "position.p_norm.busy_s",
    "distance.normalized_angle.busy_s", "distance.deceptive_g.busy_s",
    "distance.robust_g.busy_s", "distance.valley_center.busy_s",
    "distance.radial_profile.busy_s", "distance.compose.busy_s",
    "constraints.constraint_table.busy_s",
    "reference.dominance_mask.calls", "reference.dominance_mask.points_in",
    "reference.dominance_mask.points_kept", "reference.dominance_mask.kept_frac",
    "reference.dominance_mask.busy_s",
    "reference.igd.calls", "reference.igd.distance_pairs",
    "reference.igd.bytes_computed", "reference.igd.busy_s",
    "reference.front_sample.busy_s", "reference.front_sample.self_s",
    "spec.parse_spec.busy_s", "package.import_s", "trace.overhead_frac",
)
# The workload-specific end-to-end figures, reported by name but not gated.
REPORTED = {
    "optimizer-loop": (("gen_p50_ms", "gen_ms", "ms", 50),
                       ("gen_p99_ms", "gen_ms", "ms", 99),
                       ("evals_per_s", "evals_per_s", "1/s", 50)),
    "bulk-scoring": (("evals_per_s", "evals_per_s", "1/s", 50),
                     ("perturb_samples_per_s", "perturb_samples_per_s", "1/s", 50),
                     ("cli_eval_rows_per_s", "cli_eval_rows_per_s", "1/s", 50),
                     ("cli_search_s", "cli_search_s", "s", 50)),
    "reference-suite": (("front_s", "front_s", "s", 50), ("pset_s", "pset_s", "s", 50),
                        ("igd_s", "igd_s", "s", 50), ("evals_per_s", "evals_per_s", "1/s", 50)),
}


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package() -> float:
    """Import gpdbench from this checkout's src/ and return the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gpdbench
    import_s = time.perf_counter() - t0
    where = Path(gpdbench.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"gpdbench resolved to {where}, not under {SRC}")
    return import_s


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_label(n: int):
    """Highest whole percentile with at least ten samples beyond it."""
    q = int(100 - 1000 / n) if n else 0
    return q if q > 50 else None


def describe(name, values, unit, q) -> str:
    n = len(values)
    line = f"{name} = {percentile(values, q):.6g} {unit} (p{q} of n={n}"
    tail = tail_label(n)
    if q == 50 and tail is not None:
        line += f", p{tail} = {percentile(values, tail):.6g}"
    return line + ")"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(args) -> float:
    """Wall time from starting a fresh interpreter to its workload being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def workdir(name: str, tag: str) -> Path:
    return OUT / f"work-{name}-{os.getpid()}-{tag}"


def run_untraced(args, workloads, Ledger):
    """End-to-end metrics at reference speed; raw medians are printed too."""
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    ledger = Ledger()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir(args.workload, "run"))
    workload.setup()
    samples = workload.run(ledger, seconds=args.seconds)
    workload.verify(ledger)
    factor = workload.speed.factor()
    raw = {
        "setup_s": median(setups),
        "evals_per_s": median(samples["evals_per_s"]),
        "pass_s": median(samples["pass_s"]),
    }
    metrics = {
        "setup_s": raw["setup_s"] * factor,
        "peak_rss_mb": peak_rss_mb(),
        "evals_per_s": raw["evals_per_s"] / factor,
        "pass_s": raw["pass_s"] * factor,
    }
    lines = [describe("setup_s", setups, "s", 50)]
    lines += [describe(name, samples[key], unit, q)
              for name, key, unit, q in REPORTED[args.workload]]
    lines.append(describe("pass_s", samples["pass_s"], "s", 50))
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    lines.append(f"speed factor = {factor:.6g} (calibration kernel, "
                 f"n={len(workload.speed.samples)}); at reference speed: "
                 + ", ".join(f"{k} = {metrics[k]:.6g} {END_TO_END[k]}" for k in raw))
    report = {"setup_s": setups, "samples": dict(samples), "speed_factor": factor,
              "speed_samples": workload.speed.samples, "raw_medians": raw}
    return ledger, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines, report, None


def run_traced(args, workloads, Ledger, import_s):
    """Same seed, two instances: one untraced, one traced, passes alternating.

    Alternating which side runs first in each pair spreads warm-up effects
    evenly, so the wall-time ratio estimates the tracing overhead.
    """
    import tracing
    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    sides = {}
    for tag in ("untraced", "traced"):
        workload = cls(args.seed, workdir(args.workload, tag))
        ledger = Ledger(tracer if tag == "traced" else None)
        sides[tag] = (workload, ledger, defaultdict(list))
    walls = dict.fromkeys(sides, 0.0)
    for index in range(-1, cls.trace_passes):
        order = ("untraced", "traced") if index % 2 else ("traced", "untraced")
        for tag in order:
            workload, ledger, samples = sides[tag]
            if tag == "traced":
                tracer.install()
            try:
                t0 = time.perf_counter()
                if index < 0:
                    workload.setup()
                else:
                    workload.one_pass(index, ledger, samples)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.restore()
            if index >= 0:
                walls[tag] += elapsed
    for workload, ledger, _ in sides.values():
        workload.verify(ledger)
    untraced, traced = sides["untraced"][1], sides["traced"][1]
    op = traced.begin()
    traced.check(op, untraced.digest == traced.digest,
                 f"traced digest {traced.digest} != untraced {untraced.digest}")
    # Report both sides as one ledger; untraced failures keep negative ids.
    traced.ops += untraced.ops
    for key, message in untraced.failed.items():
        traced.failed[-key] = message
    layers = tracing.layer_metrics(tracer.spans)
    layers["package.import_s"] = import_s
    layers["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    lines = [f"{name} = {value:.6g}" for name, value in layers.items()]
    metrics = {name: (layers[name], unit_of(name)) for name in PER_LAYER}
    report = {"untraced_s": walls["untraced"], "traced_s": walls["traced"],
              "untraced_digest": untraced.digest, "layers": layers}
    return traced, metrics, lines, report, tracer.spans


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in PER_LAYER_COUNTS:
        return "count"
    return "s" if last.endswith("_s") else "fraction"


def run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    caps = cap_threads()
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import gpdbench from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads
    from workloads import Ledger

    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir(args.workload, "probe"))
        workload.setup()
        print("ready", flush=True)
        _remove(workload.workdir)
        return 0

    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            ledger, metrics, lines, report, spans = run_traced(args, workloads, Ledger, import_s)
        else:
            ledger, metrics, lines, report, spans = run_untraced(args, workloads, Ledger)
    finally:
        for path in OUT.glob(f"work-{args.workload}-{os.getpid()}-*"):
            _remove(path)

    import numpy
    import scipy
    attempted, failed = ledger.ops, len(ledger.failed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "thread_caps": caps,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
        "src_sha256": source_digest(), "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": [msg for _, msg in sorted(ledger.failed.items())][:20],
        "digest": ledger.digest, **report,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "counts"],
             "spans": spans}))
    for line in lines:
        print(line)
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for message in record["failures"]:
        print(f"failure: {message}")
    print(f"digest = {ledger.digest}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
