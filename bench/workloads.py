"""The benchmark's three workloads: seeded inputs, timed operations, checks.

Every workload runs in one process and starts no threads or processes.  A
workload is a fixed list of operations repeated in passes; each pass appends
timing samples, and ``run`` keeps passing until the time is up and the
minimum pass count is met.  Output checks run outside the timed regions.  A
check that needs a library call is deferred to ``verify``, which the runner
calls after tracing has been removed, so checks never appear as spans.

All library calls go through attribute lookups on ``gpdbench`` and
``gpdbench.cli`` at call time, so the traced run sees the benchmark's own
calls into each layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import numpy as np

import gpdbench
import gpdbench.cli

clock = time.perf_counter

# Instances are kept as spec text so set-up pays for parsing them.
M2_DECEPTIVE = ("objectives = 2\nmeta_q = 5\nmeta_t = 1\ndistance_vars = 10\n"
                "distance = deceptive\n")
M3_DECEPTIVE = ("objectives = 3\nmeta_q = 10\nmeta_t = 4\ndistance_vars = 10\n"
                "distance = deceptive\n")
M3_DISCONNECTED = ("objectives = 3\nmeta_q = 5\nmeta_t = 1\ndistance_vars = 10\n"
                   "distance = disconnected\n")
M5_ROBUST_BAND = ("objectives = 5\nmeta_q = 6\nmeta_t = 2\ndistance_vars = 10\n"
                  "distance = robust\n\n[constraint]\ntype = band\n"
                  "reference = diagonal\nthreshold_a = 0.2\nthreshold_b = 0.8\n")
M10_DECEPTIVE = ("objectives = 10\nmeta_q = 4\nmeta_t = 1\ndistance_vars = 20\n"
                 "distance = deceptive\n")
M10_DECEPTIVE_DISSIMILAR = M10_DECEPTIVE + "dissimilar = true\n"


class Ledger:
    """Operations attempted and failed, plus the output digest.

    An operation fails when it raises or when any check on its output fails.
    The digest hashes the doubles of every output in order; 17 significant
    digits round-trip a double exactly, so the bytes carry the same
    information as the 17-digit text.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0
        self.failed: dict[int, str] = {}
        self._digest = hashlib.sha256()

    def begin(self) -> int:
        self.ops += 1
        if self.tracer is not None:
            self.tracer.op = self.ops
        return self.ops

    def fail(self, op: int, message: str) -> None:
        self.failed.setdefault(op, message)

    def check(self, op: int, ok, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def record(self, *values) -> None:
        for value in values:
            if isinstance(value, str):
                self._digest.update(value.encode())
            else:
                arr = np.ascontiguousarray(value, dtype="<f8")
                self._digest.update(str(arr.shape).encode())
                self._digest.update(arr.tobytes())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def objectives(evals) -> np.ndarray:
    return np.array([e.objectives for e in evals], dtype=float)


def oracle_mask(points: np.ndarray) -> np.ndarray:
    """All-pairs nondominance, the reference the filter must equal."""
    le = np.all(points[None, :, :] <= points[:, None, :], axis=-1)
    lt = np.any(points[None, :, :] < points[:, None, :], axis=-1)
    return ~np.any(le & lt, axis=1)


def row_keys(a: np.ndarray) -> np.ndarray:
    """One opaque value per row, so rows can be matched with np.isin."""
    a = np.ascontiguousarray(a, dtype=float)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def same_evaluation(a, b) -> bool:
    # repr keeps every bit of a double, including the sign of zero.
    return repr(a) == repr(b)


def read_csv(path: Path) -> np.ndarray:
    rows = [[float(v) for v in line.split(",")]
            for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    return np.array(rows, dtype=float)


def box(spec) -> tuple[np.ndarray, np.ndarray]:
    lo = np.concatenate([np.full(spec.position_dim, -1.0),
                         np.zeros(spec.distance_vars)])
    return lo, np.ones(spec.total_dim)


class Speedometer:
    """Times a fixed calibration kernel between operations.

    On a shared host this process's speed drifts by tens of percent over
    minutes, for interpreter and numpy code alike, so raw timings of runs
    made minutes apart differ by more than any bound worth having.  The
    kernel mixes a Python loop with numpy ufuncs on a cache-sized array and
    calls no gpdbench code.  ``factor`` is the reference kernel time over the
    median measured one: a duration times the factor is that duration at
    reference speed.
    """

    reference_s = 0.0075

    def __init__(self):
        self.array = np.linspace(0.1, 1.0, 40000).reshape(200, 200)
        self.samples: list[float] = []

    def tick(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = clock()
            total = 0
            for i in range(40000):
                total += i * i
            b = self.array
            for _ in range(10):
                b = np.sin(b) + np.sqrt(b)
            self.samples.append(clock() - t0)

    def factor(self) -> float:
        return self.reference_s / median(self.samples)


class Workload:
    """A fixed list of operations repeated in passes.

    ``self.speed.tick()`` runs between operations, outside timed regions.
    """

    name = ""
    min_passes = 1
    trace_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.deferred: list = []
        self.speed = Speedometer()

    def setup(self) -> None:
        raise NotImplementedError

    def one_pass(self, index: int, ledger: Ledger, samples) -> None:
        raise NotImplementedError

    def run(self, ledger: Ledger, seconds: float | None = None,
            passes: int | None = None) -> dict[str, list[float]]:
        """Run whole passes: exactly `passes`, or until `seconds` have gone.

        A timed run starts with one warm-up pass whose timings are dropped,
        so first-touch costs of large arrays do not land in the first sample.
        Its operations are still checked and counted.
        """
        samples: dict[str, list[float]] = defaultdict(list)
        done = 0
        if passes is None:
            self.one_pass(done, ledger, defaultdict(list))
            done += 1
        start = clock()
        while True:
            if passes is not None:
                if done >= passes:
                    break
            elif done > self.min_passes and clock() - start >= seconds:
                break
            self.speed.tick(2)
            self.one_pass(done, ledger, samples)
            done += 1
        samples["passes"] = [done]
        return samples

    def verify(self, ledger: Ledger) -> None:
        """Deferred checks: each entry is (op, check function, message)."""
        for op, check, message in self.deferred:
            try:
                ledger.check(op, check(), message)
            except Exception as exc:  # a crashing check is a failed check
                ledger.fail(op, f"{message}: {_error(exc)}")
        self.deferred.clear()


class OptimizerLoop(Workload):
    """Closed loop, one client: a seeded generational optimizer.

    Episodes rotate over three instances; each starts a fresh archive and
    runs a fixed number of generations, so every pass (one rotation) has the
    same archive-size profile and per-generation latency is stationary.
    """

    name = "optimizer-loop"
    specs_text = (M3_DECEPTIVE, M5_ROBUST_BAND, M10_DECEPTIVE_DISSIMILAR)
    front_resolutions = (30, 8, 8)
    population = 100
    generations = 10
    igd_every = 10
    sigma = 0.1
    min_generations = 1000
    trace_passes = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.min_passes = math.ceil(
            self.min_generations / (self.generations * len(self.specs_text)))

    def setup(self):
        self.specs = [gpdbench.parse_spec(t) for t in self.specs_text]
        self.fronts = [gpdbench.front_sample(s, r)
                       for s, r in zip(self.specs, self.front_resolutions)]
        self.rng = np.random.default_rng(self.seed)

    def one_pass(self, index, ledger, samples):
        pass_s = eval_s = 0.0
        rows = 0
        for k in range(len(self.specs)):
            if k:
                self.speed.tick()
            spent, evaluating, evaluated = self.episode(k, ledger, samples)
            pass_s += spent
            eval_s += evaluating
            rows += evaluated
        samples["pass_s"].append(pass_s)
        samples["evals_per_s"].append(rows / eval_s)

    def episode(self, k, ledger, samples):
        spec, front, rng = self.specs[k], self.fronts[k], self.rng
        lo, hi = box(spec)
        pool = rng.uniform(lo, hi, size=(self.population, spec.total_dim))
        arch_f = np.empty((0, spec.objectives))
        arch_x = np.empty((0, spec.total_dim))
        spent = evaluating = 0.0
        rows = 0
        last = None
        for gen in range(self.generations):
            op = ledger.begin()
            try:
                t0 = clock()
                parents = pool[rng.integers(0, len(pool), self.population)]
                kids = np.clip(parents + rng.normal(0.0, self.sigma, parents.shape),
                               lo, hi)
                t1 = clock()
                evals = gpdbench.evaluate_batch(kids, spec)
                t2 = clock()
                f = objectives(evals)
                ok = np.fromiter((e.report.feasible for e in evals), bool, len(evals))
                merged = np.concatenate([arch_f, f[ok]])
                merged_x = np.concatenate([arch_x, kids[ok]])
                new_f = gpdbench.dominance_filter(merged)
                keep = np.isin(row_keys(merged), row_keys(new_f))
                value = None
                if (gen + 1) % self.igd_every == 0:
                    value = gpdbench.igd(new_f, front)
                t3 = clock()
            except Exception as exc:
                ledger.fail(op, _error(exc))
                continue
            spent += t3 - t0
            evaluating += t2 - t1
            rows += len(kids)
            samples["gen_ms"].append((t3 - t0) * 1e3)
            ledger.check(op, int(keep.sum()) == len(new_f),
                         "archive rows do not match the filter output")
            arch_f, arch_x = new_f, merged_x[keep]
            if len(arch_x):
                pool = arch_x
            ledger.record(f)
            if value is not None:
                ledger.record([value])
                ledger.check(op, math.isfinite(value) and value >= 0.0,
                             f"igd is {value!r}")
            j = gen % len(kids)
            self.deferred.append((
                op, lambda s=spec, x=kids[j], e=evals[j]:
                same_evaluation(gpdbench.evaluate(x, s), e),
                "evaluate differs from its evaluate_batch row"))
            last = (op, merged, new_f)
        ledger.record(arch_f)
        if last is not None:
            op, merged, new_f = last
            ledger.check(op, np.array_equal(merged[oracle_mask(merged)], new_f),
                         "dominance_filter differs from the all-pairs oracle")
        return spent, evaluating, rows


class BulkScoring(Workload):
    """Large-batch throughput: library batches, perturbation, CLI eval/search."""

    name = "bulk-scoring"
    batch_rows = 10000
    perturb_samples = 100000
    perturb_radius = 0.05
    csv_rows = 10000
    search_budget = 20000
    search_resolution = 24  # the CLI's own default at M = 3
    min_passes = 3
    trace_passes = 2

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.m3, self.m5, self.m10 = (gpdbench.parse_spec(t) for t in
                                      (M3_DECEPTIVE, M5_ROBUST_BAND,
                                       M10_DECEPTIVE_DISSIMILAR))
        rng = np.random.default_rng(self.seed)
        self.batches = []
        for spec in (self.m3, self.m10):
            lo, hi = box(spec)
            self.batches.append(rng.uniform(lo, hi, size=(self.batch_rows, spec.total_dim)))
        pset = gpdbench.pareto_set_sample(self.m5, 64)
        self.base_row = pset.vectors[int(rng.integers(len(pset.vectors)))]
        self.base_residual = float(pset.residuals.max())
        lo, hi = box(self.m5)
        self.csv_x = rng.uniform(lo, hi, size=(self.csv_rows, self.m5.total_dim))
        self.paths = {name: self.workdir / name for name in
                      ("m3.spec", "m5.spec", "x.csv", "f.csv", "archive.csv")}
        self.paths["m3.spec"].write_text(M3_DECEPTIVE, encoding="utf-8")
        self.paths["m5.spec"].write_text(M5_ROBUST_BAND, encoding="utf-8")
        self.paths["x.csv"].write_text(
            "".join(",".join(repr(float(v)) for v in row) + "\n" for row in self.csv_x),
            encoding="utf-8")
        self.cli_outputs = []

    def one_pass(self, index, ledger, samples):
        p = self.paths
        eval_s = 0.0
        pass_s = 0.0
        for spec, batch in ((self.m3, self.batches[0]), (self.m10, self.batches[1])):
            self.speed.tick()
            op = ledger.begin()
            try:
                t0 = clock()
                evals = gpdbench.evaluate_batch(batch, spec)
                dt = clock() - t0
            except Exception as exc:
                ledger.fail(op, _error(exc))
                continue
            eval_s += dt
            pass_s += dt
            ledger.record(objectives(evals))
            for j in (index, len(batch) // 2 + index):
                self.deferred.append((
                    op, lambda s=spec, x=batch[j], e=evals[j]:
                    same_evaluation(gpdbench.evaluate(x, s), e),
                    "evaluate differs from its evaluate_batch row"))
        samples["evals_per_s"].append(2 * self.batch_rows / eval_s)

        self.speed.tick(2)
        op = ledger.begin()
        try:
            t0 = clock()
            report = gpdbench.perturb_experiment(
                self.base_row, self.perturb_radius, self.perturb_samples, self.m5,
                seed=self.seed * 1000 + index)
            dt = clock() - t0
            pass_s += dt
            samples["perturb_samples_per_s"].append(self.perturb_samples / dt)
            ledger.record([report.worst, report.mean], report.base_objectives)
            ledger.check(op, 0.0 <= report.mean <= report.worst < math.inf
                         and report.samples == self.perturb_samples,
                         f"perturbation report out of range: {report}")
            ledger.check(op, self.base_residual <= 1e-9,
                         f"Pareto-set residual {self.base_residual:.3e} > 1e-9")
            self.deferred.append((
                op, lambda r=report: r.base_objectives ==
                gpdbench.evaluate(self.base_row, self.m5).objectives,
                "perturbation base differs from evaluate"))
        except Exception as exc:
            ledger.fail(op, _error(exc))

        self.speed.tick(2)
        op = ledger.begin()
        argv = ["eval", "--spec", str(p["m5.spec"]), "--in", str(p["x.csv"]),
                "--out", str(p["f.csv"])]
        code, dt, _ = self.cli(argv)
        pass_s += dt
        samples["cli_eval_rows_per_s"].append(self.csv_rows / dt)
        ledger.check(op, code == 0, f"cli eval exited {code}")
        if code == 0:
            table = read_csv(p["f.csv"])
            ledger.record(table)
            self.cli_outputs.append((op, table))

        self.speed.tick(2)
        op = ledger.begin()
        argv = ["search", "--spec", str(p["m3.spec"]), "--budget",
                str(self.search_budget), "--seed", str(self.seed + index),
                "--out", str(p["archive.csv"])]
        code, dt, stdout = self.cli(argv)
        pass_s += dt
        samples["cli_search_s"].append(dt)
        ledger.check(op, code == 0, f"cli search exited {code}")
        if code == 0:
            archive = read_csv(p["archive.csv"])
            ledger.record(archive, stdout)
            ledger.check(op, bool(np.all(oracle_mask(archive))),
                         "search archive holds dominated points")
            self.deferred.append((op, lambda a=archive, out=stdout: self.search_igd(a, out),
                                  "search igd differs from the library igd"))
        samples["pass_s"].append(pass_s)

    @staticmethod
    def cli(argv):
        out = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out):
                code = gpdbench.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, clock() - t0, out.getvalue()

    def search_igd(self, archive, stdout):
        front = gpdbench.front_sample(self.m3, self.search_resolution)
        want = f"igd = {format(gpdbench.igd(archive, front), '.17g')}"
        return want in stdout.splitlines()

    def verify(self, ledger):
        if self.cli_outputs:
            evals = gpdbench.evaluate_batch(self.csv_x, self.m5)
            want = np.array([list(e.objectives) + list(e.phi_per_constraint)
                             + list(e.report.violations)
                             + [1.0 if e.report.feasible else 0.0] for e in evals])
            for op, table in self.cli_outputs:
                ledger.check(op, np.array_equal(table, want),
                             "cli eval CSV differs from the library")
            self.cli_outputs.clear()
        super().verify(ledger)


class ReferenceSuite(Workload):
    """Reference fronts, Pareto-set samples and their IGD, per instance."""

    name = "reference-suite"
    # (spec, front resolution, Pareto-set size, Pareto-set IGD tolerance)
    instances = (
        (M2_DECEPTIVE, 2000, 2000, 1e-9),
        (M3_DECEPTIVE, 60, 3600, 1e-9),
        (M3_DISCONNECTED, 60, 3600, 1e-2),  # robust g at the pinned minimizer
        (M5_ROBUST_BAND, 12, 2000, None),
        (M10_DECEPTIVE, 15, 2000, None),
    )
    min_passes = 3
    trace_passes = 2

    def setup(self):
        self.specs = [gpdbench.parse_spec(row[0]) for row in self.instances]
        self.rng = np.random.default_rng(self.seed)

    def one_pass(self, index, ledger, samples):
        times = dict.fromkeys(("front_s", "pset_s", "igd_s", "eval_s"), 0.0)
        rows = 0
        for i in self.rng.permutation(len(self.instances)):
            self.speed.tick()
            spec = self.specs[i]
            _, resolution, n, tolerance = self.instances[i]
            op = ledger.begin()
            try:
                t0 = clock()
                front = gpdbench.front_sample(spec, resolution)
                t1 = clock()
                pset = gpdbench.pareto_set_sample(spec, n)
                t2 = clock()
                evals = gpdbench.evaluate_batch(pset.vectors, spec)
                t3 = clock()
                objs = objectives(evals)
                t4 = clock()
                value = gpdbench.igd(objs, front)
                t5 = clock()
            except Exception as exc:
                ledger.fail(op, _error(exc))
                continue
            times["front_s"] += t1 - t0
            times["pset_s"] += t2 - t1
            times["eval_s"] += t3 - t2
            times["igd_s"] += t5 - t4
            rows += n
            ledger.record(front.points, pset.vectors, objs, [value])
            norm = np.sum(front.position_points ** spec.norm_p, axis=-1) ** (1.0 / spec.norm_p)
            worst = float(np.max(np.abs(norm - 1.0)))
            ledger.check(op, worst <= 1e-12, f"front p-norm off by {worst:.3e}")
            residual = float(pset.residuals.max())
            ledger.check(op, residual <= 1e-9, f"Pareto-set residual {residual:.3e}")
            ok = math.isfinite(value) and (tolerance is None or value <= tolerance)
            ledger.check(op, ok, f"Pareto-set igd {value!r} above {tolerance}")
        for key in ("front_s", "pset_s", "igd_s"):
            samples[key].append(times[key])
        samples["pass_s"].append(times["front_s"] + times["pset_s"] + times["igd_s"])
        samples["evals_per_s"].append(rows / times["eval_s"])


WORKLOADS = {w.name: w for w in (OptimizerLoop, BulkScoring, ReferenceSuite)}
