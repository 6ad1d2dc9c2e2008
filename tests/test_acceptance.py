"""Acceptance battery: one end-to-end check per advertised guarantee.

Each test prints a single pass/fail line carrying the measured numbers and
enforces a wall-clock budget alongside its numeric tolerances.  The checks
run on fixed seeds so the measured values are reproducible bit for bit.
"""

import contextlib
import dataclasses
import io
import time

import numpy as np

from gpdbench import (
    ROBUST_MINIMIZER,
    ConstraintSpec,
    ProblemSpec,
    dominance_filter,
    evaluate_batch,
    front_sample,
    igd,
    pareto_set_sample,
    perturb_experiment,
)
from gpdbench.cli import main as cli_main
from gpdbench.constraints import constraint_table
from gpdbench.distance import (
    compose,
    deceptive_term,
    radial_profile,
    robust_term,
    valley_center,
    valley_radius,
)
from gpdbench.position import meta_variables, p_norm, position_point


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_position_points_sit_on_unit_surface():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 11))
        p = [1.0, 2.0, 3.0, "auto"][int(rng.integers(4))]
        q, t = [(1, 0), (5, 1), (10, 4)][int(rng.integers(3))]
        spec = ProblemSpec(objectives=m, distance_vars=1, distance_kind="robust",
                           meta_q=q, meta_t=t, norm_p=p)
        x_p = rng.uniform(-1.0, 1.0, size=(500, spec.position_dim))
        f_p = position_point(meta_variables(x_p, spec.meta_q, spec.meta_t),
                             spec.norm_p)
        worst = max(worst, float(np.max(np.abs(p_norm(f_p, spec.norm_p) - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, "unit p-norm surface", ok,
            f"worst |norm-1| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_deceptive_valley_alignment():
    # sweep 50 angles x valley indices {1,2,5,10} x oscillation counts {1,2}
    t0 = time.perf_counter()
    step = 1e-5
    x = np.arange(0.0, 1.0 + step / 2, step)
    worst_argmin = worst_jump = worst_min = 0.0
    center_exact = bound_ok = True
    for phi in np.linspace(0.0, 1.0, 50):
        for i in (1, 2, 5, 10):
            v = float(valley_center(phi, i))
            for k in (1, 2):
                r = float(valley_radius(phi, k))
                z = deceptive_term(x, v, r)
                worst_argmin = max(worst_argmin, abs(float(x[np.argmin(z)]) - v))
                worst_min = max(worst_min, float(z.min()))
                if deceptive_term(v, v, r) > 1e-6:
                    center_exact = False
                for edge in (v - r, v + r):
                    lo = deceptive_term(np.nextafter(edge, 0.0), v, r)
                    hi = deceptive_term(np.nextafter(edge, 1.0), v, r)
                    worst_jump = max(worst_jump, abs(float(lo - hi)))
                # grid minimum is curvature-limited: 0.5 z''(v) (step/2)^2
                if z.min() > 2.5 * np.pi ** 2 * (step / 2) ** 2 / r ** 2 + 1e-9:
                    bound_ok = False
    elapsed = time.perf_counter() - t0
    ok = (worst_argmin <= 1e-4 and center_exact and worst_jump <= 1e-9
          and bound_ok and elapsed < 30.0)
    _report(2, "deceptive valleys track valley_center", ok,
            f"worst argmin offset = {worst_argmin:.2e}, grid min = "
            f"{worst_min:.2e}, worst branch jump = {worst_jump:.2e}, {elapsed:.2f}s")


def test_criterion_03_robust_minimizer_location_and_values():
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 1000001)
    z = robust_term(x)
    am = float(x[np.argmin(z)])
    pinned = float(robust_term(ROBUST_MINIMIZER))
    at_02 = float(robust_term(0.2))
    elapsed = time.perf_counter() - t0
    ok = (abs(am - ROBUST_MINIMIZER) <= 1e-6
          and 0.0 < pinned <= 2e-4
          and pinned <= float(z.min())
          and abs(at_02 - 0.1309) <= 1e-3
          and elapsed < 10.0)
    _report(3, "robust needle at the pinned minimizer", ok,
            f"argmin = {am:.9f}, value = {pinned:.4e}, "
            f"term(0.2) = {at_02:.6f}, {elapsed:.2f}s")


def test_criterion_04_plateau_beats_needle_under_noise():
    t0 = time.perf_counter()
    spec = ProblemSpec(objectives=2, distance_vars=2, distance_kind="robust")
    stable = perturb_experiment(np.array([0.3, 0.2, 0.2]),
                                0.1, 500, spec, seed=11)
    brittle = perturb_experiment(
        np.array([0.3, ROBUST_MINIMIZER, ROBUST_MINIMIZER]),
        0.1, 500, spec, seed=11)
    elapsed = time.perf_counter() - t0
    ratio = brittle.worst / stable.worst
    ok = stable.worst <= brittle.worst / 3.0 and elapsed < 5.0
    _report(4, "perturbation contrast", ok,
            f"stable worst = {stable.worst:.4e}, brittle worst = "
            f"{brittle.worst:.4e}, ratio = {ratio:.0f}, {elapsed:.2f}s")


def test_criterion_05_disconnected_front_splits_into_target_islands():
    t0 = time.perf_counter()
    spec = ProblemSpec(objectives=2, distance_vars=1,
                       distance_kind="disconnected", norm_p=2.0)
    res = 2000
    fs = front_sample(spec, res)
    phis = np.sort(fs.phis)
    # the angle doubles the grid pitch here, so gaps beyond twice that split
    threshold = 2.0 * (2.0 / (res - 1))
    cuts = np.flatnonzero(np.diff(phis) > threshold)
    intervals = [(float(seg[0]), float(seg[-1]))
                 for seg in np.split(phis, cuts + 1)]
    targets = (1 / 6, 1 / 2, 5 / 6)
    hit = [iv for iv in intervals if any(iv[0] <= t <= iv[1] for t in targets)]
    extras = [iv for iv in intervals if iv not in hit]
    one_each = all(sum(iv[0] <= t <= iv[1] for t in targets) == 1 for iv in hit)
    # the only interval allowed beyond the targets is the near-reference sliver
    sliver_only = all(iv[1] < 0.03 for iv in extras)
    elapsed = time.perf_counter() - t0
    ok = len(hit) == 3 and one_each and sliver_only and elapsed < 5.0
    _report(5, "disconnected front islands", ok,
            f"{len(intervals)} intervals, target islands = "
            f"{[(round(a, 4), round(b, 4)) for a, b in hit]}, {elapsed:.2f}s")


def test_criterion_06_angular_constraints_reshape_the_front():
    t0 = time.perf_counter()
    keep_away = tuple(ConstraintSpec(kind="min_angle", reference=f"e{j}",
                                     threshold_a=0.5) for j in (1, 2, 3))
    spec_axis = ProblemSpec(objectives=3, distance_vars=1,
                            distance_kind="robust", constraints=keep_away)
    _, pole = constraint_table(np.array([1.0, 0.0, 0.0]), spec_axis.constraints)
    _, diag = constraint_table(np.ones(3) / np.sqrt(3.0), spec_axis.constraints)
    fs_axis = front_sample(spec_axis, 20)
    gaps = np.min([np.linalg.norm(fs_axis.position_points - np.eye(3)[j], axis=1)
                   for j in range(3)])

    band = ConstraintSpec(kind="band", reference="diagonal",
                          threshold_a=0.3, threshold_b=0.7)
    spec_band = ProblemSpec(objectives=3, distance_vars=1,
                            distance_kind="robust", constraints=(band,))
    fs_all = front_sample(dataclasses.replace(spec_band, constraints=()), 40)
    fs_band = front_sample(spec_band, 40)
    dropped_low = int(np.sum(fs_all.phis < 0.3))
    dropped_high = int(np.sum(fs_all.phis > 0.7))
    elapsed = time.perf_counter() - t0
    ok = (pole[0] == 0.5 and not (pole == 0.0).all() and (diag == 0.0).all()
          and gaps > 0.1
          and fs_band.points.shape[0] < fs_all.points.shape[0]
          and np.all((fs_band.phis >= 0.3) & (fs_band.phis <= 0.7))
          and dropped_low > 0 and dropped_high > 0
          and elapsed < 5.0)
    _report(6, "constraints reshape the front", ok,
            f"pole violation = {pole[0]}, band kept "
            f"{fs_band.points.shape[0]}/{fs_all.points.shape[0]} "
            f"(low {dropped_low}, high {dropped_high}), {elapsed:.2f}s")


def test_criterion_07_meta_variables_bias_random_points_inward():
    t0 = time.perf_counter()
    q, t = 10, 4
    rng = np.random.default_rng(7)
    x_p = rng.uniform(-1.0, 1.0, size=(10000, 2 * q + t))
    means = meta_variables(x_p, q, t).mean(axis=0)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(means < 0.25)) and elapsed < 5.0
    _report(7, "window sums concentrate near zero", ok,
            f"mean meta values = {np.round(means, 4).tolist()}, {elapsed:.2f}s")


def test_criterion_08_known_solutions_land_on_the_sampled_front():
    t0 = time.perf_counter()
    details = []
    ok = True
    for kind, tol in (("deceptive", 1e-9), ("robust", 1e-9)):
        for m, res in ((2, 500), (3, 22)):
            spec = ProblemSpec(objectives=m, distance_vars=2,
                               distance_kind=kind, meta_q=5, meta_t=1,
                               norm_p="auto")
            ss = pareto_set_sample(spec, 500)
            ok = ok and bool(np.all(ss.residuals <= 1e-9))
            pts = np.array([ev.objectives
                            for ev in evaluate_batch(ss.vectors, spec)])
            val = igd(pts, front_sample(spec, res))
            details.append(f"{kind} M={m}: {val:.2e}")
            ok = ok and val <= tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(8, "pareto set vectors reproduce the front", ok,
            f"igd {'; '.join(details)}, {elapsed:.2f}s")


def test_criterion_09_dominance_filter_matches_all_pairs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    agree = True
    for trial in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(50, 1001))
        pts = rng.uniform(0.0, 1.0, size=(n, m))
        if trial % 3 == 0:
            pts = np.round(pts, 1)  # force ties and duplicate rows
        le = np.all(pts[None, :, :] <= pts[:, None, :], axis=-1)
        lt = np.any(pts[None, :, :] < pts[:, None, :], axis=-1)
        want = pts[~np.any(le & lt, axis=1)]
        if not np.array_equal(dominance_filter(pts), want):
            agree = False
    elapsed = time.perf_counter() - t0
    ok = agree and elapsed < 20.0
    _report(9, "dominance filter equals all-pairs oracle", ok,
            f"100 instances up to 1000 points, dims 2-5, {elapsed:.2f}s")


def test_criterion_10_random_search_stalls_on_the_deceptive_landscape():
    t0 = time.perf_counter()
    spec = ProblemSpec(objectives=3, distance_vars=5, distance_kind="deceptive",
                       meta_q=5, meta_t=1, norm_p="auto")
    rng = np.random.default_rng(1)
    x_p = rng.uniform(-1.0, 1.0, size=(20000, spec.position_dim))
    x_d = rng.uniform(0.0, 1.0, size=(20000, spec.distance_vars))
    objs = np.array([ev.objectives for ev in
                     evaluate_batch(np.column_stack([x_p, x_d]), spec)])
    front = front_sample(spec, 22)
    searched = igd(dominance_filter(objs), front)
    # counterfactual: the same position draws with the distance part solved
    zeros = np.zeros(len(x_p))
    f_p = position_point(meta_variables(x_p, spec.meta_q, spec.meta_t),
                         spec.norm_p)
    solved = compose(f_p, radial_profile(zeros, zeros, "deceptive",
                                         spec.composition), spec.composition)
    baseline = igd(dominance_filter(solved), front)
    elapsed = time.perf_counter() - t0
    ok = searched >= 5.0 * baseline and elapsed < 30.0
    _report(10, "random search futility", ok,
            f"igd searched = {searched:.3f} vs position-only = {baseline:.4f} "
            f"(x{searched / baseline:.0f}), {elapsed:.2f}s")


def test_criterion_11_cli_runs_are_byte_deterministic(tmp_path):
    t0 = time.perf_counter()

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0
        return buf.getvalue()

    spec = tmp_path / "m2.spec"
    spec.write_text("objectives = 2\ndistance_vars = 2\ndistance = robust\n")
    ranges = tmp_path / "ranges.txt"
    ranges.write_text("objectives = 2..4\ndistance_vars = 2..6\n"
                      "distance = deceptive, robust\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.3,0.2,0.2\n")

    outputs = []
    for tag in ("a", "b"):
        suite_dir = tmp_path / f"suite_{tag}"
        search_csv = tmp_path / f"search_{tag}.csv"
        perturb_csv = tmp_path / f"perturb_{tag}.csv"
        stdout = run(["suite", "--ranges", str(ranges), "--seed", "5",
                      "--count", "4", "--out-dir", str(suite_dir)])
        stdout += run(["search", "--spec", str(spec), "--budget", "3000",
                       "--seed", "2", "--out", str(search_csv)])
        stdout += run(["perturb", "--spec", str(spec), "--in", str(pts),
                       "--radius", "0.1", "--samples", "200", "--seed", "11",
                       "--out", str(perturb_csv)])
        blob = b"".join(f.read_bytes()
                        for f in sorted(suite_dir.glob("*.spec")))
        blob += search_csv.read_bytes() + perturb_csv.read_bytes()
        outputs.append((stdout.replace(str(suite_dir), "<dir>"), blob))
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and elapsed < 10.0
    _report(11, "seeded CLI output is byte-identical", ok,
            f"suite + search + perturb twice, {elapsed:.2f}s")
