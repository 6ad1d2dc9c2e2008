"""Reference machinery: fronts, Pareto-set realization, filtering, metrics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import gpdbench.reference
from gpdbench import (
    ROBUST_MINIMIZER,
    ConstraintSpec,
    FrontSample,
    ProblemSpec,
    dominance_filter,
    dominance_mask,
    evaluate,
    evaluate_arrays,
    front_sample,
    igd,
    pareto_set_sample,
    perturb_experiment,
)
from gpdbench.distance import (
    compose,
    normalized_angle,
    radial_profile,
    robust_g,
    robust_term,
    valley_center,
)
from gpdbench.evaluator import _landscape_g, _objective_stage
from gpdbench.position import meta_variables, p_norm
from gpdbench.reference import _CHUNK, _PERTURB_BLOCK, _lattice, _set_targets
from gpdbench.spec import COMPOSITIONS


def brute_force_nondominated(pts):
    le = np.all(pts[None, :, :] <= pts[:, None, :], axis=-1)
    lt = np.any(pts[None, :, :] < pts[:, None, :], axis=-1)
    return ~np.any(le & lt, axis=1)


def test_front_sample_biobjective_circle():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive",
                       norm_p=2.0)
    fs = front_sample(spec, 100)
    assert fs.points.shape == (100, 2)
    np.testing.assert_allclose(np.linalg.norm(fs.points, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(fs.points, fs.position_points)
    assert fs.phis.shape == (100,)


def test_front_sample_respects_p_norm():
    spec = ProblemSpec(objectives=3, distance_vars=1, distance_kind="robust",
                       norm_p=1.0)
    fs = front_sample(spec, 12)
    np.testing.assert_allclose(p_norm(fs.position_points, 1.0), 1.0, rtol=1e-12)
    assert fs.points.shape[0] == 12 * 12


def test_front_sample_phis_match_reference_angles():
    spec = ProblemSpec(objectives=3, distance_vars=1, distance_kind="robust",
                       distance_reference=(2.0, 1.0, 1.0))
    fs = front_sample(spec, 9)
    want = normalized_angle(fs.position_points, np.array([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(fs.phis, want, rtol=1e-12)


def test_front_sample_low_discrepancy_regime():
    spec = ProblemSpec(objectives=6, distance_vars=2, distance_kind="robust")
    fs = front_sample(spec, 5)
    # candidate budget is resolution cubed before dominance filtering
    assert 0 < fs.points.shape[0] <= 125
    np.testing.assert_allclose(p_norm(fs.position_points, spec.norm_p), 1.0,
                               rtol=1e-12)


def test_front_sample_drops_infeasible_points():
    c = ConstraintSpec(kind="min_angle", reference="e1", threshold_a=0.5)
    spec = ProblemSpec(objectives=3, distance_vars=1, distance_kind="robust",
                       constraints=(c,))
    fs = front_sample(spec, 15)
    assert fs.points.shape[0] < 15 * 15
    # the e1 pole violates the keep-away constraint, so it cannot appear
    gaps = np.linalg.norm(fs.position_points - np.array([1.0, 0.0, 0.0]), axis=1)
    assert gaps.min() > 0.1
    full = front_sample(dataclasses.replace(spec, constraints=()), 15)
    assert full.points.shape[0] > fs.points.shape[0]


def test_front_without_constraints_is_the_unfiltered_front(monkeypatch):
    # The front of the spec with its constraints dropped has the bytes of
    # the spec's own front with the feasibility filter keeping every point.
    band = ConstraintSpec(kind="band", reference="diagonal", threshold_a=0.3, threshold_b=0.7)
    spec = ProblemSpec(objectives=3, distance_vars=2, distance_kind="disconnected",
                       constraints=(band,))
    bare = front_sample(dataclasses.replace(spec, constraints=()), 30)
    carved = front_sample(spec, 30)
    monkeypatch.setattr(gpdbench.reference, "constraint_table",
                        lambda f_p, cons: (None, np.zeros(f_p.shape[:-1] + (len(cons),))))
    unfiltered = front_sample(spec, 30)
    assert bare.points.shape == (528, 3) and carved.points.shape[0] < 528
    for field in ("points", "position_points", "phis"):
        assert getattr(bare, field).tobytes() == getattr(unfiltered, field).tobytes()


def test_front_sample_empty_is_legitimate():
    c = ConstraintSpec(kind="band", reference="diagonal",
                       threshold_a=0.985, threshold_b=0.99)
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust",
                       constraints=(c,))
    fs = front_sample(spec, 11)
    assert fs.points.shape == (0, 2)


def test_dissimilar_fronts_hold_no_dominated_points():
    plain = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive")
    skew = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive",
                       dissimilar=True)
    a = front_sample(plain, 50)
    b = front_sample(skew, 50)
    assert a.points.shape == b.points.shape
    np.testing.assert_allclose(b.points[:, 0], 2 * (2 * a.points[:, 0] - 1), rtol=1e-12)
    np.testing.assert_allclose(b.points[:, 1], 4 * (2 * a.points[:, 1] - 1), rtol=1e-12)
    # 2f - 1 rounds components below about 1e-16 together: on this lattice two
    # of the 25 plain points become (-2+2^-52, -4+2^-51, 6) and (-2+2^-52, -4, 6),
    # and the filter runs on the final points, so only the second is kept.
    spec = ProblemSpec(objectives=3, distance_vars=1, distance_kind="deceptive",
                       dissimilar=True)
    front = front_sample(spec, 5)
    assert front.points.shape == (24, 3)
    assert dominance_mask(front.points).all()


def test_front_sample_resolution_floor():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    with pytest.raises(ValueError, match="at least 2"):
        front_sample(spec, 1)


def test_dominance_filter_examples():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(dominance_filter(pts), [[1.0, 0.0], [0.0, 1.0]])
    single = np.array([[2.0, 3.0]])
    np.testing.assert_allclose(dominance_filter(single), single)
    dupes = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert dominance_filter(dupes).shape == (2, 2)  # duplicates both survive
    with pytest.raises(ValueError, match="2-d array"):
        dominance_filter(np.array([1.0, 0.0]))


def test_dominance_filter_matches_brute_force():
    rng = np.random.default_rng(40)
    for trial in range(30):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(5, 300))
        pts = rng.uniform(0, 1, size=(n, m))
        if trial % 3 == 0:
            pts = np.round(pts, 1)  # force ties and duplicates
        got = dominance_filter(pts)
        want = pts[brute_force_nondominated(pts)]
        np.testing.assert_array_equal(got, want)


def test_dominance_filter_float_sum_tie_across_chunks():
    # fl(1e-20 + 1) == fl(0 + 1): the dominated point differs from its
    # dominator below the rounding of their coordinate sums, so only an exact
    # comparison of f1 separates them, among _CHUNK - 1 rows that fill a
    # chunk.  Constant padding columns keep dominance; four and ten columns
    # take the archive sweep, whose last row then opens a second chunk.
    x = np.arange(1, _CHUNK) / (2.0 * _CHUNK)
    pts = np.concatenate([np.column_stack([x, 0.5 - x]),
                          [[1e-20, 1.0], [0.0, 1.0]]])
    for pad in (0, 2, 8):
        padded = np.column_stack([pts, np.zeros((len(pts), pad))])
        np.testing.assert_array_equal(dominance_filter(padded),
                                      padded[brute_force_nondominated(padded)])


def test_dominance_filter_is_idempotent_and_order_stable():
    rng = np.random.default_rng(41)
    pts = np.round(rng.uniform(0, 1, size=(200, 3)), 1)
    once = dominance_filter(pts)
    np.testing.assert_array_equal(dominance_filter(once), once)
    # survivors keep their input order
    mask = brute_force_nondominated(pts)
    np.testing.assert_array_equal(once, pts[mask])


def test_dominance_filter_permutation_invariant_as_set():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(150, 4))
    perm = rng.permutation(150)
    a = {tuple(r) for r in dominance_filter(pts)}
    b = {tuple(r) for r in dominance_filter(pts[perm])}
    assert a == b


def test_dominance_mask_memory_from_four_objectives_up():
    pts = np.random.default_rng(44).uniform(size=(50000, 5))
    tracemalloc.start()
    try:
        dominance_mask(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One float copy of the points is 2 MB.  Ranking holds 2-byte ranks
    # and one column's sort at a time, and the sweep two boolean blocks of
    # at most _CHUNK rows against the archive: about 4.0 MiB in all.  Blocks
    # of 512 rows took 5.1 MiB; sorting a float copy of the rows and
    # deduplicating it takes 8.5 MB.
    assert peak < 4.75 * 2**20, peak


def test_dominance_mask_memory_on_a_nondominated_front():
    # Points of the positive unit sphere are mutually nondominated, so the
    # archive sweep's archive grows to every row.  Its two boolean blocks
    # hold at most 2**18 entries each at any archive size here; at _CHUNK
    # rows against the whole archive they took 8.0 and 16.0 MiB.
    m, peaks = 6, {}
    for n in (10000, 20000):
        pts = np.abs(np.random.default_rng(n).normal(size=(n, m)))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            keep = dominance_mask(pts)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keep.all()
    # Measured 1.53 and 2.23 MiB.
    assert peaks[10000] < 1.75 * 2**20, peaks
    assert peaks[20000] < 2.5 * 2**20, peaks
    # What grows is the O(M n) part: the ranks in three copies (2 bytes
    # each here) and a few index arrays, measured at 73 bytes a row.
    assert peaks[20000] - peaks[10000] <= 10000 * 16 * m, peaks


@pytest.mark.parametrize("m, bound_mib", ((2, 3.4), (3, 7.5)))
def test_dominance_mask_memory_at_two_and_three_objectives(m, bound_mib):
    pts = np.random.default_rng(44).uniform(size=(50000, m))
    tracemalloc.start()
    try:
        dominance_mask(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Ranking holds 2-byte ranks and one column's sort of 8-byte values and
    # indices at a time: 2.9 MiB at M = 2.  At M = 3 the staircase adds its
    # Python lists of ranks and verdicts, 6.5 MiB in all.
    assert peak < bound_mib * 2**20, peak


def test_igd_examples():
    ref = np.array([[0.5, 0.5]])
    approx = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert igd(approx, ref) == pytest.approx(np.sqrt(0.5))
    assert igd(ref, ref) == 0.0
    assert igd(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0], [0.5, 0.5]])) == \
        pytest.approx((np.sqrt(2) + np.sqrt(0.5)) / 2)


def test_igd_accepts_front_samples():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    fs = front_sample(spec, 30)
    assert igd(fs, fs) == 0.0
    assert igd(fs.points[:10], fs) > 0.0


def test_igd_memory_is_bounded():
    rng = np.random.default_rng(43)
    # The sweep, then the sweep with every window all of a, then the screen.
    for m, tied in ((3, False), (2, True), (3, True), (10, False)):
        a, r = rng.uniform(size=(4000, m)), rng.uniform(size=(4000, m))
        if tied:
            a[:, 0] = r[:, 0] = 0.5
        tracemalloc.start()
        try:
            igd(a, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full 4000 x 4000 distance matrix alone would be 128 MB
        assert peak < 16 * 2**20, (m, tied, peak)


def test_igd_errors():
    with pytest.raises(ValueError, match="empty"):
        igd(np.zeros((0, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        igd(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="2-d"):
        igd(np.ones(3), np.ones((3, 3)))


def test_igd_of_zero_dimensional_points_is_zero():
    assert igd(np.zeros((3, 0)), np.zeros((4, 0))) == 0.0


def test_pareto_set_deceptive_rows_are_exact():
    spec = ProblemSpec(objectives=2, distance_vars=3, distance_kind="deceptive",
                       norm_p=2.0)
    ss = pareto_set_sample(spec, 5)
    assert ss.vectors.shape == (5, spec.total_dim)
    assert np.all(ss.residuals <= 1e-9)
    # first target is y = 0, which sits at phi = 1 where every valley is 0.5
    np.testing.assert_allclose(ss.vectors[0, 1:], 0.5)
    for vec in ss.vectors:
        ev = evaluate(vec, spec)
        assert ev.distance_value == 1.0  # g is exactly zero on the set
        np.testing.assert_allclose(np.linalg.norm(ev.objectives), 1.0, rtol=1e-12)


def test_pareto_set_distance_part_tracks_valley_center():
    spec = ProblemSpec(objectives=2, distance_vars=2, distance_kind="deceptive")
    ss = pareto_set_sample(spec, 7)
    for vec in ss.vectors:
        ev = evaluate(vec, spec)
        want = valley_center(ev.distance_phi, np.array([1.0, 2.0]))
        np.testing.assert_allclose(vec[1:], want, atol=1e-12)


def test_pareto_set_robust_rows():
    spec = ProblemSpec(objectives=3, distance_vars=2, distance_kind="robust",
                       meta_q=5, meta_t=1)
    ss = pareto_set_sample(spec, 9)
    np.testing.assert_allclose(ss.vectors[:, spec.position_dim:], ROBUST_MINIMIZER)
    floor = 2 * robust_term(ROBUST_MINIMIZER)
    for vec in ss.vectors:
        ev = evaluate(vec, spec)
        np.testing.assert_allclose(ev.distance_value - 1.0, floor, rtol=1e-9)


@pytest.mark.parametrize("composition", COMPOSITIONS)
@pytest.mark.parametrize("kind", ("robust", "convex_concave", "disconnected"))
def test_robust_front_sits_at_the_pareto_sets_g_bit_for_bit(kind, composition):
    spec = ProblemSpec(objectives=3, distance_vars=4, distance_kind=kind,
                       composition=composition, mixed_landscape="robust",
                       meta_q=5, meta_t=1)
    ss = pareto_set_sample(spec, 16)
    ev = evaluate_arrays(ss.vectors, spec)
    g = robust_g(ss.vectors[:, spec.position_dim:])
    assert np.all(g == g[0]) and g[0] > 0.0
    assert ev.distance_value.tobytes() == radial_profile(
        g, ev.distance_phi, kind, composition).tobytes()
    # the front is the same profile at the same g, composed with its position points
    fs = front_sample(spec, 8)
    f_d = radial_profile(np.full(fs.phis.shape, g[0]), fs.phis, kind, composition)
    assert compose(fs.position_points, f_d, composition).tobytes() == fs.points.tobytes()
    if kind == "robust":  # no phi-dependent floor: one F_d for every row and point
        assert np.all(ev.distance_value == f_d[0]) and np.all(f_d == f_d[0])


def test_pareto_set_meta_realization_round_trip():
    spec = ProblemSpec(objectives=3, distance_vars=1, distance_kind="deceptive",
                       meta_q=10, meta_t=4)
    ss = pareto_set_sample(spec, 16)
    assert np.all(ss.residuals <= 1e-9)
    for vec in ss.vectors:
        y = meta_variables(vec[:spec.position_dim], 10, 4)
        assert np.all((y >= 0.0) & (y <= 1.0))


@pytest.mark.parametrize("m", [3, 4])
def test_set_targets_start_with_the_largest_full_lattice(m):
    # At M = 4 the float cube root of 64, 125, ... lands just below the
    # integer, so flooring it would start with the next smaller lattice.
    r = 2
    for n in range(2 ** (m - 1), 3001):
        while (r + 1) ** (m - 1) <= n:
            r += 1
        targets = _set_targets(m, n)
        assert targets.shape == (n, m - 1)
        assert targets[:r ** (m - 1)].tobytes() == _lattice(m, r).tobytes()


def test_pareto_set_needs_positive_count():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    with pytest.raises(ValueError):
        pareto_set_sample(spec, 0)


def test_perturb_deterministic_and_sane():
    spec = ProblemSpec(objectives=2, distance_vars=2, distance_kind="robust")
    x = np.array([0.3, 0.2, 0.2])
    a = perturb_experiment(x, 0.05, 200, spec, seed=5)
    b = perturb_experiment(x, 0.05, 200, spec, seed=5)
    assert a == b
    assert a.worst >= a.mean >= 0.0
    assert a.base_objectives == evaluate(x, spec).objectives
    c = perturb_experiment(x, 0.05, 200, spec, seed=6)
    assert c.worst != a.worst


def test_perturb_contrast_between_plateau_and_needle():
    spec = ProblemSpec(objectives=2, distance_vars=2, distance_kind="robust")
    stable = perturb_experiment(np.array([0.3, 0.2, 0.2]), 0.1, 300, spec, seed=1)
    brittle = perturb_experiment(
        np.array([0.3, ROBUST_MINIMIZER, ROBUST_MINIMIZER]), 0.1, 300, spec, seed=1)
    assert brittle.worst > 10 * stable.worst


def test_perturb_argument_checks():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    with pytest.raises(ValueError, match="radius"):
        perturb_experiment(np.array([0.0, 0.5]), 0.0, 10, spec)
    with pytest.raises(ValueError, match="sample"):
        perturb_experiment(np.array([0.0, 0.5]), 0.1, 0, spec)


def perturb_summary(spec, samples):
    report = perturb_experiment(np.array([0.0, 0.5]), 0.1, samples, spec)
    return report.worst, report.mean, report.samples


@pytest.mark.parametrize("call, name", [
    (lambda spec, size: front_sample(spec, size).points, "resolution"),
    (lambda spec, size: pareto_set_sample(spec, size).vectors, "n"),
    (perturb_summary, "samples"),
], ids=("front_sample", "pareto_set_sample", "perturb_experiment"))
def test_sampler_sizes_follow_the_integer_rule(call, name):
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    for size in (5.0, 10.5, "5", None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
            call(spec, size)
    for size in (np.int64(5), np.uint8(5)):
        np.testing.assert_array_equal(call(spec, size), call(spec, 5))


def one_shot_perturb(x, radius, samples, spec, seed):
    """perturb_experiment's worst and mean from a single (samples, S) draw."""
    base = evaluate(x, spec)
    x_d = np.asarray(x, dtype=float)[spec.position_dim:]
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-radius, radius, size=(samples, spec.distance_vars))
    f_p = np.broadcast_to(np.asarray(base.position_point), (samples, spec.objectives))
    phi = np.full(samples, base.distance_phi)
    g = _landscape_g(np.clip(x_d + delta, 0.0, 1.0), phi, spec)
    _, f = _objective_stage(g, f_p, phi, spec)
    moved = f - np.asarray(base.objectives)
    disp = np.sqrt(np.sum(moved * moved, axis=-1))
    return float(disp.max()), float(disp.mean())


@pytest.mark.parametrize("s", [1, 20])
@pytest.mark.parametrize("kind, composition, dissimilar", [
    ("robust", "multiplicative", False),
    ("deceptive", "additive", True)], ids=["robust", "deceptive_dissimilar"])
def test_blocked_perturb_equals_one_shot_draw(kind, composition, dissimilar, s):
    spec = ProblemSpec(objectives=3, distance_vars=s, distance_kind=kind,
                       composition=composition, dissimilar=dissimilar)
    rng = np.random.default_rng(s)
    x = np.concatenate([rng.uniform(-1, 1, spec.position_dim),
                        rng.uniform(0, 1, s)])
    step = _PERTURB_BLOCK // s
    for n in (1, step - 1, step, step + 1, 3 * step + 7):
        report = perturb_experiment(x, 0.1, n, spec, seed=n)
        assert (report.worst, report.mean) == one_shot_perturb(x, 0.1, n, spec, n), n
        assert report.samples == n


def test_perturb_memory_does_not_grow_with_samples_times_s():
    spec = ProblemSpec(objectives=2, distance_vars=10, distance_kind="robust")
    x = np.full(spec.total_dim, 0.3)
    tracemalloc.start()
    try:
        perturb_experiment(x, 0.05, 200_000, spec, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One (200000, 10) draw alone would be 16 MB, and a single pass held
    # about 120 MB of temporaries; the displacements take 1.6 MB.
    assert peak < 8 * 2**20, peak


def test_perturb_radius_stops_where_the_draw_would_overflow():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    x = np.array([0.3, 0.5])
    top = np.finfo(float).max / 2
    for radius in (np.nextafter(top, np.inf), 1e308, np.inf, np.nan):
        with pytest.raises(ValueError, match="radius must lie in"):
            perturb_experiment(x, radius, 10, spec)
    # Half the largest double still draws; every clipped sample sits at 0 or 1.
    report = perturb_experiment(x, top, 10, spec, seed=2)
    assert report.radius == top and report.worst >= report.mean >= 0.0
