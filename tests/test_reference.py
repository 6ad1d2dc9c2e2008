"""Reference machinery: fronts, Pareto-set realization, filtering, metrics."""

import numpy as np
import pytest

from gpdbench import (
    ROBUST_MINIMIZER,
    ConstraintSpec,
    FrontSample,
    ProblemSpec,
    dominance_filter,
    evaluate,
    front_sample,
    igd,
    meta_variables,
    normalized_angle,
    p_norm,
    pareto_set_sample,
    perturb_experiment,
    robust_term,
    valley_center,
)


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
    assert fs.resolution == 100 and fs.feasible_only is True


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
    full = front_sample(spec, 15, feasible_only=False)
    assert full.points.shape[0] > fs.points.shape[0]


def test_front_sample_empty_is_legitimate():
    c = ConstraintSpec(kind="band", reference="diagonal",
                       threshold_a=0.985, threshold_b=0.99)
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust",
                       constraints=(c,))
    fs = front_sample(spec, 11)
    assert fs.points.shape == (0, 2)


def test_front_sample_dissimilar_applied_after_filtering():
    plain = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive")
    skew = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive",
                       dissimilar=True)
    a = front_sample(plain, 50)
    b = front_sample(skew, 50)
    assert a.points.shape == b.points.shape
    np.testing.assert_allclose(b.points[:, 0], 2 * (2 * a.points[:, 0] - 1), rtol=1e-12)
    np.testing.assert_allclose(b.points[:, 1], 4 * (2 * a.points[:, 1] - 1), rtol=1e-12)


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
    # fl(1e-20 + 1) == fl(0 + 1): the dominated point ends the first
    # 512-row chunk unless equal sums are ordered lexicographically.
    x = np.arange(1, 512) / 1024.0
    pts = np.concatenate([np.column_stack([x, 0.5 - x]),
                          [[1e-20, 1.0], [0.0, 1.0]]])
    np.testing.assert_array_equal(dominance_filter(pts),
                                  pts[brute_force_nondominated(pts)])


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


def test_igd_errors():
    with pytest.raises(ValueError, match="empty"):
        igd(np.zeros((0, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        igd(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="2-d"):
        igd(np.ones(3), np.ones((3, 3)))


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


def test_pareto_set_meta_realization_round_trip():
    spec = ProblemSpec(objectives=3, distance_vars=1, distance_kind="deceptive",
                       meta_q=10, meta_t=4)
    ss = pareto_set_sample(spec, 16)
    assert np.all(ss.residuals <= 1e-9)
    for vec in ss.vectors:
        y = meta_variables(vec[:spec.position_dim], 10, 4)
        assert np.all((y >= 0.0) & (y <= 1.0))


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
