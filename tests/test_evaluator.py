"""End-to-end instance evaluation: single points, batches, error reporting."""

import numpy as np
import pytest

from gpdbench import (
    BatchError,
    ConstraintSpec,
    ProblemSpec,
    compose,
    evaluate,
    evaluate_arrays,
    evaluate_batch,
    meta_variables,
    normalized_angle,
    pareto_set_sample,
    parse_spec,
    position_point,
    radial_profile,
    render_spec,
)

TINY = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive")


def rich_spec(**kw):
    base = dict(objectives=3, distance_vars=4, distance_kind="deceptive",
                meta_q=5, meta_t=1, norm_p="auto",
                constraints=(ConstraintSpec(kind="min_angle",
                                            reference="diagonal",
                                            threshold_a=0.2),))
    base.update(kw)
    return ProblemSpec(**base)


def test_evaluate_front_point():
    ev = evaluate(np.array([0.0, 0.5]), TINY)
    assert ev.objectives == (1.0, 0.0)
    assert ev.distance_value == 1.0
    assert ev.distance_phi == 1.0
    assert ev.report.feasible is True


def test_evaluate_deceptive_boundary_point():
    # x_d = 0 sits on the left deceptive ramp: g = 5, objectives scale to 6x
    ev = evaluate(np.array([0.0, 0.0]), TINY)
    assert ev.objectives == (6.0, 0.0)


def test_evaluate_additive_composition():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive",
                       composition="additive")
    ev = evaluate(np.array([0.0, 0.0]), spec)
    np.testing.assert_allclose(ev.objectives, (6.0, 5.0))


def test_evaluate_length_error_names_expected_width():
    with pytest.raises(ValueError, match="has 3 coordinates, expected 2"):
        evaluate(np.zeros(3), TINY)


def test_evaluate_box_error_names_coordinate():
    with pytest.raises(ValueError, match="coordinate 2 is 2, outside \\[0, 1\\]"):
        evaluate(np.array([0.0, 2.0]), TINY)
    with pytest.raises(ValueError, match="coordinate 1 is -1.5, outside \\[-1, 1\\]"):
        evaluate(np.array([-1.5, 0.5]), TINY)
    with pytest.raises(ValueError, match="coordinate 2 is nan"):
        evaluate(np.array([0.0, np.nan]), TINY)


def test_evaluation_fields_are_consistent():
    spec = rich_spec()
    rng = np.random.default_rng(30)
    x = np.concatenate([rng.uniform(-1, 1, spec.position_dim),
                        rng.uniform(0, 1, spec.distance_vars)])
    ev = evaluate(x, spec)
    f_p = np.asarray(ev.position_point)
    y = meta_variables(x[:spec.position_dim], spec.meta_q, spec.meta_t)
    np.testing.assert_allclose(f_p, position_point(y, spec.norm_p), rtol=1e-12)
    np.testing.assert_allclose(
        ev.distance_phi,
        normalized_angle(f_p, np.asarray(spec.distance_reference)), rtol=1e-12)
    # constraint phi is the angle to that constraint's own reference
    np.testing.assert_allclose(
        ev.phi_per_constraint[0],
        normalized_angle(f_p, np.asarray(spec.constraints[0].reference)), rtol=1e-12)
    want = compose(f_p, ev.distance_value, spec.composition)
    np.testing.assert_allclose(ev.objectives, want, rtol=1e-12)


@pytest.mark.parametrize("scaled", ("1e200,2e200,3e200", "1e-200,2e-200,3e-200",
                                    "1e-160,2e-160,3e-160"))
def test_distance_reference_too_small_or_large_to_square(scaled):
    # All pass parse_spec; their squared norms overflow, underflow to 0 or
    # land among the subnormals, which keep too few bits for the angle.
    plain = ProblemSpec(objectives=3, distance_vars=2, distance_kind="deceptive",
                        distance_reference=(1.0, 2.0, 3.0))
    text = render_spec(plain)
    spec = parse_spec(text.replace("distance_reference = 1,2,3", f"distance_reference = {scaled}"))
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.uniform(-1.0, 1.0, (50, plain.position_dim)),
                         rng.uniform(0.0, 1.0, (50, 2))])
    np.testing.assert_allclose(evaluate_arrays(x, spec).distance_phi,
                               evaluate_arrays(x, plain).distance_phi, rtol=0, atol=1e-12)


def test_batch_empty():
    assert evaluate_batch(np.zeros((0, 2)), TINY) == []


def test_batch_matches_single_bitwise():
    spec = rich_spec(distance_kind="robust", dissimilar=True)
    rng = np.random.default_rng(31)
    rows = np.column_stack([rng.uniform(-1, 1, size=(64, spec.position_dim)),
                            rng.uniform(0, 1, size=(64, spec.distance_vars))])
    batch = evaluate_batch(rows, spec)
    for row, got in zip(rows, batch):
        one = evaluate(row, spec)
        assert one.objectives == got.objectives  # bit-identical, not approx
        assert one.distance_value == got.distance_value
        assert one.distance_phi == got.distance_phi
        assert one.phi_per_constraint == got.phi_per_constraint
        assert one.report.violations == got.report.violations
        assert one.report.feasible == got.report.feasible


def test_batch_reports_first_bad_row_and_keeps_going():
    rows = np.array([[0.0, 0.5],
                     [0.0, 7.0],
                     [0.5, 0.5],
                     [9.0, 0.5]])
    with pytest.raises(BatchError) as exc:
        evaluate_batch(rows, TINY)
    err = exc.value
    assert err.row_errors[0][0] == 1  # first offending row, 0-based
    assert {i for i, _ in err.row_errors} == {1, 3}
    assert "row 1:" in str(err) and "1 more rejected" in str(err)
    # the valid rows were still evaluated; rejected slots stay None
    assert [ev is None for ev in err.results] == [False, True, False, True]
    assert err.results[0].objectives == (1.0, 0.0)


def test_batch_accepts_list_of_rows():
    out = evaluate_batch([[0.0, 0.5], [0.0, 0.0]], TINY)
    assert len(out) == 2
    assert out[0].objectives == (1.0, 0.0)
    assert out[1].objectives == (6.0, 0.0)


def test_evaluate_is_pure():
    spec = rich_spec()
    x = np.concatenate([np.full(spec.position_dim, 0.25),
                        np.full(spec.distance_vars, 0.75)])
    a, b = evaluate(x, spec), evaluate(x, spec)
    assert a.objectives == b.objectives
    assert a.report == b.report


def test_front_points_weakly_dominate_everything():
    # g >= 0 means no evaluated point can undercut the g = 0 surface scaling
    for kind in ("deceptive", "robust"):
        for comp in ("multiplicative", "additive"):
            spec = ProblemSpec(objectives=3, distance_vars=3, distance_kind=kind,
                               composition=comp)
            rng = np.random.default_rng(32)
            rows = np.column_stack([
                rng.uniform(-1, 1, size=(100, spec.position_dim)),
                rng.uniform(0, 1, size=(100, spec.distance_vars))])
            for ev in evaluate_batch(rows, spec):
                f_p = np.asarray(ev.position_point)
                floor = compose(f_p, radial_profile(0.0, ev.distance_phi, kind, comp), comp)
                assert np.all(np.asarray(ev.objectives) >= floor - 1e-12)


def test_dissimilar_objectives_stay_in_scaled_box():
    spec = ProblemSpec(objectives=3, distance_vars=2, distance_kind="deceptive",
                       dissimilar=True)
    vec = pareto_set_sample(spec, 8).vectors[3]
    ev = evaluate(vec, spec)
    for i, f in enumerate(ev.objectives, start=1):
        assert -2.0 * i <= f <= 2.0 * i


def test_large_batch_is_fast():
    import time
    spec = ProblemSpec(objectives=10, distance_vars=20, distance_kind="deceptive",
                       meta_q=10, meta_t=4, norm_p="auto")
    rng = np.random.default_rng(33)
    rows = np.column_stack([rng.uniform(-1, 1, size=(10000, spec.position_dim)),
                            rng.uniform(0, 1, size=(10000, spec.distance_vars))])
    t0 = time.perf_counter()
    out = evaluate_batch(rows, spec)
    elapsed = time.perf_counter() - t0
    assert len(out) == 10000
    assert elapsed < 5.0
