"""Angular constraints: per-kind violations and the nearest-axis rule."""

import numpy as np
import pytest

from gpdbench import (
    ConstraintSpec,
    ProblemSpec,
    constraint_table,
    evaluate_constraints,
    nearest_axis,
    normalized_angle,
)
from gpdbench.constraints import axis_angles

DIAG3 = np.ones(3) / np.sqrt(3.0)


def spec_with(*constraints):
    return ProblemSpec(objectives=3, distance_vars=2, distance_kind="robust",
                       constraints=tuple(constraints))


def test_axis_angles_shape_and_values():
    a = axis_angles(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(a, [0.0, np.pi / 2, np.pi / 2], atol=1e-7)
    with pytest.raises(ValueError):
        axis_angles(np.zeros(3))


def test_nearest_axis_examples():
    assert nearest_axis(np.array([0.9, 0.1, 0.1])) == 1
    assert nearest_axis(np.array([1.0, 1.0, 1.0])) == 1  # ties break low
    assert nearest_axis(np.array([0.0, 1.0, 0.0])) == 2


def test_nearest_axis_matches_angle_argmin():
    rng = np.random.default_rng(20)
    f = rng.uniform(0.01, 1.0, size=(200, 4))
    for row in f:
        j = nearest_axis(row)
        assert j == int(np.argmin(axis_angles(row))) + 1


def test_min_angle_violation():
    c = ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.5)
    s = spec_with(c)
    rep = evaluate_constraints(np.array([1.0, 0.0, 0.0]), s.constraints)
    assert rep.violations == (0.0,)
    assert rep.feasible is True
    rep = evaluate_constraints(DIAG3, s.constraints)
    assert rep.violations[0] == pytest.approx(0.5, abs=1e-7)
    assert rep.feasible is False


def test_max_angle_violation():
    c = ConstraintSpec(kind="max_angle", reference="diagonal", threshold_a=0.5)
    s = spec_with(c)
    assert evaluate_constraints(DIAG3, s.constraints).feasible is True
    rep = evaluate_constraints(np.array([1.0, 0.0, 0.0]), s.constraints)
    # the axis sits at the orthant's widest angle from the diagonal
    assert rep.violations[0] == pytest.approx(0.5, abs=1e-12)


def test_band_violation():
    c = ConstraintSpec(kind="band", reference="diagonal",
                       threshold_a=0.3, threshold_b=0.7)
    s = spec_with(c)
    # phi = 0.8 overshoots the upper edge by 0.1; phi = 0.1 undershoots by 0.2
    hi = evaluate_constraints(np.array([1.0, 0.05, 0.05]), s.constraints)
    lo = evaluate_constraints(np.array([1.0, 0.9, 0.9]), s.constraints)
    mid = evaluate_constraints(np.array([1.0, 0.4, 0.4]), s.constraints)
    assert hi.feasible is False and lo.feasible is False
    assert mid.feasible is True and mid.violations == (0.0,)


def test_band_violation_value():
    c = ConstraintSpec(kind="band", reference="diagonal",
                       threshold_a=0.3, threshold_b=0.7)
    s2 = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust",
                     constraints=(c,))
    # M=2 on the 2-norm arc: phi(y) = |2y - 1|, so y = 0.9 lands at phi = 0.8
    f = np.array([np.cos(0.9 * np.pi / 2), np.sin(0.9 * np.pi / 2)])
    rep = evaluate_constraints(f, s2.constraints)
    assert rep.violations[0] == pytest.approx(0.1, abs=1e-12)


def test_nearest_axis_constraint():
    c = ConstraintSpec(kind="nearest_axis", axis_j=1)
    s = spec_with(c)
    ok = evaluate_constraints(np.array([0.9, 0.1, 0.2]), s.constraints)
    assert ok.violations == (0.0,)
    assert ok.nearest_axis_of_point == 1
    bad = evaluate_constraints(np.array([0.1, 0.9, 0.2]), s.constraints)
    assert bad.feasible is False
    assert bad.nearest_axis_of_point == 2
    # the violation is the raw angular gap between the target and winning axes
    ang = axis_angles(np.array([0.1, 0.9, 0.2]))
    assert bad.violations[0] == pytest.approx(ang[0] - ang.min(), rel=1e-12)


def test_nearest_axis_phi_reports_angle_to_target_axis():
    c = ConstraintSpec(kind="nearest_axis", axis_j=2)
    s = spec_with(c)
    f = np.array([0.3, 0.5, 0.8])
    phis, viol = constraint_table(f, s.constraints)
    assert phis.shape == (1, 1) or phis.shape == (1,)
    want = normalized_angle(f, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(np.ravel(phis)[0], want, rtol=1e-12)


def test_constraint_table_batch_shapes():
    cs = (ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.2),
          ConstraintSpec(kind="max_angle", reference="e1", threshold_a=0.9),
          ConstraintSpec(kind="nearest_axis", axis_j=3))
    s = spec_with(*cs)
    rng = np.random.default_rng(21)
    f = rng.uniform(0.05, 1.0, size=(40, 3))
    phis, viol = constraint_table(f, s.constraints)
    assert phis.shape == (40, 3)
    assert viol.shape == (40, 3)
    assert np.all(viol >= 0.0)
    assert np.all((phis >= 0.0) & (phis <= 1.0))


def test_feasible_iff_all_violations_zero():
    cs = (ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.3),
          ConstraintSpec(kind="max_angle", reference="diagonal", threshold_a=0.8))
    s = spec_with(*cs)
    rng = np.random.default_rng(22)
    for row in rng.uniform(0.01, 1.0, size=(100, 3)):
        rep = evaluate_constraints(row, s.constraints)
        assert rep.feasible == all(v == 0.0 for v in rep.violations)


def test_angle_violations_are_lipschitz_in_phi():
    # |violation(phi1) - violation(phi2)| <= |phi1 - phi2| for the angle kinds
    for kind, kw in [("min_angle", dict(threshold_a=0.4)),
                     ("max_angle", dict(threshold_a=0.4)),
                     ("band", dict(threshold_a=0.3, threshold_b=0.7))]:
        c = ConstraintSpec(kind=kind, reference="diagonal", **kw)
        s = spec_with(c)
        rng = np.random.default_rng(23)
        f = rng.uniform(0.01, 1.0, size=(200, 3))
        phis, viol = constraint_table(f, s.constraints)
        order = np.argsort(phis[:, 0])
        dphi = np.diff(phis[order, 0])
        dv = np.abs(np.diff(viol[order, 0]))
        assert np.all(dv <= dphi + 1e-12)


def test_evaluate_constraints_requires_single_point():
    c = ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.2)
    s = spec_with(c)
    with pytest.raises(ValueError):
        evaluate_constraints(np.ones((2, 3)), s.constraints)
