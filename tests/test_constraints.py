"""Angular constraints: per-kind violations and the nearest-axis rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdbench import ConstraintSpec, ProblemSpec, evaluate_batch
from gpdbench.constraints import constraint_table
from gpdbench.distance import normalized_angle

DIAG3 = np.ones(3) / np.sqrt(3.0)


def spec_with(*constraints):
    return ProblemSpec(objectives=3, distance_vars=2, distance_kind="robust",
                       constraints=tuple(constraints))


def one_point(f, constraints):
    """One position point's violations, and whether every one is exactly 0.0."""
    _, viol = constraint_table(f, constraints)
    return tuple(viol.tolist()), bool((viol == 0.0).all())


def axis_angles(f):
    """Angle of f to every canonical axis, shaped (..., M): the gap oracle.

    Rows whose squared norm is subnormal are first divided by their largest
    magnitude, as the library does, so the norm keeps its full precision.
    """
    f = np.asarray(f, dtype=float)
    sq = np.sum(f * f, axis=-1)
    small = (sq > 0.0) & (sq < np.finfo(float).tiny)
    big = np.where(small, np.abs(f).max(axis=-1, initial=0.0), 1.0)
    f = f / big[..., None]
    norm = np.sqrt(np.sum(f * f, axis=-1))
    return np.arccos(np.clip(f / norm[..., None], -1.0, 1.0))


def nearest_axis_verdicts(f):
    """For points f (..., M), whether each axis j passes nearest_axis(j): shaped (..., M).

    Also checks that a passing axis has a gap of exactly +0.0.
    """
    f = np.asarray(f, dtype=float)
    m = f.shape[-1]
    cons = tuple(ConstraintSpec(kind="nearest_axis", axis_j=j) for j in range(1, m + 1))
    _, viol = constraint_table(f, cons)
    ok = viol == 0.0
    assert not np.signbit(viol[ok]).any()
    return ok


def test_nearest_axis_examples():
    assert nearest_axis_verdicts([0.9, 0.1, 0.1]).tolist() == [True, False, False]
    # Every tied axis is nearest, each with gap +0.0.
    assert nearest_axis_verdicts([1.0, 1.0, 1.0]).tolist() == [True, True, True]
    assert nearest_axis_verdicts([0.0, 1.0, 0.0]).tolist() == [False, True, False]


def test_nearest_axis_rejects_only_all_zero_rows():
    # The squared norm of these rows underflows to 0; their direction does not.
    assert nearest_axis_verdicts([1e-170, 0.0, 0.0]).tolist() == [True, False, False]
    assert nearest_axis_verdicts([[0.0, 1e-170], [1e-300, 5e-324]]).tolist() == [
        [False, True], [True, False]]
    with pytest.raises(ValueError, match="^cannot take the angle of a zero vector$"):
        nearest_axis_verdicts(np.zeros(3))
    with pytest.raises(ValueError, match="^cannot take the angle of a zero vector$"):
        nearest_axis_verdicts([[1.0, 0.0], [0.0, 0.0]])


def test_nearest_axis_matches_angle_argmin():
    rng = np.random.default_rng(20)
    f = rng.uniform(0.01, 1.0, size=(200, 4))
    ok = nearest_axis_verdicts(f)
    # No ties in these draws: exactly the axis of the smallest angle passes.
    assert ok.tolist() == (np.arange(4) == np.argmin(axis_angles(f), axis=-1)[:, None]).tolist()


@st.composite
def nearest_axis_cases(draw):
    """Position-like rows with ties, zeros and axis points, at one scale."""
    m = draw(st.integers(2, 12))
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=8))
    f = np.vstack([np.array(rows, dtype=float), np.eye(m)])
    f *= draw(st.sampled_from([1.0, 1e-5, 1e-100, 1e-150, 1e-160, 1e100, 1e150]))
    # The angle is undefined for zero rows and for rows whose norm underflows.
    f = f[np.sum(f * f, axis=-1) > 0.0]
    return f, draw(st.integers(1, m))


@settings(max_examples=300, deadline=None)
@given(nearest_axis_cases())
def test_nearest_axis_violation_is_the_angular_gap_bit_for_bit(case):
    f, j = case
    phis, viol = constraint_table(f, (ConstraintSpec(kind="nearest_axis", axis_j=j),))
    angles = axis_angles(f)
    gap = angles[:, j - 1] - angles.min(axis=-1)
    want = np.where(np.argmax(f, axis=-1) == j - 1, 0.0, gap)
    assert viol[:, 0].tobytes() == want.tobytes()
    axis = np.eye(f.shape[1])[j - 1]
    assert phis[:, 0].tobytes() == normalized_angle(f, axis).tobytes()


def test_min_angle_violation():
    c = ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.5)
    s = spec_with(c)
    violations, feasible = one_point(np.array([1.0, 0.0, 0.0]), s.constraints)
    assert violations == (0.0,)
    assert feasible is True
    violations, feasible = one_point(DIAG3, s.constraints)
    assert violations[0] == pytest.approx(0.5, abs=1e-7)
    assert feasible is False


def test_max_angle_violation():
    c = ConstraintSpec(kind="max_angle", reference="diagonal", threshold_a=0.5)
    s = spec_with(c)
    assert one_point(DIAG3, s.constraints)[1] is True
    violations, _ = one_point(np.array([1.0, 0.0, 0.0]), s.constraints)
    # the axis sits at the orthant's widest angle from the diagonal
    assert violations[0] == pytest.approx(0.5, abs=1e-12)


def test_band_violation():
    c = ConstraintSpec(kind="band", reference="diagonal",
                       threshold_a=0.3, threshold_b=0.7)
    s = spec_with(c)
    # phi = 0.8 overshoots the upper edge by 0.1; phi = 0.1 undershoots by 0.2
    _, hi = one_point(np.array([1.0, 0.05, 0.05]), s.constraints)
    _, lo = one_point(np.array([1.0, 0.9, 0.9]), s.constraints)
    mid, mid_feasible = one_point(np.array([1.0, 0.4, 0.4]), s.constraints)
    assert hi is False and lo is False
    assert mid_feasible is True and mid == (0.0,)


def test_band_violation_value():
    c = ConstraintSpec(kind="band", reference="diagonal",
                       threshold_a=0.3, threshold_b=0.7)
    s2 = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust",
                     constraints=(c,))
    # M=2 on the 2-norm arc: phi(y) = |2y - 1|, so y = 0.9 lands at phi = 0.8
    f = np.array([np.cos(0.9 * np.pi / 2), np.sin(0.9 * np.pi / 2)])
    violations, _ = one_point(f, s2.constraints)
    assert violations[0] == pytest.approx(0.1, abs=1e-12)


def test_nearest_axis_constraint():
    c = ConstraintSpec(kind="nearest_axis", axis_j=1)
    s = spec_with(c)
    ok, ok_feasible = one_point(np.array([0.9, 0.1, 0.2]), s.constraints)
    assert ok == (0.0,)
    assert ok_feasible is True
    bad, bad_feasible = one_point(np.array([0.1, 0.9, 0.2]), s.constraints)
    assert bad_feasible is False
    assert nearest_axis_verdicts([0.1, 0.9, 0.2]).tolist() == [False, True, False]
    # the violation is the raw angular gap between the target and winning axes
    ang = axis_angles(np.array([0.1, 0.9, 0.2]))
    assert bad[0] == pytest.approx(ang[0] - ang.min(), rel=1e-12)


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
    r = s.position_dim
    x = np.hstack([rng.uniform(-1.0, 1.0, size=(100, r)),
                   rng.uniform(0.0, 1.0, size=(100, s.distance_vars))])
    reports = [ev.report for ev in evaluate_batch(x, s)]
    assert {rep.feasible for rep in reports} == {True, False}
    for rep in reports:
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


def test_constraint_table_of_a_single_point_is_one_row_of_a_batch():
    c = ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.2)
    s = spec_with(c)
    f = np.array([[0.9, 0.1, 0.2], [1.0, 1.0, 1.0]])
    phis, viol = constraint_table(f, s.constraints)
    for row in range(2):
        one_phis, one_viol = constraint_table(f[row], s.constraints)
        assert one_phis.shape == one_viol.shape == (1,)
        assert one_phis.tobytes() == phis[row].tobytes()
        assert one_viol.tobytes() == viol[row].tobytes()


def test_constraint_table_refuses_an_unvalidated_kind():
    wedge = ConstraintSpec(kind="wedge", reference=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="^unknown constraint kind: 'wedge'$"):
        constraint_table(np.array([[0.5, 0.2, 0.1]]), (wedge,))


def test_nearest_axis_violation_of_a_nan_row_is_nan_on_every_axis():
    # A NaN phi goes with a NaN violation: the row is infeasible on every axis,
    # also on the axis where argmax finds its first NaN.
    f = np.array([[0.3, np.nan, 0.5], [np.nan, 0.2, 0.1], [0.2, 0.9, 0.1]])
    cons = tuple(ConstraintSpec(kind="nearest_axis", axis_j=j) for j in (1, 2, 3))
    with np.errstate(invalid="ignore"):
        phis, viol = constraint_table(f, cons)
    assert np.isnan(phis[:2]).all() and np.isnan(viol[:2]).all()
    assert viol[2, 1] == 0.0 and (viol[2, [0, 2]] > 0.0).all()
