"""Position map: meta-variables, spherical map, p-norms, realization."""

import numpy as np
import pytest

from gpdbench import ProblemSpec, realize_position
from gpdbench.distance import normalized_angle
from gpdbench.evaluator import _position_stage
from gpdbench.position import (
    dissimilarize,
    meta_variables,
    p_norm,
    position_point,
    spherical_map,
)


def test_meta_window_example():
    x = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    np.testing.assert_allclose(meta_variables(x, 3, 1), [1.0, 0.5])


def test_meta_degenerate_is_abs():
    x = np.array([-0.25, 0.0, 1.0])
    np.testing.assert_allclose(meta_variables(x, 1, 0), [0.25, 0.0, 1.0])


def test_meta_zero_input():
    np.testing.assert_allclose(meta_variables(np.zeros(7), 3, 1), [0.0, 0.0])


def test_meta_length_check():
    with pytest.raises(ValueError, match="does not split"):
        meta_variables(np.zeros(5), 3, 1)
    with pytest.raises(ValueError, match="^window stride q must be >= 1, got 0$"):
        meta_variables(np.zeros(5), 0, 0)
    with pytest.raises(ValueError, match="^window overlap t must be >= 0, got -1$"):
        meta_variables(np.zeros(5), 4, -1)


def test_meta_range_property():
    rng = np.random.default_rng(0)
    for q, t in [(3, 1), (8, 3), (10, 4)]:
        for m in (2, 3, 5):
            r = (m - 1) * q + t
            y = meta_variables(rng.uniform(-1, 1, size=(50, r)), q, t)
            assert y.shape == (50, m - 1)
            assert np.all(y >= 0.0) and np.all(y <= 1.0)


def test_meta_sharing_property():
    # a shared coordinate feeds two adjacent windows; an exclusive one feeds one
    rng = np.random.default_rng(1)
    q, t, m = 8, 3, 3
    x = rng.uniform(-1, 1, size=(m - 1) * q + t)
    base = meta_variables(x, q, t)

    shared = x.copy()
    shared[q] += 0.5  # indices q .. q+t-1 sit in both window 1 and window 2
    d = meta_variables(shared, q, t) - base
    assert d[0] != 0.0 and d[1] != 0.0

    exclusive = x.copy()
    exclusive[0] += 0.5  # only window 1 sees the first coordinate
    d = meta_variables(exclusive, q, t) - base
    assert d[0] != 0.0 and d[1] == 0.0


def test_spherical_examples():
    np.testing.assert_allclose(spherical_map(np.array([0.0, 0.0])), [1.0, 0.0, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(spherical_map(np.array([1.0, 0.3])), [0.0, 0.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(spherical_map(np.array([0.5, 0.5])),
                               [0.5, 0.5, np.sqrt(0.5)], rtol=1e-12)


def test_spherical_unit_euclidean_norm():
    rng = np.random.default_rng(2)
    for m in (2, 3, 4, 7, 10):
        y = rng.uniform(0, 1, size=(200, m - 1))
        t = spherical_map(y)
        assert t.shape == (200, m)
        assert np.all(t >= 0.0)
        np.testing.assert_allclose(np.linalg.norm(t, axis=-1), 1.0, rtol=1e-12)


def test_p_norm_examples():
    assert p_norm(np.array([3.0, 4.0]), 2.0) == 5.0
    assert p_norm(np.array([1.0, 1.0]), 1.0) == 2.0
    np.testing.assert_allclose(p_norm(np.array([1.0, 1.0, 1.0]), 3.0),
                               3.0 ** (1 / 3), rtol=1e-12)
    assert p_norm(np.zeros(4), 0.5) == 0.0


def test_p_norm_monotone_in_p():
    rng = np.random.default_rng(3)
    v = rng.uniform(0, 2, size=(100, 5))
    ps = [0.3, 0.5, 1.0, 2.0, 4.0, 16.0]
    norms = np.stack([p_norm(v, p) for p in ps])
    assert np.all(np.diff(norms, axis=0) <= 1e-12)


def test_p_norm_triangle_inequality():
    rng = np.random.default_rng(4)
    for p in (1.0, 1.5, 2.0, 3.0):
        a = rng.uniform(0, 1, size=(200, 4))
        b = rng.uniform(0, 1, size=(200, 4))
        lhs = p_norm(a + b, p)
        rhs = p_norm(a, p) + p_norm(b, p)
        assert np.all(lhs <= rhs + 1e-12)


def test_p_norm_small_exponent_stays_finite():
    # max-rescaled evaluation keeps tiny exponents out of overflow territory
    v = np.array([1e-300, 1.0, 1e-300])
    got = p_norm(v, 0.1)
    assert np.isfinite(got)
    np.testing.assert_allclose(got, 1.0, rtol=1e-9)


def test_p_norm_rejects_nonpositive_exponent():
    with pytest.raises(ValueError, match="must be positive"):
        p_norm(np.ones(2), 0.0)


def test_position_kernels_refuse_empty_rows():
    for empty in (np.zeros(0), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="^need at least one meta-variable$"):
            spherical_map(empty)
        with pytest.raises(ValueError, match="^p-norm of an empty vector$"):
            p_norm(empty, 2.0)


def test_position_point_examples():
    np.testing.assert_allclose(position_point(np.array([0.0]), 2.0), [1.0, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(position_point(np.array([1.0]), 2.0), [0.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(position_point(np.array([0.5, 0.5]), 1.0),
                               [0.29289322, 0.29289322, 0.41421356], atol=1e-8)


def test_position_point_unit_p_norm():
    rng = np.random.default_rng(5)
    for p in (0.5, 1.0, 2.0, 3.7):
        y = rng.uniform(0, 1, size=(300, 3))
        f = position_point(y, p)
        np.testing.assert_allclose(p_norm(f, p), 1.0, rtol=1e-12)


def test_position_stage_uses_spec_settings():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    f_p, phi = _position_stage(np.zeros((1, 1)), spec)
    np.testing.assert_allclose(f_p, [[1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(phi, [1.0], rtol=1e-12)
    spec3 = ProblemSpec(objectives=3, distance_vars=1, distance_kind="robust",
                        meta_q=5, meta_t=1, norm_p=1.0, distance_reference="e2")
    y = meta_variables(np.linspace(-1.0, 1.0, 11), 5, 1)
    f_p, phi = _position_stage(y, spec3)
    np.testing.assert_array_equal(f_p, position_point(y, 1.0))
    np.testing.assert_array_equal(phi, normalized_angle(f_p, np.eye(3)[1]))


def test_dissimilarize_examples():
    np.testing.assert_allclose(dissimilarize(np.array([0.5, 0.5, 0.5])), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(dissimilarize(np.array([0.0, 0.0, 0.0])), [-2.0, -4.0, -6.0])
    np.testing.assert_allclose(dissimilarize(np.array([1.0, 1.0])), [2.0, 4.0])


def test_dissimilarize_is_nondecreasing():
    # 2 i (2 f - 1) chains correctly rounded, monotone operations, so a <= b
    # implies dissimilarize(a) <= dissimilarize(b) exactly, also across gaps
    # small enough for the rounding to merge.
    rng = np.random.default_rng(6)
    a = rng.uniform(0, 3, size=(300, 4))
    for gap in (1.0, 1e-16):
        b = a + rng.uniform(0, gap, size=a.shape)  # b weakly dominated by a
        assert np.all(dissimilarize(a) <= dissimilarize(b))
    # Strict dominance can become equality: 2 f - 1 rounds both to -1.
    a, b = np.array([2.0 ** -60, 0.5]), np.array([2.0 ** -59, 0.5])
    np.testing.assert_array_equal(dissimilarize(a), [-2.0, 0.0])
    np.testing.assert_array_equal(dissimilarize(b), [-2.0, 0.0])


def test_realize_identity_when_meta_off():
    y = np.array([0.3, 0.8])
    np.testing.assert_allclose(realize_position(y, 1, 0), [0.3, 0.8])


def test_realize_known_window_target():
    x = realize_position(np.array([1.0, 0.0]), 3, 1)
    assert x.shape == (7,)
    np.testing.assert_allclose(meta_variables(x, 3, 1), [1.0, 0.0], atol=1e-12)


def test_realize_corner_targets():
    for y in ([1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]):
        x = realize_position(np.array(y), 8, 3)
        np.testing.assert_allclose(meta_variables(x, 8, 3), y, atol=1e-12)


def test_realize_residual_contract():
    # the round-trip residual bound for the standard window shape
    rng = np.random.default_rng(7)
    q, t, m = 10, 4, 3
    worst = 0.0
    for _ in range(1000):
        y = rng.uniform(0, 1, size=m - 1)
        x = realize_position(y, q, t)
        assert np.all(np.abs(x) <= 1.0)
        worst = max(worst, np.max(np.abs(meta_variables(x, q, t) - y)))
    assert worst <= 1e-9


def test_realize_stacked_targets_keep_their_leading_shape():
    q, t = 8, 3
    y = np.array([[1.0, 0.0, 1.0], [0.2, 0.7, 0.4]])
    one = realize_position(y[0], q, t)
    assert one.shape == (2 * q + q + t,)
    many = realize_position(y, q, t)
    assert many.shape == (2, one.shape[0])
    np.testing.assert_array_equal(many[0], one)
    assert realize_position(y[None], q, t).shape == (1,) + many.shape
    assert realize_position(np.zeros((0, 3)), q, t).shape == (0, one.shape[0])
    for bad in ([0.5, 1.5, 0.0], [[0.5, 0.5, 0.5], [0.5, -0.1, 0.5]],
                [[0.5, np.nan, 0.5]]):
        with pytest.raises(ValueError, match="^meta-variables must lie in \\[0, 1\\]$"):
            realize_position(np.array(bad), q, t)


def test_realize_rejects_targets_outside_unit_interval():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        realize_position(np.array([0.5, 1.5]), 3, 1)
    with pytest.raises(ValueError, match=r"^y must be an array of meta-variables shaped"):
        realize_position(np.array(0.5), 3, 1)


@pytest.mark.parametrize("q, t", [(0, 0), (3, -1)])
def test_realize_checks_window_arguments_as_meta_variables_does(q, t):
    with pytest.raises(ValueError) as want:
        meta_variables(np.zeros(5), q, t)
    with pytest.raises(ValueError) as got:
        realize_position(np.array([[0.5, 1.0, 0.0]]), q, t)
    assert str(got.value) == str(want.value)


def test_realize_rejects_overlaps_that_reach_past_the_neighbour():
    # Every coordinate at 0.5 realizes [0.5] * 3 with q = 1, t = 2, but from
    # three windows up t > q makes windows that are not neighbours share
    # coordinates, which the solver does not model.
    assert meta_variables(np.full(5, 0.5), 1, 2).tolist() == [0.5] * 3
    with pytest.raises(ValueError, match="^window overlap t=2 exceeds the stride q=1$"):
        realize_position(np.array([0.5, 0.5, 0.5]), 1, 2)
    # Two windows have no other windows to share with.
    x = realize_position(np.array([0.5, 1.0]), 1, 2)
    np.testing.assert_allclose(meta_variables(x, 1, 2), [0.5, 1.0], atol=1e-12)


def test_realize_with_middle_windows_of_no_own_coordinates():
    # At t = q a middle window has no coordinates of its own.  The suite's
    # warning filter makes any RuntimeWarning on the way an error.
    y = np.array([[0.5, 1.0, 0.0]])
    x = realize_position(y, 2, 2)
    assert meta_variables(x, 2, 2).tolist() == y.tolist()


def test_realize_reports_targets_no_sign_pattern_reaches():
    with pytest.raises(ValueError, match="^no sign pattern realizes these meta-variables$"):
        realize_position(np.array([1.0, 0.5, 1.0, 0.9]), 3, 2)
