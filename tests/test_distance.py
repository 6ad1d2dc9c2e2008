"""Distance landscapes: angles, valley geometry, deceptive and robust terms."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpdbench import (
    ConstraintSpec,
    ProblemSpec,
    ROBUST_MINIMIZER,
    ROBUST_STABLE_RANGE,
)
from gpdbench.constraints import constraint_table
from gpdbench.distance import (_prepared_reference, _scaled_rows, compose,
                               deceptive_g, deceptive_term, normalized_angle,
                               radial_profile, robust_g, robust_term,
                               valley_center, valley_radius)

DIAG3 = np.ones(3) / np.sqrt(3.0)


def test_angle_examples():
    # the angle to d, divided by the widest first-orthant angle to d
    assert normalized_angle(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)
    # arccos turns one ulp of cosine noise into ~1e-8 of angle near zero
    assert normalized_angle(np.array([2.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-7)
    assert normalized_angle(DIAG3, np.array([1.0, 0.0, 0.0])) == pytest.approx(
        np.arccos(1 / np.sqrt(3)) / (np.pi / 2))


def test_angle_rejects_zero_vectors():
    with pytest.raises(ValueError, match="^cannot take the angle of a zero vector$"):
        normalized_angle(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="^reference vector has zero length$"):
        normalized_angle(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="^reference vector has zero length$"):
        normalized_angle(np.zeros(2), np.zeros(2))  # d is checked before f


@pytest.mark.parametrize("f, d", [
    ([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], 1.0),  # widest angle 0: NaN before
    ([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], (2.0,)),
    ([[2.0], [3.0]], (1.0,)),
    ([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], np.ones((2, 3))),  # ambiguous truth value before
    ([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], np.ones((1, 3))),  # broadcast before
    ([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], np.ones(4)),  # broadcast error before
    ([0.2, 0.3, 0.5], (1.0, 1.0)),
])
def test_angle_rejects_references_it_cannot_measure_against(f, d):
    f = np.asarray(f)
    shapes = f"got shape {np.shape(d)} for rows of shape {f.shape}"
    with pytest.raises(ValueError, match=f"^reference must be one vector .*; {re.escape(shapes)}$"):
        normalized_angle(f, d)


@pytest.mark.parametrize("scale", (1e-170, 1e200))
def test_constraint_angles_of_points_too_small_or_large_to_square(scale):
    # [1e-170, 0, 0] squares to zero and [1e200, 0, 0] to inf; both point
    # along e1, like [1, 0, 0].
    cons = ProblemSpec(objectives=3, distance_vars=2, distance_kind="robust", constraints=(
        ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.5),
        ConstraintSpec(kind="band", reference=(1.0, 2.0, 3.0), threshold_a=0.1, threshold_b=0.2),
        ConstraintSpec(kind="nearest_axis", axis_j=2))).constraints
    for point in ([1.0, 0.0, 0.0], [1.0, 0.0, 0.5]):
        _, got = constraint_table(np.array(point) * scale, cons)
        _, want = constraint_table(np.array(point), cons)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (got == 0.0).all() == (want == 0.0).all()


def test_max_first_orthant_angle():
    # The widest angle inside the orthant is to the axis of d's smallest
    # component; it maps to exactly 1 and every other angle scales by it.
    for d, widest in ((np.ones(3), np.arccos(1 / np.sqrt(3))),
                      (np.array([1.0, 1.0]), np.pi / 4),
                      (np.array([3.0, 4.0]), np.arccos(0.6))):
        axis = np.eye(d.size)[np.argmin(d)]
        assert normalized_angle(axis, d) == 1.0
        f = d / np.linalg.norm(d) + axis
        angle = np.arccos(f @ d / (np.linalg.norm(f) * np.linalg.norm(d)))
        assert normalized_angle(f, d) == pytest.approx(angle / widest, rel=1e-12)


def test_normalized_angle_examples():
    assert normalized_angle(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert normalized_angle(np.array([0.5, 0.5]), np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-7)
    assert normalized_angle(DIAG3, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.6081734479693927, abs=1e-12)


def test_normalized_angle_range():
    rng = np.random.default_rng(10)
    f = rng.uniform(0.0, 1.0, size=(500, 4)) + 1e-9
    d = np.array([1.0, 0.5, 2.0, 1.0])
    phi = normalized_angle(f, d)
    assert phi.shape == (500,)
    assert np.all(phi >= 0.0) and np.all(phi <= 1.0)


# The angle rule as three functions, the form it had before it became one
# kernel: the oracle that normalized_angle and constraint_table must match.
def oracle_angle_to_reference(f, d):
    f, f_sq = _scaled_rows(f)
    d, d_sq = _scaled_rows(d)
    fn = np.sqrt(f_sq)
    dn = np.sqrt(d_sq)
    if dn == 0.0:
        raise ValueError("reference vector has zero length")
    if np.any(fn == 0.0):
        raise ValueError("cannot take the angle of a zero vector")
    cos = np.sum(f * d, axis=-1) / (fn * dn)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def oracle_max_first_orthant_angle(d):
    d, d_sq = _scaled_rows(d)
    dn = np.sqrt(d_sq)
    if dn == 0.0:
        raise ValueError("reference vector has zero length")
    return float(np.arccos(np.clip(d.min() / dn, -1.0, 1.0)))


def oracle_normalized_angle(f, d):
    return np.clip(oracle_angle_to_reference(f, d) / oracle_max_first_orthant_angle(d),
                   0.0, 1.0)


def oracle_constraint_table(f_p, constraints):
    phis = np.zeros(f_p.shape[:-1] + (len(constraints),))
    viol = np.zeros_like(phis)
    for col, con in enumerate(constraints):
        if con.kind == "nearest_axis":
            phis[..., col] = oracle_normalized_angle(f_p, np.eye(f_p.shape[-1])[con.axis_j - 1])
            f, sq = _scaled_rows(f_p)
            cos = np.clip(f / np.sqrt(sq)[..., None], -1.0, 1.0)
            gap = np.arccos(cos[..., con.axis_j - 1]) - np.arccos(cos.max(axis=-1))
            viol[..., col] = np.where(np.argmax(f_p, axis=-1) + 1 == con.axis_j, 0.0, gap)
            continue
        phi = oracle_normalized_angle(f_p, con.reference)
        phis[..., col] = phi
        if con.kind == "min_angle":
            viol[..., col] = np.maximum(0.0, con.threshold_a - phi)
        elif con.kind == "max_angle":
            viol[..., col] = np.maximum(0.0, phi - con.threshold_a)
        else:
            viol[..., col] = (np.maximum(0.0, con.threshold_a - phi)
                              + np.maximum(0.0, phi - con.threshold_b))
    return phis, viol


def outcome(fn, *args):
    """fn's result as bytes, or the message of the ValueError it raised."""
    try:
        out = fn(*args)
    except ValueError as err:
        return str(err)
    return [np.asarray(a).tobytes() for a in (out if isinstance(out, tuple) else (out,))]


@st.composite
def scaled_vectors(draw, m, rows, lo=0.0):
    """rows vectors of m components, some zero, each row scaled by 1e-170..1e200."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(lo, 1.0, size=(rows, m))
    vals[rng.uniform(size=(rows, m)) < draw(st.sampled_from((0.0, 0.3, 0.7)))] = 0.0
    exps = st.one_of(st.sampled_from((-170.0, -160.0, 0.0, 160.0, 200.0)),
                     st.floats(-170.0, 200.0))
    return vals * 10.0 ** np.array(draw(st.lists(exps, min_size=rows, max_size=rows)))[:, None]


@st.composite
def angle_cases(draw):
    m = draw(st.integers(2, 12))
    f = draw(scaled_vectors(m, draw(st.integers(1, 6)), lo=-1.0))
    if draw(st.booleans()):
        f = f[0]
    d = draw(scaled_vectors(m, 1))[0]
    cons = []
    for kind in draw(st.lists(st.sampled_from(("min_angle", "max_angle", "band",
                                               "nearest_axis")), max_size=4)):
        if kind == "nearest_axis":
            cons.append(ConstraintSpec(kind=kind, axis_j=draw(st.integers(1, m))))
            continue
        a, b = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2)))
        ref = draw(scaled_vectors(m, 1))[0]
        cons.append(ConstraintSpec(kind=kind, reference=ref, threshold_a=a, threshold_b=b))
    return f, d, tuple(cons)


@settings(max_examples=120, deadline=None)
@given(angle_cases())
def test_angle_kernel_matches_the_three_function_oracle_bit_for_bit(case):
    f, d, cons = case
    assert outcome(normalized_angle, f, d) == outcome(oracle_normalized_angle, f, d)
    assert outcome(constraint_table, f, cons) == outcome(oracle_constraint_table, f, cons)


@st.composite
def references(draw, m):
    """The diagonal, an axis or a scaled vector, each zero of either sign."""
    kind = draw(st.sampled_from(("diagonal", "axis", "scaled")))
    if kind == "diagonal":
        d = np.ones(m)
    elif kind == "axis":
        d = np.eye(m)[draw(st.integers(0, m - 1))]
    else:
        d = draw(scaled_vectors(m, 1))[0]
    flip = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    return np.where((d == 0.0) & flip, -0.0, d)


@st.composite
def reference_cases(draw):
    m = draw(st.integers(2, 10))
    return draw(scaled_vectors(m, draw(st.integers(1, 4)))), draw(references(m))


@settings(max_examples=150, deadline=None)
@given(reference_cases())
def test_prepared_reference_keeps_the_bits_of_an_unprepared_one(case):
    # Every reference is prepared once and reused, whatever its type.  The
    # memo must give the bits, or the error, of the unprepared oracle.
    f, d = case
    cons = tuple(ConstraintSpec(kind=kind, reference=d, threshold_a=0.2, threshold_b=0.6)
                 for kind in ("min_angle", "max_angle", "band"))
    cons += (ConstraintSpec(kind="nearest_axis", axis_j=1),)
    want = outcome(oracle_normalized_angle, f, d)
    for ref in (d, tuple(d.tolist()), d.tolist()):
        for _ in range(2):  # the second round reads the prepared entries
            assert outcome(normalized_angle, f, ref) == want
    assert outcome(constraint_table, f, cons) == outcome(oracle_constraint_table, f, cons)


def test_prepared_reference_is_reused_and_failures_are_not_kept():
    f = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    before = _prepared_reference.cache_info()
    for ref in ((0.0, -0.0, 0.0), (-0.0, 0.0, 0.0)):
        for _ in range(3):  # d is checked before f, on every call
            with pytest.raises(ValueError, match="^reference vector has zero length$"):
                normalized_angle(f, ref)
    assert _prepared_reference.cache_info().currsize == before.currsize
    ref = (0.25, -0.0, 7.0)
    first = normalized_angle(f[:1], ref)
    hits = _prepared_reference.cache_info().hits
    assert normalized_angle(f[:1], ref).tobytes() == first.tobytes()
    assert normalized_angle(f[:1], np.array(ref)).tobytes() == first.tobytes()
    assert _prepared_reference.cache_info().hits == hits + 2


def test_valley_center_values():
    assert valley_center(1.0, 1) == 0.5  # sin(0) exactly
    assert valley_center(0.0, 1) == pytest.approx(0.5, abs=1e-12)
    assert valley_center(0.5, 1) == pytest.approx(0.544504183632599, abs=1e-12)


def test_valley_center_bounds():
    phi = np.linspace(0.0, 1.0, 2001)
    for i in (1, 2, 5, 20):
        v = valley_center(phi, i)
        assert np.all(v >= 1 / 12 - 1e-12) and np.all(v <= 11 / 12 + 1e-12)


def test_valley_radius_values():
    assert valley_radius(0.0, 1) == 0.04  # cos(0) exactly
    assert valley_radius(0.5, 1) == pytest.approx(0.01, abs=1e-12)
    assert valley_radius(0.25, 1) == pytest.approx(0.025, abs=1e-12)


def test_valley_radius_bounds_and_oscillation():
    phi = np.linspace(0.0, 1.0, 4001)
    for k in (1, 2, 3):
        r = valley_radius(phi, k)
        assert np.all(r >= 0.01 - 1e-12) and np.all(r <= 0.04 + 1e-12)
        interior = (r[1:-1] < r[:-2]) & (r[1:-1] < r[2:])
        assert int(interior.sum()) == k  # k narrow-valley dips across the sweep


def test_deceptive_term_shape():
    v, r = 0.5, 0.02
    assert deceptive_term(v, v, r) == 0.0  # exact zero at the valley center
    np.testing.assert_allclose(deceptive_term(v - r, v, r), 10.0, atol=1e-12)
    np.testing.assert_allclose(deceptive_term(v + r, v, r), 10.0, atol=1e-12)
    np.testing.assert_allclose(deceptive_term(0.0, v, r), 5.0, rtol=1e-12)
    np.testing.assert_allclose(deceptive_term(1.0, v, r), 5.0, rtol=1e-12)


def test_deceptive_term_branch_continuity():
    for v in (0.2, 0.5, 0.9):
        for r in (0.01, 0.04):
            for edge in (v - r, v + r):
                lo = deceptive_term(np.nextafter(edge, 0.0), v, r)
                hi = deceptive_term(np.nextafter(edge, 1.0), v, r)
                assert abs(lo - hi) <= 1e-9


def test_deceptive_term_deceptive_slope():
    # walking downhill from either box edge leads away from the true valley
    v, r = 0.6, 0.02
    x_left = np.linspace(0.0, v - r, 200)
    assert np.all(np.diff(deceptive_term(x_left, v, r)) > 0.0)
    x_right = np.linspace(v + r, 1.0, 200)
    assert np.all(np.diff(deceptive_term(x_right, v, r)) < 0.0)


def oracle_deceptive_term(x, v, r):
    """The three pieces on every coordinate, picked by nested np.where."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    left = 5.0 * (x + r - v) / (v - r) + 10.0
    valley = 5.0 * (np.cos(((x - v) / r + 1.0) * np.pi) + 1.0)
    right = 5.0 * (x - v - r) / (v + r - 1.0) + 10.0
    return np.where(x < v - r, left, np.where(x <= v + r, valley, right))


# Where a coordinate sits against its valley [v - r, v + r].
VALLEY_SPOTS = ("center", "inside", "lower edge", "upper edge",
                "ulp inside lower", "ulp inside upper")
OUTER_SPOTS = ("ulp below lower", "ulp above upper", "zero", "one", "nan")


@st.composite
def deceptive_cases(draw):
    """x, v, r as scalars, as vectors or as (B, S) x with (S,) v and (B, 1) r.

    Each coordinate sits at one of the spots above or is uniform; a case
    puts all, none or some of them inside their valleys.  v spans the range
    of valley_center and r that of valley_radius, ends included; v = 0.11
    and v = 0.9 with r = 0.04 have edges where the pieces round apart.
    """
    layout = draw(st.sampled_from(("scalar", "vector", "batch")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "scalar":
        shape, v_shape, r_shape = (), (), ()
    elif layout == "vector":
        shape = v_shape = r_shape = (draw(st.integers(0, 8)),)
    else:
        b, s = draw(st.integers(0, 6)), draw(st.integers(1, 6))
        shape, v_shape, r_shape = (b, s), (s,), (b, 1)
    v = rng.choice([1.0 / 12.0, 0.11, 0.9, 11.0 / 12.0,
                    *rng.uniform(1.0 / 12.0, 11.0 / 12.0, 4)],
                   size=v_shape)
    r = rng.choice([0.01, 0.04, *rng.uniform(0.01, 0.04, 4)], size=r_shape)
    vb, rb = np.broadcast_to(v, shape), np.broadcast_to(r, shape)
    lower, upper = vb - rb, vb + rb
    at = {"center": vb, "inside": vb + rng.uniform(-1.0, 1.0, shape) * rb,
          "lower edge": lower, "upper edge": upper,
          "ulp inside lower": np.nextafter(lower, 1.0),
          "ulp inside upper": np.nextafter(upper, 0.0),
          "ulp below lower": np.nextafter(lower, 0.0),
          "ulp above upper": np.nextafter(upper, 1.0),
          "zero": np.zeros(shape), "one": np.ones(shape), "nan": np.full(shape, np.nan),
          "uniform": rng.uniform(0.0, 1.0, shape)}
    spots = {"all": VALLEY_SPOTS, "none": OUTER_SPOTS,
             "some": VALLEY_SPOTS + OUTER_SPOTS + ("uniform",)}[
        draw(st.sampled_from(("all", "none", "some")))]
    x = np.choose(rng.integers(len(spots), size=shape), [at[s] for s in spots])
    if layout == "scalar":
        return float(x), float(v), float(r)
    return x, v, r


@settings(max_examples=200, deadline=None)
@given(deceptive_cases())
# At these edges the line and the cosine round apart, so only the edge rule
# picks the oracle's bits.
@example((np.array([0.11 - 0.04, 0.9 + 0.04]), np.array([0.11, 0.9]), 0.04))
def test_deceptive_term_matches_the_nested_where_oracle_bit_for_bit(case):
    got, want = deceptive_term(*case), oracle_deceptive_term(*case)
    assert isinstance(got, np.ndarray)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_deceptive_term_takes_the_cosine_of_in_valley_coordinates_only(monkeypatch):
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, 1.0, size=(1000, 10))
    x[::50, 3] = np.nan  # never in a valley
    phi = rng.uniform(0.0, 1.0, size=(1000, 1))
    v = valley_center(phi, np.arange(1.0, 11.0))
    r = valley_radius(phi, 2)
    in_valley = int(np.count_nonzero((x >= v - r) & (x <= v + r)))
    assert 0 < in_valley < x.size // 10
    handed, cos = [], np.cos

    def counting_cos(a):
        handed.append(np.size(a))
        return cos(a)

    monkeypatch.setattr(np, "cos", counting_cos)
    deceptive_term(x, v, r)
    assert sum(handed) == in_valley


def test_deceptive_g_examples():
    phi = 1.0
    v = valley_center(phi, np.array([1.0, 2.0, 3.0]))
    assert deceptive_g(v, phi, 1) == 0.0
    single = deceptive_g(np.array([0.0]), 1.0, 1)
    np.testing.assert_allclose(single, 5.0, rtol=1e-12)


def test_deceptive_g_additivity_and_bounds():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=(200, 6))
    phi = rng.uniform(0.0, 1.0, size=200)
    g = deceptive_g(x, phi, 2)
    assert g.shape == (200,)
    assert np.all(g >= 0.0) and np.all(g <= 10.0 * 6)
    # per-variable sum with the 1-based valley index of each column
    r = valley_radius(phi, 2)
    total = sum(deceptive_term(x[:, i], valley_center(phi, i + 1), r)
                for i in range(6))
    np.testing.assert_allclose(g, total, rtol=1e-12)


def test_robust_term_values():
    assert robust_term(ROBUST_MINIMIZER) == pytest.approx(1.8968668548580148e-4, rel=1e-12)
    assert robust_term(0.2) == pytest.approx(0.13088386701582255, rel=1e-12)
    assert robust_term(ROBUST_MINIMIZER) > 0.0


def test_robust_minimizer_is_the_grid_argmin():
    x = np.linspace(0.0, 1.0, 1000001)
    z = robust_term(x)
    am = x[np.argmin(z)]
    assert abs(am - ROBUST_MINIMIZER) <= 1e-6
    # the pinned point is off-grid, so it must undercut every grid value
    assert robust_term(ROBUST_MINIMIZER) <= np.min(z)
    # and every value on a 1e-9 grid around it and within 1e5 ulps of it
    fine = np.linspace(0.60006, 0.60007, 10001)
    ulps = ROBUST_MINIMIZER + np.arange(-100000, 100001) * np.spacing(ROBUST_MINIMIZER)
    assert robust_term(ROBUST_MINIMIZER) <= np.min(robust_term(fine))
    assert robust_term(ROBUST_MINIMIZER) <= np.min(robust_term(ulps))


def test_robust_stable_range_is_flat():
    lo, hi = ROBUST_STABLE_RANGE
    x = np.linspace(lo, hi, 2001)
    z = robust_term(x)
    # the plateau varies gently; the sharp valley region does not
    assert np.max(z) - np.min(z) <= 0.15
    assert np.max(np.abs(np.diff(z))) <= 1e-3


def test_robust_g_sums_terms():
    x = np.array([0.2, 0.6, 0.35])
    np.testing.assert_allclose(robust_g(x), robust_term(x).sum(), rtol=1e-12)


def test_radial_profile_kinds():
    assert radial_profile(0.0, 0.5, "deceptive", "multiplicative") == 1.0
    assert radial_profile(2.0, 0.5, "robust", "multiplicative") == 3.0
    assert radial_profile(2.0, 0.5, "robust", "additive") == 2.0
    assert radial_profile(0.0, 1.0, "convex_concave", "multiplicative") == pytest.approx(1.0)
    assert radial_profile(0.0, 0.0, "convex_concave", "multiplicative") == pytest.approx(0.5)
    assert radial_profile(0.0, 1 / 6, "disconnected", "multiplicative") == pytest.approx(1.0, abs=1e-12)
    assert radial_profile(0.0, 0.0, "disconnected", "multiplicative") == pytest.approx(1.1)


def test_radial_profile_guard_rails():
    # tiny negative numerical crumbs are floored, real negatives rejected
    assert radial_profile(-1e-9, 0.5, "deceptive", "multiplicative") >= 1.0
    with pytest.raises(ValueError, match="-1e-3 floor"):
        radial_profile(-0.01, 0.5, "deceptive", "multiplicative")
    with pytest.raises(ValueError, match="kind"):
        radial_profile(0.0, 0.5, "nope", "multiplicative")


def test_compose():
    f_p = np.array([0.6, 0.8])
    np.testing.assert_allclose(compose(f_p, 2.0, "multiplicative"), [1.2, 1.6])
    np.testing.assert_allclose(compose(f_p, 2.0, "additive"), [2.6, 2.8])
    batch = np.tile(f_p, (3, 1))
    out = compose(batch, np.array([1.0, 2.0, 3.0]), "multiplicative")
    np.testing.assert_allclose(out[2], [1.8, 2.4])
    with pytest.raises(ValueError, match="composition"):
        compose(f_p, 2.0, "nope")


def test_front_scaling_dominates_interior():
    # any positive auxiliary value pushes points weakly outward, never inward
    rng = np.random.default_rng(12)
    f_p = rng.uniform(0.05, 1.0, size=(100, 3))
    for kind in ("deceptive", "robust"):
        for comp in ("multiplicative", "additive"):
            front = compose(f_p, radial_profile(0.0, 0.3, kind, comp), comp)
            lifted = compose(f_p, radial_profile(0.7, 0.3, kind, comp), comp)
            assert np.all(front <= lifted + 1e-12)
