"""The stage kernels keep the bits of their earlier numpy forms at every rank.

The kernels call numpy's ufuncs and their reduce/accumulate methods directly.
The references below are the forms they replaced, written with np.clip,
np.sum, np.concatenate and np.broadcast_arrays; every output must match
them byte for byte on single points, (B, K) stacks and (A, B, K) stacks,
with signed zeros and rows too small or too large to square, also on stacks
of enough rows for the row helpers to work a column at a time.
"""

import numpy as np
import pytest

from gpdbench import ConstraintSpec, _rows
from gpdbench.constraints import constraint_table, nearest_axis
from gpdbench.distance import (_scaled_rows, deceptive_g, deceptive_term,
                               normalized_angle, radial_profile, robust_g,
                               robust_term, valley_center, valley_radius)
from gpdbench.position import meta_variables, p_norm, spherical_map


def ref_meta_variables(x, q, t):
    width = q + t
    groups = (x.shape[-1] - t) // q
    padded = np.concatenate(
        [np.zeros(x.shape[:-1] + (1,), dtype=float), np.cumsum(x, axis=-1)], axis=-1)
    starts = np.arange(groups) * q
    return np.abs(padded[..., starts + width] - padded[..., starts]) / width


def ref_spherical_map(y):
    ang = y * (np.pi / 2.0)
    c = np.cos(ang)
    s = np.sin(ang)
    m1 = y.shape[-1]
    head = np.concatenate(
        [np.ones(y.shape[:-1] + (1,), dtype=float), np.cumprod(c, axis=-1)], axis=-1)
    out = np.empty(y.shape[:-1] + (m1 + 1,), dtype=float)
    out[..., 0] = head[..., m1]
    out[..., 1:] = head[..., m1 - 1::-1] * s[..., ::-1]
    return out


def ref_p_norm(v, p):
    a = np.abs(v)
    peak = a.max(axis=-1)
    safe = np.where(peak == 0.0, 1.0, peak)
    return peak * np.sum((a / safe[..., None]) ** p, axis=-1) ** (1.0 / p)


def ref_scaled_rows(v):
    with np.errstate(over="ignore"):
        sq = np.sum(v * v, axis=-1)
    tiny = np.finfo(float).tiny
    if tiny <= sq.min(initial=np.inf) and sq.max(initial=0.0) < np.inf:
        return v, sq
    big = np.max(np.abs(v), axis=-1, keepdims=True)
    bad = (sq < tiny) | (sq == np.inf)
    bad &= (big[..., 0] > 0.0) & (big[..., 0] < np.inf)
    v = np.where(bad[..., None], v / np.where(bad[..., None], big, 1.0), v)
    return v, np.sum(v * v, axis=-1)


def ref_normalized_angle(f, d):
    f, f_sq = ref_scaled_rows(f)
    d, d_sq = ref_scaled_rows(d)
    dn = np.sqrt(d_sq)
    widest = np.arccos(np.clip(d.min() / dn, -1.0, 1.0))
    cos = np.sum(f * d, axis=-1) / (np.sqrt(f_sq) * dn)
    return np.clip(np.arccos(np.clip(cos, -1.0, 1.0)) / widest, 0.0, 1.0)


def ref_nearest_axis_gap(f_p, j):
    f, sq = ref_scaled_rows(f_p)
    cos = np.clip(f / np.sqrt(sq)[..., None], -1.0, 1.0)
    gap = np.arccos(cos[..., j - 1]) - np.arccos(cos.max(axis=-1))
    return np.where(np.argmax(f_p, axis=-1) + 1 == j, 0.0, gap)


def ref_deceptive_term(x, v, r):
    x, v, r = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (x, v, r)))
    below = x < v - r
    out = np.where(below, 5.0 * (x + r - v) / (v - r) + 10.0,
                   5.0 * (x - v - r) / (v + r - 1.0) + 10.0)
    inside = ~below & (x <= v + r)
    xi, vi, ri = x[inside], v[inside], r[inside]
    out[inside] = 5.0 * (np.cos(((xi - vi) / ri + 1.0) * np.pi) + 1.0)
    return out


def ref_deceptive_g(x_d, phi, k):
    idx = np.arange(1, x_d.shape[-1] + 1, dtype=float)
    v = valley_center(phi[..., None], idx)
    r = valley_radius(phi[..., None], k)
    return np.sum(ref_deceptive_term(x_d, v, r), axis=-1)


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# Leading shapes: a single point, (B, K), (A, B, K), and (A, B, K) with A
# large enough for the row helpers to work a column at a time.
RANKS = ((), (7,), (3, 5), (1000, 2))


def signed(rng, lead, k, lo=-1.0):
    """Uniform values with exact zeros of both signs in fixed columns."""
    v = rng.uniform(lo, 1.0, size=lead + (k,))
    v[..., 1] = -0.0
    v[..., 2] = 0.0
    return v


@pytest.mark.parametrize("lead", RANKS)
def test_position_kernels_keep_their_bits(lead):
    rng = np.random.default_rng(len(lead))
    for q, t in ((3, 1), (1, 0), (13, 0), (4, 2)):
        x = signed(rng, lead, 3 * q + t)
        assert same(meta_variables(x, q, t), ref_meta_variables(x, q, t))
    for m1 in (1, 2, 4, 9):
        y = np.abs(signed(rng, lead, max(m1, 3), lo=0.0))[..., :m1]
        y[..., 0] = -0.0
        assert same(spherical_map(y), ref_spherical_map(y))
    for p in (0.3, 1.0, 2.0, 3.7, 60.0):
        v = signed(rng, lead, 5) * 10.0 ** rng.uniform(-170, 200, size=lead + (1,))
        assert same(p_norm(v, p), ref_p_norm(v, p))
        assert same(p_norm(np.zeros_like(v), p), ref_p_norm(np.zeros_like(v), p))


@pytest.mark.parametrize("lead", RANKS)
def test_angle_kernels_keep_their_bits(lead):
    rng = np.random.default_rng(10 + len(lead))
    f = np.abs(signed(rng, lead, 4, lo=0.0))
    f[..., 1] = -0.0
    # Per-row scales whose squares are subnormal, underflow or overflow.
    for scale in (1e-170, 1e-160, 1.0, 1e160, 1e200):
        fs = f * scale
        got, want = _scaled_rows(fs), ref_scaled_rows(fs)
        assert same(got[0], want[0]) and same(got[1], want[1])
        for d in (np.ones(4), np.eye(4)[2], np.array([0.3, -0.0, 2.0, 1e-200]),
                  np.array([1e200, 3e199, 1.0, 2.0])):
            assert same(normalized_angle(fs, d), ref_normalized_angle(fs, d))
        cons = (ConstraintSpec(kind="nearest_axis", axis_j=1),
                ConstraintSpec(kind="nearest_axis", axis_j=3))
        _, viol = constraint_table(fs, cons)
        for col, con in enumerate(cons):
            assert same(viol[..., col], ref_nearest_axis_gap(fs, con.axis_j))
        assert same(nearest_axis(fs), np.argmax(fs, axis=-1) + 1)


@pytest.mark.parametrize("lead", RANKS)
def test_distance_kernels_keep_their_bits(lead):
    rng = np.random.default_rng(20 + len(lead))
    x_d = signed(rng, lead, 7, lo=0.0)
    phi = rng.uniform(0.0, 1.0, size=lead)
    assert same(deceptive_g(x_d, phi, 3), ref_deceptive_g(x_d, phi, 3))
    assert same(robust_g(x_d), np.sum(robust_term(x_d), axis=-1))
    g = np.where(phi < 0.3, -0.0, phi)
    assert same(radial_profile(g, phi, "deceptive", "additive"), np.maximum(g, 0.0) + 0.0)
    with pytest.raises(ValueError, match="below the -1e-3 floor"):
        radial_profile(np.full(lead, -0.01), phi, "robust", "multiplicative")


def test_deceptive_term_keeps_its_bits_on_broadcast_and_scalar_operands():
    rng = np.random.default_rng(30)
    v = rng.uniform(0.1, 0.9, size=(40, 6))
    r = rng.uniform(0.01, 0.04, size=(40, 1))
    x = rng.uniform(0.0, 1.0, size=(40, 6))
    x[::3] = v[::3]  # valley centers
    x[1::4] = (v - r)[1::4]  # left valley edges
    x[2::5, 0] = -0.0
    for args in ((x, v, r), (x, v[:1], r), (0.5, v, r), (x, v, 0.03), (x[0], v[0], r[0]),
                 (0.5, 0.5, 0.02), (0.1, 0.5, 0.02), (0.51, 0.5, 0.02), (np.nan, 0.5, 0.02)):
        assert same(deceptive_term(*args), ref_deceptive_term(*args))


def test_the_largest_leading_shape_takes_the_column_paths():
    assert RANKS[-1][0] >= _rows.COLUMN_ROWS
