"""The reference layer's kernels against slow oracles, bit for bit.

dominance_mask is checked against the all-pairs filter, igd against scipy's
cdist, _halton against scipy's unscrambled Halton sampler, the batched
realize_position against the one-row-at-a-time solver it replaced, and
perturb_experiment against the tile-and-evaluate body it replaced (both
copied below).  scipy is a test-only dependency: the library itself never imports
it.
"""

import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.stats import qmc

from test_array_pipeline import specs

import gpdbench.evaluator
import gpdbench.reference
from gpdbench import (ProblemSpec, dominance_mask, evaluate, evaluate_arrays,
                      front_sample, igd, meta_variables, pareto_set_sample,
                      perturb_experiment, realize_position)
from gpdbench.reference import _halton


def all_pairs_nondominated(pts):
    n, m = pts.shape
    keep = np.empty(n, dtype=bool)
    for start in range(0, n, 256):  # 256 rows at a time bound the memory
        rows = pts[start:start + 256]
        le = np.ones((rows.shape[0], n), dtype=bool)  # [i, k]: row k <= row i everywhere
        lt = np.zeros_like(le)  # [i, k]: row k < row i somewhere
        for j in range(m):
            le &= pts[None, :, j] <= rows[:, j, None]
            lt |= pts[None, :, j] < rows[:, j, None]
        keep[start:start + 256] = ~np.any(le & lt, axis=1)
    return keep


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def reference_realize(y, q, t):
    """The per-row solver: depth-first sign search, then a backward walk.

    Returns the position vector and the sign pattern the search chose.
    """
    y = np.asarray(y, dtype=float)
    g = y.shape[0]
    width = q + t
    target = y * width
    n_excl = np.full(g, width, dtype=float)
    if g > 1:
        n_excl[0] -= t
        n_excl[-1] -= t
        if g > 2:
            n_excl[1:-1] -= 2 * t

    def propagate(signs):
        lo_prev, hi_prev = 0.0, 0.0
        intervals = []
        for i, sgn in enumerate(signs):
            cap = float(t) if i < g - 1 else 0.0
            w = sgn * target[i]
            lo = max(w - hi_prev - n_excl[i], -cap)
            hi = min(w - lo_prev + n_excl[i], cap)
            if lo > hi + 1e-12:
                return None
            intervals.append((lo, hi))
            lo_prev, hi_prev = lo, hi
        return intervals

    stack = [[]]
    signs = None
    while stack:
        prefix = stack.pop()
        if len(prefix) == g:
            signs = prefix
            break
        branches = (1,) if target[len(prefix)] == 0.0 else (-1, 1)
        for sgn in branches:
            cand = prefix + [sgn]
            if propagate(cand) is not None:
                stack.append(cand)
    if signs is None:
        raise ValueError("no sign pattern realizes these meta-variables")
    intervals = propagate(signs)

    shared = np.zeros(g, dtype=float)
    eps = np.zeros(g, dtype=float)
    nxt = 0.0
    for i in range(g - 1, -1, -1):
        w = signs[i] * target[i]
        lo_prev, hi_prev = (0.0, 0.0) if i == 0 else intervals[i - 1]
        lo = max(lo_prev, w - nxt - n_excl[i])
        hi = min(hi_prev, w - nxt + n_excl[i])
        prev = min(max(0.0, lo), hi)
        eps[i] = w - nxt - prev
        if i > 0:
            shared[i - 1] = prev
        nxt = prev

    x = np.zeros((g - 1) * q + width, dtype=float)
    for i in range(g):
        start = i * q
        if t > 0 and i > 0:
            x[start:start + t] = shared[i - 1] / t
        excl_lo = start + (t if i > 0 else 0)
        excl_hi = start + width - (t if i < g - 1 else 0)
        x[excl_lo:excl_hi] = eps[i] / n_excl[i]
    return np.clip(x, -1.0, 1.0), signs


# --- dominance_mask -----------------------------------------------------------

POINT_SETS = ("uniform", "rounded", "duplicated", "front", "dominated", "sum_tie")


def point_set(kind, m, n, rng):
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, size=(n, m))
    if kind == "rounded":  # a coarse grid: ties in every coordinate, many equal rows
        return np.round(rng.uniform(0.0, 1.0, size=(n, m)) * 3.0) / 3.0
    if kind == "duplicated":  # every row repeated, some many times
        base = rng.uniform(0.0, 1.0, size=(max(1, n // 4), m))
        return base[rng.integers(0, base.shape[0], size=n)]
    front = np.abs(rng.normal(size=(n, m)))
    front /= np.linalg.norm(front, axis=1, keepdims=True) + 1e-300
    if kind == "front":  # mutually nondominated up to rounding
        return front
    if kind == "dominated":  # a few front points dominate most of the rest
        pts = front * rng.uniform(1.0, 2.0, size=(n, 1))
        pts[:max(1, n // 50)] = front[:max(1, n // 50)]
        return pts
    # fl(1e-20 + 1) == fl(0 + 1): the dominated one of the two tie points
    # sorts last among 512*c - 1 lighter rows, so it ends a 512-row chunk
    # unless equal sums are ordered lexicographically.  Constant padding
    # columns change neither sums nor dominance.
    chunks = 1 + n // 800
    x = np.arange(1, 512 * chunks) / (1024.0 * chunks)
    pts = np.concatenate([np.column_stack([x, 0.5 - x]),
                          [[1e-20, 1.0], [0.0, 1.0]]])
    pts = np.column_stack([pts, np.zeros((pts.shape[0], m - 2))])
    return pts[rng.permutation(pts.shape[0])]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(POINT_SETS), m=st.integers(2, 10),
       n=st.one_of(st.integers(1, 40), st.integers(400, 1600)),
       seed=st.integers(0, 2**32 - 1))
def test_dominance_mask_equals_all_pairs_oracle(kind, m, n, seed):
    pts = point_set(kind, m, n, np.random.default_rng(seed))
    got = dominance_mask(pts)
    assert got.dtype == bool and got.shape == (pts.shape[0],)
    np.testing.assert_array_equal(got, all_pairs_nondominated(pts))


M2_POINT_SETS = ("front", "grid", "signed", "nan_rows", "duplicated", "large")


def m2_point_set(kind, rng):
    if kind in ("front", "duplicated"):
        return point_set(kind, 2, 1500, rng)
    if kind == "grid":  # heavy ties in both coordinates
        return rng.integers(0, 6, size=(2000, 2)).astype(float)
    if kind == "signed":
        return rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], size=(500, 2))
    if kind == "nan_rows":
        pts = rng.integers(0, 6, size=(1000, 2)).astype(float)
        pts[rng.uniform(size=pts.shape) < 0.05] = np.nan
        pts[::97] = np.nan
        return pts
    return point_set("dominated", 2, 20000, rng)


@pytest.mark.parametrize("kind", M2_POINT_SETS)
def test_two_objective_mask_equals_all_pairs_oracle(kind):
    pts = m2_point_set(kind, np.random.default_rng(len(kind)))
    np.testing.assert_array_equal(dominance_mask(pts), all_pairs_nondominated(pts))


def test_dominance_mask_non_finite_rows_and_signed_zeros():
    inf, nan = np.inf, np.nan
    rows = [[0.0, 1.0], [-0.0, 1.0], [nan, 0.0], [nan, 0.0], [0.5, nan], [1.0, 1.0],
            [0.0, 2.0], [nan, nan], [-0.0, -inf], [0.0, -inf], [inf, inf], [-inf, inf],
            [-inf, inf], [inf, nan], [-inf, 3.0]]
    # [inf, -inf] dominates every [inf, k] from beyond the first chunk,
    # although its coordinate sum is NaN.
    big = ([[inf, float(k)] for k in range(600)]
           + [[inf, -inf], [-inf, inf], [1e308, 1e308], [inf, 1e308]])
    # Two columns take the M = 2 sweep; a constant third column keeps
    # dominance and takes the archive sweep.
    for pts in (np.array(rows), np.array(big)):
        for pad in (0, 1):
            padded = np.column_stack([pts, np.zeros((len(pts), pad))])
            np.testing.assert_array_equal(dominance_mask(padded),
                                          all_pairs_nondominated(padded))


# --- igd ---------------------------------------------------------------------

def cdist_igd(a, r):
    return float(cdist(r, a).min(axis=1).mean())


def assert_same_igd(a, r):
    got, want = igd(a, r), cdist_igd(a, r)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert same_bits(got, want), (got, want)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 10), n_a=st.integers(1, 3000), n_r=st.integers(1, 400),
       coincide=st.booleans(), nan_in=st.sampled_from((None, "a", "r")),
       block=st.sampled_from((None, 1000)),
       scale=st.sampled_from((1e-3, 1.0, 1e6)), seed=st.integers(0, 2**32 - 1))
def test_igd_equals_cdist_bit_for_bit(m, n_a, n_r, coincide, nan_in, block, scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_a, m)) * scale
    r = rng.normal(size=(n_r, m)) * scale
    if coincide:  # exact zero distances for some reference points
        k = min(n_a, n_r)
        a[:k // 2] = r[:k // 2]
    if nan_in == "a":
        a[rng.integers(n_a), rng.integers(m)] = np.nan
    elif nan_in == "r":
        r[rng.integers(n_r), rng.integers(m)] = np.nan
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # approximations then span up to three blocks
            mp.setattr(gpdbench.reference, "_IGD_BLOCK", block)
        assert_same_igd(a, r)


def test_igd_equals_cdist_across_blocks():
    rng = np.random.default_rng(3)
    # more approximation points than one block holds, and many reference blocks
    assert_same_igd(rng.uniform(size=(70000, 3)), rng.uniform(size=(5, 3)))
    assert_same_igd(rng.uniform(size=(300, 4)), rng.uniform(size=(1000, 4)))


def front_like(rng, m, n):
    """n points on the unit sphere in the first orthant; a segment at M = 1."""
    if m == 1:
        return rng.uniform(size=(n, 1))
    pts = np.abs(rng.normal(size=(n, m)))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@contextmanager
def igd_paths():
    """Per igd call inside the block, "swept" if it pruned on coordinate 0.

    A pruned call hands the settle helper a window narrower than all of a
    for every block (the seed, or the left window it ends); an unpruned call
    hands it all of a every time, and is "blocked".
    """
    paths, windows = [], []
    real_nearest = gpdbench.reference._nearest
    real_window = gpdbench.reference._window_minima

    def nearest(r, a):
        windows.clear()
        out = real_nearest(r, a)
        full = all(w == (0, a.shape[0]) for w in windows)
        paths.append("blocked" if full else "swept")
        return out

    def window(rb, r0, a_cols, lo, hi, *rest):
        windows.append((lo, hi))
        return real_window(rb, r0, a_cols, lo, hi, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gpdbench.reference, "_nearest", nearest)
        mp.setattr(gpdbench.reference, "_window_minima", window)
        yield paths


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 4), n_a=st.integers(1, 3000), n_r=st.integers(1, 600),
       noise=st.sampled_from((0.0, 1e-9, 1e-3, 0.1)), block=st.sampled_from((None, 1000)),
       scale=st.sampled_from((1e-150, 1.0, 1e150)), seed=st.integers(0, 2**32 - 1))
def test_swept_igd_on_fronts_equals_cdist(m, n_a, n_r, noise, block, scale, seed):
    # Approximations on or near the reference front, so the windows prune.
    rng = np.random.default_rng(seed)
    r = front_like(rng, m, n_r) * scale
    a = front_like(rng, m, n_a)
    a = (a + rng.normal(size=a.shape) * noise) * scale
    with igd_paths() as paths, pytest.MonkeyPatch.context() as mp:
        if block is not None:  # windows then span several blocks
            mp.setattr(gpdbench.reference, "_IGD_BLOCK", block)
        assert_same_igd(a, r)
    assert paths == ["swept"]


@pytest.mark.parametrize("m", range(1, 5))
def test_swept_igd_with_ties_on_the_sort_coordinate(m):
    rng = np.random.default_rng(m)
    # Every first coordinate equal: each window is all of a.
    a, r = rng.uniform(size=(700, m)), rng.uniform(size=(300, m))
    a[:, 0] = r[:, 0] = 0.5
    assert_same_igd(a, r)
    # Integer first coordinates and repeated rows.
    a[:, 0] = rng.integers(0, 4, size=700)
    r[:, 0] = rng.integers(0, 4, size=300)
    a = np.repeat(a, 3, axis=0)
    r = np.concatenate([r, r[:100], a[::5]])
    assert_same_igd(a, r)


@pytest.mark.parametrize("m", range(2, 5))
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_swept_igd_window_reaches_the_minimum_just_inside_its_bound(m, sign):
    # The seed window (the first four approximations in coordinate 0) bounds
    # the distance of the origin by 1.  The nearest point lies beyond it, at
    # a coordinate-0 offset within 2^-30 of that bound.
    a = np.zeros((6, m))
    a[:, 0] = sign * np.array([0.0, 0.1, 0.2, 0.3, 0.4, 1.0 - 2.0 ** -30])
    a[:5, 1] = [1.0, 5.0, 5.0, 5.0, 5.0]
    a[5, 1] = 2.0 ** -20
    r = np.zeros((1, m))
    assert_same_igd(a, r)
    assert igd(a, r) < 1.0


@pytest.mark.parametrize("m", range(1, 5))
def test_swept_igd_keeps_the_reference_order_for_the_mean(m):
    rng = np.random.default_rng(20 + m)
    r = front_like(rng, m, 2000) * rng.uniform(0.5, 2.0, size=(2000, 1))
    a = front_like(rng, m, 1500)
    for rows in (r, r[::-1], r[rng.permutation(len(r))]):
        assert_same_igd(a, rows)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("scale", (1e-150, 1e-160, 1e-170, 1e150, 1e160))
def test_swept_igd_at_extreme_scales(m, scale):
    # Squared distances fall into subnormals or to zero from 1e-160 down, and
    # overflow to inf at 1e160.
    rng = np.random.default_rng(m)
    r = front_like(rng, m, 400)
    a = front_like(rng, m, 600)
    a[:50] = r[:50]
    a[50:100] = r[50:100] + 1e-9
    with np.errstate(over="ignore"), igd_paths() as paths:
        assert_same_igd(a * scale, r * scale)
    assert paths == ["swept"]


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("side", ("a", "r"))
def test_non_finite_low_dimensional_igd_takes_the_blocked_path(m, value, side):
    rng = np.random.default_rng(13)
    a, r = rng.uniform(size=(300, m)), rng.uniform(size=(200, m))
    (a if side == "a" else r)[17, m - 1] = value
    with igd_paths() as paths:
        assert_same_igd(a, r)
    assert paths == ["blocked"]


def test_swept_igd_computes_few_pairs_on_reference_fronts(monkeypatch):
    # The reference fronts and Pareto-set samples of three instances, as the
    # reference benchmark builds them.  Without pruning every pair is computed.
    entries = []
    real = gpdbench.reference._squared_distances

    def counted(rb, ab, acc, tmp):
        entries.append(acc.size)
        return real(rb, ab, acc, tmp)

    monkeypatch.setattr(gpdbench.reference, "_squared_distances", counted)
    instances = ((ProblemSpec(objectives=2, meta_q=5, meta_t=1, distance_vars=10,
                              distance_kind="deceptive"), 2000, 2000),
                 (ProblemSpec(objectives=3, meta_q=10, meta_t=4, distance_vars=10,
                              distance_kind="deceptive"), 60, 3600),
                 (ProblemSpec(objectives=3, meta_q=5, meta_t=1, distance_vars=10,
                              distance_kind="disconnected"), 60, 3600))
    for spec, resolution, n in instances:
        front = front_sample(spec, resolution).points
        objs = evaluate_arrays(pareto_set_sample(spec, n).vectors, spec).objectives
        entries.clear()
        igd(objs, front)
        share = sum(entries) / (front.shape[0] * objs.shape[0])
        assert share <= 0.15, (spec.objectives, spec.distance_kind, share)


@pytest.fixture
def screened(monkeypatch):
    """Outcome of every screened igd block: True kept, False recomputed in full.

    An empty list after a call at M >= 5 means the whole call skipped the
    screen and took the blocked path.
    """
    outcomes = []
    real = gpdbench.reference._screened_block

    def spy(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    monkeypatch.setattr(gpdbench.reference, "_screened_block", spy)
    return outcomes


@pytest.mark.parametrize("m", range(5, 11))
def test_screened_igd_keeps_exact_ties(m, screened):
    # The origin is equally far from every +-e_k, so all 2M are candidates;
    # the other reference rows keep the block under its cap.
    rng = np.random.default_rng(m)
    ties = np.concatenate([np.eye(m), -np.eye(m)])
    a = np.concatenate([ties, rng.uniform(2.0, 3.0, size=(200, m))])
    r = np.concatenate([np.zeros((1, m)), rng.uniform(2.0, 3.0, size=(99, m))])
    assert_same_igd(a, r)
    assert screened == [True]


def test_screened_igd_on_rings_far_from_the_origin(screened):
    # Twelve approximations at distance 1 around each far-off reference
    # point: the screen's rounding (relative to |r|^2 ~ 1e6) is larger than
    # the spread of their rounded distances, so only the slack keeps the
    # cdist argmin among the candidates.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        r = 100.0 + rng.uniform(size=(50, 6)) * 1000
        rays = rng.normal(size=(50, 12, 6))
        rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
        assert_same_igd((r[:, None, :] + rays).reshape(-1, 6), r)
    assert screened and all(screened)


def test_screened_igd_recomputes_only_blocks_over_the_cap(screened, monkeypatch):
    m = 10
    rng = np.random.default_rng(5)
    a = np.concatenate([np.eye(m), -np.eye(m), rng.uniform(2.0, 3.0, size=(200, m))])
    # 20 tied candidates per origin row pass the cap of 16 per row.
    r = np.concatenate([np.zeros((10, m)), rng.uniform(2.0, 3.0, size=(30, m))])
    monkeypatch.setattr(gpdbench.reference, "_IGD_BLOCK", 10 * a.shape[0])  # 10 rows a block
    assert_same_igd(a, r)
    assert screened == [False, True, True, True]


@pytest.mark.parametrize("m", (5, 10))
def test_screened_igd_with_duplicated_rows(m, screened):
    rng = np.random.default_rng(m)
    a = np.repeat(rng.uniform(size=(400, m)), 3, axis=0)
    r = np.concatenate([a[::7], rng.uniform(size=(300, m))])
    assert_same_igd(a, r)
    assert screened and all(screened)


@pytest.mark.parametrize("scale, screens", [(1e-150, True), (1e-160, True), (1e150, True),
                                            (1e155, False)])
def test_screened_igd_at_extreme_scales(scale, screens, screened):
    # Squares underflow into subnormals at 1e-160 and overflow at 1e155,
    # where the whole call takes the blocked path.
    rng = np.random.default_rng(7)
    a = rng.normal(size=(500, 6)) * scale
    r = rng.normal(size=(300, 6)) * scale
    a[:50] = r[:50]
    with np.errstate(over="ignore"):
        assert_same_igd(a, r)
    assert (bool(screened) and all(screened)) if screens else (screened == [])


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("side", ("a", "r"))
def test_non_finite_igd_takes_the_blocked_path(value, side, screened):
    rng = np.random.default_rng(11)
    a, r = rng.uniform(size=(300, 7)), rng.uniform(size=(200, 7))
    (a if side == "a" else r)[17, 3] = value
    assert_same_igd(a, r)
    assert screened == []


def test_screened_igd_blocks_see_all_approximations_at_once(monkeypatch):
    # Each block of reference rows is one screened chunk spanning all of a.
    # Narrower blocks give the same result, about 14% slower at this shape.
    blocks = []
    real = gpdbench.reference._screened_block

    def spy(screen, r0, a0, rb, ab, *rest):
        blocks.append((r0, a0, rb.shape[1], ab.shape[1]))
        return real(screen, r0, a0, rb, ab, *rest)

    monkeypatch.setattr(gpdbench.reference, "_screened_block", spy)
    rng = np.random.default_rng(19)
    r = np.abs(rng.normal(size=(3375, 10)))
    a = r[:2000] + rng.normal(size=(2000, 10)) * 0.01
    assert_same_igd(a, r)
    assert blocks and all(a0 == 0 and cols == 2000 for _, a0, _, cols in blocks)
    starts = [r0 for r0, *_ in blocks]
    assert starts == sorted(set(starts))  # one screened chunk per row block
    assert sum(rows for _, _, rows, _ in blocks) == 3375


def test_igd_does_not_depend_on_the_blas_thread_count():
    code = ("import numpy as np, gpdbench; rng = np.random.default_rng(19); "
            "r = np.abs(rng.normal(size=(3375, 10))); a = r[:2000] + rng.normal(size=(2000, 10)) * 0.01; "
            "print(repr(gpdbench.igd(a, r)))")
    src = str(Path(gpdbench.reference.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rng = np.random.default_rng(19)
    r = np.abs(rng.normal(size=(3375, 10)))
    a = r[:2000] + rng.normal(size=(2000, 10)) * 0.01
    assert float(proc.stdout) == igd(a, r) == cdist_igd(a, r)


# --- _halton -----------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 31))
def test_halton_equals_scipy_unscrambled(m):
    for n in (1, 17, 3375):
        want = qmc.Halton(d=m - 1, scramble=False).random(n)
        assert same_bits(_halton(m, n), want)


# --- realize_position --------------------------------------------------------

def window_shapes():
    # 2t + 1 < q keeps every exclusive block nonempty
    return st.integers(0, 4).flatmap(
        lambda t: st.tuples(st.integers(2 * t + 2, 2 * t + 8), st.just(t)))


TARGET_VALUE = st.one_of(st.sampled_from((0.0, 1.0, 0.5)), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(shape=window_shapes(), g=st.integers(1, 8),
       data=st.data(), lead=st.sampled_from(((), (5,), (2, 3))))
def test_batched_realize_equals_per_row_solver(shape, g, data, lead):
    q, t = shape
    rows = int(np.prod(lead, dtype=int))
    y = np.array(data.draw(st.lists(st.lists(TARGET_VALUE, min_size=g, max_size=g),
                                    min_size=max(rows, 1), max_size=max(rows, 1))))
    y = y.reshape(lead + (g,))
    flat = y.reshape(-1, g)
    try:
        want = np.stack([reference_realize(row, q, t)[0] for row in flat])
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            realize_position(y, q, t)
        return
    got = realize_position(y, q, t)
    assert same_bits(got, want.reshape(lead + want.shape[-1:]))


def test_batched_realize_covers_the_search_fallback():
    corners = [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
    rng = np.random.default_rng(11)
    # zero targets among random ones pin some shared sums away from zero
    mixed = np.where(rng.uniform(size=(2000, 5)) < 0.2, 0.0, rng.uniform(size=(2000, 5)))
    cases = [(np.array([[1.0, 0.0]]), 3, 1), (np.array(corners), 8, 3),
             (rng.choice([0.0, 0.25, 1.0], size=(300, 4)), 6, 2), (mixed, 10, 4)]
    fallback = 0
    for y, q, t in cases:
        reference = [reference_realize(row, q, t) for row in y]
        fallback += sum(min(signs) < 0 for _, signs in reference)
        got = realize_position(y, q, t)
        assert same_bits(got, np.stack([x for x, _ in reference]))
        np.testing.assert_allclose(meta_variables(got, q, t), y, atol=1e-12)
    # rows whose all-positive sign pattern is infeasible take the search
    assert fallback > 0


def reference_perturb(x, radius, samples, spec, seed=0):
    """Every sample as a full row through the whole evaluation pipeline."""
    base = evaluate(x, spec)
    x = np.asarray(x, dtype=float)
    r = spec.position_dim
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-radius, radius, size=(int(samples), spec.distance_vars))
    rows = np.tile(x, (int(samples), 1))
    rows[:, r:] = np.clip(rows[:, r:] + delta, 0.0, 1.0)
    moved = evaluate_arrays(rows, spec).objectives - np.asarray(base.objectives)
    disp = np.sqrt(np.sum(moved * moved, axis=-1))
    return float(disp.max()), float(disp.mean()), base.objectives


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), radius=st.sampled_from([1e-9, 0.05, 0.7, 1e300]),
       samples=st.sampled_from([1, 257]), on_set=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_perturb_equals_tile_and_evaluate(spec, radius, samples, on_set, seed):
    rng = np.random.default_rng(seed)
    if on_set:  # distance part in the valley or on the brittle minimizer
        x = pareto_set_sample(spec, 3).vectors[rng.integers(3)]
    else:
        r = spec.position_dim
        x = np.concatenate([rng.uniform(-1.0, 1.0, r),
                            rng.uniform(0.0, 1.0, spec.distance_vars)])
    got = perturb_experiment(x, radius, samples, spec, seed=seed)
    worst, mean, base = reference_perturb(x, radius, samples, spec, seed=seed)
    assert same_bits(got.worst, worst) and same_bits(got.mean, mean)
    assert same_bits(got.base_objectives, base)


def test_perturb_evaluates_the_position_part_once(monkeypatch):
    rows = []
    inner = gpdbench.evaluator._position_stage

    def counted(y, spec):
        rows.append(len(y))
        return inner(y, spec)

    monkeypatch.setattr(gpdbench.evaluator, "_position_stage", counted)
    spec = ProblemSpec(objectives=5, distance_vars=4, distance_kind="robust")
    x = pareto_set_sample(spec, 1).vectors[0]
    report = perturb_experiment(x, 0.05, 10000, spec, seed=2)
    assert report.samples == 10000 and report.worst > 0.0
    assert sum(rows) == 1
