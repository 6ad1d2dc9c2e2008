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
                      front_sample, igd, pareto_set_sample, perturb_experiment,
                      realize_position)
from gpdbench.position import meta_variables
from gpdbench.reference import _CHUNK, _SEED, _halton, _screen_terms


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
    # fl(1e-20 + 1) == fl(0 + 1): the two tie points differ below the
    # rounding of their coordinate sums, so only an exact comparison of f1
    # puts the dominator first, among _CHUNK*c - 1 mutually nondominated rows
    # that fill whole chunks of the archive sweep.  Constant padding columns
    # change neither the order nor dominance.
    chunks = 1 + n // (2 * _CHUNK)
    x = np.arange(1, _CHUNK * chunks) / (2.0 * _CHUNK * chunks)
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
    # [inf, -inf] comes last in input order but dominates the _CHUNK + 88
    # rows [inf, k], which span two chunks of the archive sweep, and its
    # coordinate sum is NaN, so no order keyed on sums could place it
    # before them.
    big = ([[inf, float(k)] for k in range(_CHUNK + 88)]
           + [[inf, -inf], [-inf, inf], [1e308, 1e308], [inf, 1e308]])
    # Constant padding columns keep dominance: two columns take the M = 2
    # sweep, three the staircase, and four and ten the archive sweep on
    # dense ranks.
    for pts in (np.array(rows), np.array(big)):
        for pad in (0, 1, 2, 8):
            padded = np.column_stack([pts, np.zeros((len(pts), pad))])
            np.testing.assert_array_equal(dominance_mask(padded),
                                          all_pairs_nondominated(padded))


def test_one_objective_mask_keeps_the_least_values():
    # The M = 2 sweep on the last rank: every copy of the least value stays.
    pts = np.array([[1.0], [-0.0], [np.nan], [0.0], [np.inf], [0.5], [-0.0]])
    np.testing.assert_array_equal(dominance_mask(pts), all_pairs_nondominated(pts))
    np.testing.assert_array_equal(dominance_mask(pts),
                                  [False, True, True, True, False, False, True])


STAIRCASE_POINT_SETS = ("signed", "runs", "equal_f2")


def staircase_point_set(kind, m, rng):
    if kind == "signed":  # NaN, +-inf and both zeros, with ties in every column
        values = [np.nan, -np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]
        return rng.choice(values, size=(800, m), p=[0.02] + [0.98 / 6] * 6)
    if kind == "runs":
        # Runs of 500 rows with f2 rising and f3 falling.  The first row of
        # each run covers the whole staircase before it, so every run starts
        # with one long deletion; each kept row also has a dominated twin.
        i = np.arange(500.0)
        runs = [np.column_stack([np.full(500, f1), i - 1000 * f1, 499 - i - 1000 * f1])
                for f1 in range(4)]
        pts = np.concatenate(runs + [run + 0.5 for run in runs])
        pts = np.column_stack([pts, np.zeros((pts.shape[0], m - 3))])
        return pts[rng.permutation(pts.shape[0])]
    # Equal f2 with different f3: a later row on an entry's f2 either has a
    # larger f3, and is dominated, or a smaller one, and replaces the entry.
    pts = np.column_stack([rng.integers(0, 30, size=1500), rng.integers(0, 4, size=1500),
                           rng.uniform(size=1500)])
    return np.column_stack([pts, rng.integers(0, 2, size=(1500, m - 3))])


@pytest.mark.parametrize("m", (3, 5))
@pytest.mark.parametrize("kind", STAIRCASE_POINT_SETS)
def test_staircase_and_ranked_masks_equal_all_pairs_oracle(kind, m):
    # M = 3 takes the staircase; M = 5 the archive sweep on ranks.
    pts = staircase_point_set(kind, m, np.random.default_rng(m))
    np.testing.assert_array_equal(dominance_mask(pts), all_pairs_nondominated(pts))


@pytest.mark.parametrize("n", (256, 257, 65536, 65537))
def test_ranked_mask_at_the_rank_dtype_widening_points(n):
    # n distinct rows and n distinct values of f2, so the largest rank n - 1
    # just fills uint8 or uint16 at n = 256 and 65536 and needs the next type
    # one row later.  a sorts first and holds the largest f2; c is kept only
    # because a's f2 is larger, and it dominates every other row.  A rank
    # that wrapped to 0 would let a dominate c.
    a, c = [0.0, n - 1, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]
    rest = np.column_stack([np.ones(n - 2), np.arange(1.0, n - 1), np.ones((n - 2, 2))])
    pts = np.concatenate([[a, c], rest])
    want = np.arange(n) < 2
    perm = np.random.default_rng(n).permutation(n)
    pts, want = pts[perm], want[perm]
    np.testing.assert_array_equal(dominance_mask(pts), want)
    if n < 1000:  # the oracle needs about n * n * M bytes
        np.testing.assert_array_equal(want, all_pairs_nondominated(pts))


def rank_edge_set(n, m, duplicated, rng):
    """n non-NaN rows, then three NaN rows, with ranks up to n - 1 at M = 2, 3.

    Every column holds the n distinct values -inf, -0.0, 1, ..., n - 3, inf.
    Objective 0 rises down the rows and the last objective falls, locally
    shuffled, so the front keeps some rows and drops their neighbours.  With
    duplicated, a quarter of the rows become copies of others, their zeros
    with the other sign, which leaves fewer distinct values but n rows.
    """
    values = np.concatenate([[-np.inf, -0.0], np.arange(1.0, n - 2), [np.inf]])
    cols = [values] + [rng.permutation(values) for _ in range(m - 2)]
    cols.append(values[::-1][np.argsort(np.arange(n) + rng.uniform(0.0, 5.0, size=n))])
    pts = np.column_stack(cols)
    if duplicated:
        copies = rng.choice(n, size=n // 4, replace=False)
        src = pts[rng.integers(0, n, size=n // 4)]
        pts[copies] = np.where(src == 0.0, -src, src)
    pts = np.concatenate([pts, np.full((3, m), np.nan)])
    return pts[rng.permutation(n + 3)]


@pytest.mark.parametrize("duplicated", (False, True))
@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("n", (255, 256, 257))
def test_low_dimensional_ranks_at_the_rank_dtype_widening_points(n, m, duplicated):
    # Two and three objectives are ranked like four and up: n = 256 non-NaN
    # rows fill uint8 with the rank 255, and one more row needs uint16.
    pts = rank_edge_set(n, m, duplicated, np.random.default_rng(n * m + duplicated))
    got = dominance_mask(pts)
    np.testing.assert_array_equal(got, all_pairs_nondominated(pts))
    assert 3 < got.sum() < n


@pytest.mark.parametrize("m", (2, 3))
def test_low_dimensional_ranks_past_uint16(m):
    # 40,000 front rows (i, 39999 - i) and a twin of each half a unit worse
    # in objective 1 give 80,000 distinct values there, so the ranks need
    # uint32.  Each twin is dominated by its own front row only; a twin's
    # objective 1 lies above every front row's with objective 0 no larger.
    # Objective 2 (M = 3) is a permutation and changes none of that.  Copies
    # of front rows with -0.0 for 0.0 are kept, as are the rows that hold
    # -inf in one objective and inf in another; (inf, inf) is dropped.
    k = 40000
    rng = np.random.default_rng(m)
    i = np.arange(float(k))
    front = np.column_stack([i, k - 1 - i, rng.permutation(i)][:m])
    twins = front.copy()
    twins[:, 1] += 0.5
    copies = front[:100] * np.where(front[:100] == 0.0, -1.0, 1.0)
    edges = np.array([[np.inf, -np.inf, 0.0], [-np.inf, np.inf, 0.0],
                      [np.inf, np.inf, np.inf], [np.nan, 0.0, 0.0]])[:, :m]
    pts = np.concatenate([front, twins, copies, edges])
    want = np.concatenate([np.ones(k, bool), np.zeros(k, bool), np.ones(100, bool),
                           [True, True, False, True]])
    perm = rng.permutation(pts.shape[0])
    np.testing.assert_array_equal(dominance_mask(pts[perm]), want[perm])


def sweep_rows_with_twins(m, n):
    """n distinct rows in sweep order, and which of them are dominated twins.

    Base row t is (t // 3, t % 3, -t, t % 5, ..., t % 5): objective 0 ties
    in threes, and any two base rows differ oppositely in objectives 1 and 2
    or 0 and 2, so they are mutually nondominated.  A later base row is no
    worse than an earlier one in objectives 1 to M - 1 whenever its t % 3
    and t % 5 are no larger, so only the triangle keeps it from covering
    the earlier one once objective 0 is not compared.  A twin copies its base
    row with the last objective raised by 0.5: it sorts right after the base
    row, ties it in objective 0, and the base row is its only dominator.
    Every fifth base row has a twin in its own chunk, and so do the base
    rows that end a chunk, whose twins open the next one.
    """
    rows, twin = [], []
    t = 0
    while len(rows) < n:
        base = [t // 3, t % 3, -t] + [t % 5] * (m - 3)
        rows.append(base)
        twin.append(False)
        if len(rows) < n and (t % 5 == 0 or len(rows) % _CHUNK == 0):
            rows.append(base[:-1] + [base[-1] + 0.5])
            twin.append(True)
        t += 1
    return np.array(rows, dtype=float), np.array(twin)


@pytest.mark.parametrize("m", (4, 10))
@pytest.mark.parametrize("n", (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1))
def test_archive_sweep_triangle_equals_all_pairs_oracle(m, n):
    # From four objectives up the sweep skips objective 0 and masks each
    # chunk's pairs with a later or the same row.  Twins in their
    # dominator's chunk need the triangle's k < i pairs; the twins that
    # open a chunk need the archive columns to stay unmasked.
    pts, twin = sweep_rows_with_twins(m, n)
    assert pts.shape == (n, m) and twin.any()
    if n > _CHUNK:
        assert twin[_CHUNK] and not twin[_CHUNK - 1]
    perm = np.random.default_rng(n * m).permutation(n)
    pts, twin = pts[perm], twin[perm]
    got = dominance_mask(pts)
    np.testing.assert_array_equal(got, all_pairs_nondominated(pts))
    np.testing.assert_array_equal(got, ~twin)


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
    """Per igd call inside the block, the last step that any of its rows reached.

    "blocked": no seed pass; every row met all of a (a NaN or infinite input).
    "settled": every row was settled by its own seed window.
    "full": some rows left open met all of a in one chunk, screened where
    the screen allows it.
    """
    paths, steps = [], set()
    real_nearest = gpdbench.reference._nearest

    def nearest(r, a):
        steps.clear()
        out = real_nearest(r, a)
        paths.append("blocked" if "seed" not in steps else "full" if "full" in steps
                     else "settled")
        return out

    def spy(step, real):
        def run(*args):
            steps.add(step)
            return real(*args)
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gpdbench.reference, "_nearest", nearest)
        for step, name in (("seed", "_seed_minima"), ("full", "_screen_terms")):
            mp.setattr(gpdbench.reference, name, spy(step, getattr(gpdbench.reference, name)))
        yield paths


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 10), n_a=st.integers(1, 3000), n_r=st.integers(1, 600),
       noise=st.sampled_from((0.0, 1e-9, 1e-3, 0.1)), block=st.sampled_from((None, 1000)),
       scale=st.sampled_from((1e-150, 1.0, 1e150)), seed=st.integers(0, 2**32 - 1))
def test_seeded_igd_on_fronts_equals_cdist(m, n_a, n_r, noise, block, scale, seed):
    # Approximations on or near the reference front, so the seeds settle most
    # rows and the plain blocks finish the rest.
    rng = np.random.default_rng(seed)
    r = front_like(rng, m, n_r) * scale
    a = front_like(rng, m, n_a)
    a = (a + rng.normal(size=a.shape) * noise) * scale
    with igd_paths() as paths, pytest.MonkeyPatch.context() as mp:
        if block is not None:  # seeds and open rows then span several blocks
            mp.setattr(gpdbench.reference, "_IGD_BLOCK", block)
        assert_same_igd(a, r)
    assert paths != ["blocked"]  # finite inputs always start from their seeds


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5))
def test_igd_with_ties_on_the_sort_coordinate(m):
    rng = np.random.default_rng(m)
    # Every first coordinate equal: each row's reach is all of a.
    a, r = rng.uniform(size=(700, m)), rng.uniform(size=(300, m))
    a[:, 0] = r[:, 0] = 0.5
    assert_same_igd(a, r)
    # Integer first coordinates and repeated rows.
    a[:, 0] = rng.integers(0, 4, size=700)
    r[:, 0] = rng.integers(0, 4, size=300)
    a = np.repeat(a, 3, axis=0)
    r = np.concatenate([r, r[:100], a[::5]])
    assert_same_igd(a, r)
    # About 50 approximations share each first coordinate, many more than a
    # seed window holds, and each reference row sits 1e-6 from one of them.
    a = rng.uniform(size=(1000, m))
    a[:, 0] = np.round(a[:, 0] * 20) / 20
    r = a[rng.choice(1000, 300, replace=False)]
    r[:, 1:] += rng.normal(size=(300, m - 1)) * 1e-6
    with igd_paths() as paths:
        assert_same_igd(a, r)
    if m == 1:  # each row coincides with its tie group: a zero bound settles it
        assert paths == ["settled"]
    else:
        assert paths == ["full"]


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_swept_igd_window_reaches_the_minimum_just_inside_its_bound(m, sign):
    # The origin's seed window, the 2 * _SEED approximations next to it in
    # coordinate 0, bounds its distance by 1.  The nearest point lies just
    # past the window, at a coordinate-0 offset within 2^-30 of that bound,
    # so the origin stays open and its plain block must find it.
    k = 2 * _SEED
    a = np.zeros((k + 101, m))
    a[:k, 0] = sign * np.linspace(0.0, 0.5, k)
    a[:k, 1] = 1.0 + np.arange(k)
    a[k, 0] = sign * (1.0 - 2.0 ** -30)
    a[k, 1] = 2.0 ** -20
    a[k + 1:, 0] = sign * np.linspace(10.0, 20.0, 100)
    r = np.zeros((1, m))
    with igd_paths() as paths:
        assert_same_igd(a, r)
    assert igd(a, r) < 1.0
    assert paths == ["full"]


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 10))
def test_igd_keeps_the_reference_order_for_the_mean(m):
    rng = np.random.default_rng(20 + m)
    r = front_like(rng, m, 2000) * rng.uniform(0.5, 2.0, size=(2000, 1))
    a = front_like(rng, m, 1500)
    for rows in (r, r[::-1], r[rng.permutation(len(r))]):
        assert_same_igd(a, rows)


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5))
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
    if scale == 1e160:  # unmatched rows keep an infinite bound, so they reach all of a
        assert paths == ["full"]
    elif scale == 1e-170 or m == 1:  # every square is 0, or the seed holds both neighbours
        assert paths == ["settled"]
    else:
        assert paths != ["blocked"]


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5))
@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("side", ("a", "r"))
def test_non_finite_low_dimensional_igd_takes_the_blocked_path(m, value, side):
    rng = np.random.default_rng(13)
    a, r = rng.uniform(size=(300, m)), rng.uniform(size=(200, m))
    (a if side == "a" else r)[17, m - 1] = value
    with igd_paths() as paths:
        assert_same_igd(a, r)
    assert paths == ["blocked"]


def test_seeded_igd_computes_few_pairs_on_reference_fronts(monkeypatch):
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


@pytest.mark.parametrize("m", range(1, 11))
@pytest.mark.parametrize("scale", (1e-150, 1.0, 1e150))
def test_igd_settles_every_row_beside_its_approximation(m, scale):
    # Half the reference rows coincide with an approximation, half sit 1e-12
    # from one: each row's own seed window holds it and bounds its reach.
    rng = np.random.default_rng(30 + m)
    r = front_like(rng, m, 300)
    a = r.copy()
    a[150:] += rng.normal(size=(150, m)) * 1e-12
    a = a[rng.permutation(300)]
    with igd_paths() as paths:
        assert_same_igd(a * scale, r * scale)
    assert paths == ["settled"]


def test_igd_settles_rows_whose_seed_bound_is_zero(monkeypatch):
    # About 95 approximations share each of 21 values of coordinate 0, so
    # no seed window spans a tie group and every reach of a positive bound
    # covers one.  A row whose copy lies in its own seed window has bound 0
    # and is settled; every other row goes on to the plain blocks.
    bounds, opened = [], []
    real_seeds = gpdbench.reference._seed_minima
    real_terms = gpdbench.reference._screen_terms

    def seeds(r_cols, a_cols, nearest, buf):
        out = real_seeds(r_cols, a_cols, nearest, buf)
        bounds.append(nearest.copy())
        return out

    def terms(r, a):
        opened.append(r.shape[0])
        return real_terms(r, a)

    monkeypatch.setattr(gpdbench.reference, "_seed_minima", seeds)
    monkeypatch.setattr(gpdbench.reference, "_screen_terms", terms)
    rng = np.random.default_rng(7)
    a = rng.uniform(size=(2000, 6))
    a[:, 0] = rng.integers(0, 21, size=2000) / 20
    r = a[rng.choice(2000, size=500, replace=False)]
    assert_same_igd(a, r)
    zero = int((bounds[0] == 0).sum())
    assert zero > 0 and opened == [r.shape[0] - zero]


@pytest.mark.parametrize("m", (1, 2, 3, 5, 6, 10))
def test_igd_with_fewer_approximations_than_a_seed_window(m):
    # The seed window is then all of a, so every row settles at once.
    rng = np.random.default_rng(40 + m)
    r = rng.normal(size=(50, m))
    with igd_paths() as paths:
        for n in range(1, 2 * _SEED):
            assert_same_igd(rng.normal(size=(n, m)), r)
    assert paths == ["settled"] * (2 * _SEED - 1)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_igd_finishes_rows_left_open_beside_their_approximations(m):
    # Each reference row has an approximation within about 1e-3, which its
    # seed window misses for some rows: those stay open, and the plain
    # blocks must find the approximation past their window.
    rng = np.random.default_rng(m)
    r = front_like(rng, m, 500)
    a = np.concatenate([r + rng.normal(size=r.shape) * 1e-3, front_like(rng, m, 1500)])
    with igd_paths() as paths:
        assert_same_igd(a, r)
    assert paths == ["full"]


@pytest.fixture
def screened(monkeypatch):
    """Outcome of every screened igd block: True kept, False recomputed in full.

    An empty list after a call means no row met the screen: the seeds
    settled every row, or the whole call took the blocked path.
    """
    outcomes = []
    real = gpdbench.reference._screened_block

    def spy(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    monkeypatch.setattr(gpdbench.reference, "_screened_block", spy)
    return outcomes


@pytest.mark.parametrize("m", (1, 2, 3, 4, *range(5, 11), 16))
def test_screened_igd_keeps_exact_ties(m, screened, monkeypatch):
    # The origin is equally far from five copies of every +-e_k, so all 10M
    # are candidates; the other reference rows keep the block under its cap.
    # The copies put more than a seed window's eight approximations within
    # the origin's reach on coordinate 0, so it meets the screen at every M.
    opened = []
    real_terms = gpdbench.reference._screen_terms

    def terms(r, a):
        opened.append(r)
        return real_terms(r, a)

    monkeypatch.setattr(gpdbench.reference, "_screen_terms", terms)
    rng = np.random.default_rng(m)
    ties = np.repeat(np.concatenate([np.eye(m), -np.eye(m)]), 5, axis=0)
    a = np.concatenate([ties, rng.uniform(2.0, 3.0, size=(200, m))])
    r = np.concatenate([np.zeros((1, m)), rng.uniform(2.0, 3.0, size=(99, m))])
    assert_same_igd(a, r)
    assert screened == [True] and not opened[0][0].any()


@pytest.mark.parametrize("m", (1, 2, 6, 10, 16, 40))
def test_screen_slack_covers_the_proven_bound(m):
    # igd's docstring bounds the gap between the computed screen values of
    # the cdist argmin and of the screen's own minimum by
    # 2 (5M + 6) u N_i + (3M + 1) smallest subnormals; the slack 2 e_i must
    # not fall below it at any M or scale.  Squares of the 1e-160 points
    # underflow, so there the subnormal term alone has to cover it.
    finfo = np.finfo(float)
    rng = np.random.default_rng(m)
    for scale in (1e-160, 1e-3, 1.0, 1e150):
        r, a = rng.normal(size=(40, m)) * scale, rng.normal(size=(60, m)) * scale
        _, _, slack = _screen_terms(r, a)
        n_i = np.sum(r * r, axis=1) + np.sum(a * a, axis=1).max()
        bound = (2 * (5 * m + 6) * (finfo.eps / 2) * n_i
                 + (3 * m + 1) * finfo.smallest_subnormal)
        assert slack.shape == (40,) and np.all(slack >= bound), (m, scale)


def test_screened_igd_on_rings_far_from_the_origin(screened):
    # Twelve approximations at distance 1 around each far-off reference
    # point: the screen's rounding (relative to |r|^2 ~ 1e6 M) is larger
    # than the spread of their rounded distances, so only the slack keeps
    # the cdist argmin among the candidates.  From M = 11 up the slack of
    # 8 (M + 4) u N_i that covered a product without the norms row would
    # not cover the product with it.
    for m in (6, 10, 16):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            r = 100.0 + rng.uniform(size=(50, m)) * 1000
            rays = rng.normal(size=(50, 12, m))
            rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
            assert_same_igd((r[:, None, :] + rays).reshape(-1, m), r)
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


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6, 10))
def test_screened_igd_with_duplicated_rows(m, screened):
    rng = np.random.default_rng(m)
    a = np.repeat(rng.uniform(size=(400, m)), 3, axis=0)
    r = np.concatenate([a[::7], rng.uniform(size=(300, m))])
    assert_same_igd(a, r)
    # At M = 1 each row's seed window holds both its neighbours, and no value
    # repeats often enough to fill the window, so the seeds settle every row.
    assert all(screened) and bool(screened) == (m > 1)


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5))
def test_igd_keeps_ties_and_duplicated_rows_beside_a_front(m, screened):
    # The origin is equally far from every +-e_k, and front rows repeat in a
    # and r.  From M = 2 up the rows left open, the origin among them, meet
    # the screen, and a block over its cap is recomputed in full; both must
    # keep the ties.  At M = 1 the front lies nearer the origin than the
    # ties, and every row settles at its seeds.
    rng = np.random.default_rng(m)
    front = front_like(rng, m, 1200)
    a = np.concatenate([np.eye(m), -np.eye(m), np.repeat(front[:400], 3, axis=0)])
    r = np.concatenate([np.zeros((1, m)), front[::7], front[400:]])
    with igd_paths() as paths:
        assert_same_igd(a, r)
    assert paths == (["settled"] if m == 1 else ["full"]) and bool(screened) == (m > 1)


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
    with igd_paths() as paths:
        assert_same_igd(a, r)
    assert paths == ["blocked"] and screened == []


def test_screened_igd_blocks_see_all_approximations_at_once(monkeypatch):
    # Each block of the reference rows left open by their seeds is one
    # screened chunk spanning all of a.  Narrower blocks give the same
    # result, about 14% slower at this shape.
    blocks, opened = [], []
    real = gpdbench.reference._screened_block
    real_terms = gpdbench.reference._screen_terms

    def spy(screen, r0, a0, out, *rest):
        blocks.append((r0, a0, *out.shape))
        return real(screen, r0, a0, out, *rest)

    def terms(r, a):
        opened.append(r.shape[0])
        return real_terms(r, a)

    monkeypatch.setattr(gpdbench.reference, "_screened_block", spy)
    monkeypatch.setattr(gpdbench.reference, "_screen_terms", terms)
    rng = np.random.default_rng(19)
    r = np.abs(rng.normal(size=(3375, 10)))
    a = r[:2000] + rng.normal(size=(2000, 10)) * 0.01
    assert_same_igd(a, r)
    assert blocks and all(a0 == 0 and cols == 2000 for _, a0, _, cols in blocks)
    starts = [r0 for r0, *_ in blocks]
    assert starts == sorted(set(starts))  # one screened chunk per row block
    # The 1375 rows without a close approximation stay open, and every open
    # row meets exactly one screened chunk.
    assert len(opened) == 1 and 1375 <= opened[0] < 3375
    assert sum(rows for _, _, rows, _ in blocks) == opened[0]


def test_igd_does_not_depend_on_the_blas_thread_count(screened):
    # An M = 10 set beside its reference, and random points on the 3-D
    # sphere, where most rows stay open after their seeds and meet the
    # screen's matrix product.
    setup = ("import numpy as np\n"
             "rng = np.random.default_rng(19)\n"
             "r = np.abs(rng.normal(size=(3375, 10)))\n"
             "a = r[:2000] + rng.normal(size=(2000, 10)) * 0.01\n"
             "s = rng.normal(size=(4000, 3))\n"
             "s /= np.linalg.norm(s, axis=1, keepdims=True)\n"
             "pairs = [(a, r), (s[:2000], s[2000:])]\n")
    code = setup + "import gpdbench\nprint(*[repr(gpdbench.igd(x, y)) for x, y in pairs])"
    src = str(Path(gpdbench.reference.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scope = {}
    exec(setup, scope)
    for (x, y), single in zip(scope["pairs"], proc.stdout.split(), strict=True):
        screened.clear()
        assert float(single) == igd(x, y) == cdist_igd(x, y)
        assert screened and all(screened)


@pytest.mark.parametrize("m", (2, 3, 10))
def test_screened_block_mixes_single_candidates_with_ties_inside_the_slack(m, monkeypatch):
    # The origin is exactly as far from e_2 as from -e_2, so its two screen
    # values tie inside any slack; every other open row has one nearest
    # approximation.  The fillers put more than a seed window's eight
    # approximations within the origin's reach on coordinate 0, so it stays
    # open.  The origin's block keeps both ties and one pair per other row
    # through the mask; every later block keeps its argmins without one.
    outcomes = []
    real = gpdbench.reference._screened_block

    def spy(screen, r0, a0, out, mask, kept):
        mask[...] = True
        before = len(kept)
        done = real(screen, r0, a0, out, mask, kept)
        outcomes.append((done, out.shape[0], sum(i.size for i, _ in kept[before:]),
                         bool(mask.all())))
        return done

    monkeypatch.setattr(gpdbench.reference, "_screened_block", spy)
    monkeypatch.setattr(gpdbench.reference, "_IGD_BLOCK", 40 * 250)  # 40 rows a block
    rng = np.random.default_rng(m)
    ties = np.zeros((2, m))
    ties[:, 1] = 1.0, -1.0
    fillers = np.zeros((20, m))
    fillers[:, 0] = np.linspace(-0.5, 0.5, 20)
    fillers[:, 1] = 5.0
    a = np.concatenate([ties, fillers, rng.uniform(2.0, 3.0, size=(228, m))])
    r = np.concatenate([np.zeros((1, m)), rng.uniform(2.0, 3.0, size=(99, m))])
    assert_same_igd(a, r)
    (done, rows, pairs, untouched), *later = outcomes
    assert done and pairs == rows + 1 and not untouched
    assert later and all(done and pairs == rows and untouched
                         for done, rows, pairs, untouched in later)


@pytest.mark.parametrize("nearest", ("plain", "seed", "screened"))
def test_row_minimum_folds_its_seed_screened_and_plain_chunks(nearest, screened, monkeypatch):
    # With 64 distances a buffer, the origin's block is one row and meets a in
    # chunks of 64 sorted approximations.  Chunk 0 holds 20 copies of one
    # point, over the cap, so it is computed in full; chunk 1 holds the
    # origin's seed window and chunk 2 a point on coordinate 0, both
    # screened.  The points that chunk 0, the seed window and chunk 2 offer
    # lie 0.6, 0.7 and 0.8 from the origin, except the one the parameter
    # names, which lies 0.5 away; the row's minimum must come from it.
    monkeypatch.setattr(gpdbench.reference, "_IGD_BLOCK", 64)
    near = dict(zip(("plain", "seed", "screened"), (0.6, 0.7, 0.8)))
    near[nearest] = 0.5
    chunk0 = np.zeros((64, 3))
    chunk0[:44, 0] = np.linspace(-60.0, -40.0, 44)
    chunk0[44:, 0] = -near["plain"]
    chunk1 = np.zeros((64, 3))
    chunk1[:, 0] = np.linspace(-0.3, 0.3, 64)
    chunk1[:, 1] = 5.0
    chunk1[32, 1] = np.sqrt(near["seed"] ** 2 - chunk1[32, 0] ** 2)  # inside the seed window
    chunk2 = np.zeros((64, 3))
    chunk2[:, 0] = np.linspace(1.0, 2.0, 64)
    chunk2[:, 2] = 5.0
    chunk2[0] = near["screened"], 0.0, 0.0
    a = np.concatenate([chunk0, chunk1, chunk2])
    r = np.zeros((1, 3))
    with igd_paths() as paths:
        assert_same_igd(a, r)
    assert paths == ["full"] and screened == [False, True, True]
    assert abs(igd(a, r) - 0.5) < 1e-15


@pytest.mark.parametrize("m", (2, 5, 10))
def test_kept_pairs_past_one_buffer_are_recomputed_in_batches(m, monkeypatch):
    # Random points: nearly every row stays open after its seeds and keeps at
    # least one pair in each of its two screened chunks.  Each fold holds
    # several buffers' worth of pairs, and as a is wider than a buffer the
    # pairs fold as the blocks go, not only at the end.
    batches = []
    real = gpdbench.reference._kept_minima

    def spy(pc, a_cols, near, kept, buf):
        batches.append((sum(i.size for i, _ in kept), buf[0].size // pc.shape[0]))
        return real(pc, a_cols, near, kept, buf)

    monkeypatch.setattr(gpdbench.reference, "_kept_minima", spy)
    monkeypatch.setattr(gpdbench.reference, "_IGD_BLOCK", 200)
    rng = np.random.default_rng(m)
    a, r = rng.uniform(size=(400, m)), rng.uniform(size=(600, m))
    assert_same_igd(a, r)
    assert len(batches) > 1
    assert all(pairs > 2 * per_batch for pairs, per_batch in batches), batches


# --- _halton -----------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 31))
def test_halton_equals_scipy_unscrambled(m):
    # 256 and 257 points put the last index on either side of uint8's
    # range; 4096 and 4097 end on a base-2 digit boundary and one past it.
    for n in (1, 17, 256, 257, 3375, 4096, 4097):
        want = qmc.Halton(d=m - 1, scramble=False).random(n)
        assert same_bits(_halton(m, n), want)


def test_halton_with_bases_past_the_index_range():
    # 17 indices fit in uint8, but the 99th prime, 523, does not: the index
    # type must hold the largest base too.
    want = qmc.Halton(d=99, scramble=False).random(17)
    assert same_bits(_halton(100, 17), want)


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
