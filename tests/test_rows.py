"""The row helpers give numpy's bits for the C-ordered copy of their input.

Each helper either works a column at a time or calls numpy.  The width sweep
runs every width from 1 to 130, past numpy's 128-value pairwise block, at
one row below the row threshold and at the threshold itself, on values that
mix signed zeros, infinities, NaN and subnormals with ordinary magnitudes.
The threshold is lowered for the sweep so that it stays fast; the column
path does not depend on its value.  The public kernels must give the same
bits for F-ordered and sliced views as for C-ordered copies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stage_kernel_bits import same

from gpdbench import ConstraintSpec, ProblemSpec
from gpdbench import _rows
from gpdbench.constraints import constraint_table, nearest_axis
from gpdbench.distance import deceptive_g, normalized_angle, robust_g, robust_term
from gpdbench.position import meta_variables, p_norm, position_point, spherical_map

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310,
                    np.finfo(float).tiny, 1e308, -1e308])


def mixed(rng, rows, w):
    """Magnitudes over 40 decades, both signs, a special value in about a third of the rows.

    Row 0 holds -0.0 alone and row 1 zeros of both signs, whose sums are +0.0.
    """
    x = rng.standard_normal((rows, w)) * 10.0 ** rng.uniform(-20, 20, size=(rows, w))
    hit = rng.random((rows, w)) < 0.4 / w
    x[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    x[0] = -0.0
    x[1] = np.where(np.arange(w) % 3, -0.0, 0.0)
    return x


def same_or_both_nan(got, want):
    """Bits equal, or both NaN.

    Which of two NaNs meeting in one addition or maximum comes out depends
    on how numpy was compiled and on the CPU's vector width.
    """
    nan = np.isnan(want)
    return same(np.isnan(got), nan) and same(got[~nan], want[~nan])


def test_helpers_match_numpy_at_every_width_on_both_sides_of_the_threshold(monkeypatch):
    monkeypatch.setattr(_rows, "COLUMN_ROWS", 40)
    rng = np.random.default_rng(5)
    with np.errstate(invalid="ignore", over="ignore"):
        for w in range(1, 131):
            for rows in (39, 40):
                x = mixed(rng, rows, w)
                assert same_or_both_nan(_rows.row_sum(x), np.add.reduce(x, axis=-1)), (w, rows)
                assert same_or_both_nan(_rows.row_max(x), np.maximum.reduce(x, axis=-1))
                for ufunc in (np.add, np.multiply):
                    want = ufunc.accumulate(x, axis=-1)
                    assert same(_rows.row_accumulate(ufunc, x, np.empty_like(x)), want)
                b = x > 0.0
                assert same(_rows.row_all(b), b.all(axis=-1))
                assert same(_rows.row_any(b), b.any(axis=-1))


def test_row_sum_keeps_numpy_order_in_stacks_and_on_empty_rows():
    rng = np.random.default_rng(6)
    for lead in ((1000, 2), (1200,)):
        x = mixed(rng, int(np.prod(lead)), 9).reshape(lead + (9,))
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_or_both_nan(_rows.row_sum(x), np.add.reduce(x, axis=-1))
    assert same(_rows.row_sum(np.empty((2000, 0))), np.zeros(2000))
    assert same(_rows.row_all(np.empty((2000, 0), dtype=bool)), np.ones(2000, dtype=bool))


def test_single_values_and_rows_keep_numpy_results():
    for v in (np.float64(2.5), np.array([0.5, -0.0, 3.0])):
        assert same(_rows.row_sum(v), np.add.reduce(v, axis=-1))
        assert same(_rows.row_max(v), np.maximum.reduce(v, axis=-1))
        assert same(_rows.row_all(v > 1.0), np.logical_and.reduce(v > 1.0, axis=-1))
    assert same(robust_g(0.5), robust_term(0.5))
    assert nearest_axis(3.0) == 1


def views(x):
    """x as an F-ordered copy, a slice of a wider array, and with rows or columns reversed."""
    wide = np.empty((2 * x.shape[0], 2 * x.shape[1]))
    wide[::2, 1::2] = x
    return (np.asfortranarray(x), wide[::2, 1::2],
            np.ascontiguousarray(x[::-1])[::-1], np.ascontiguousarray(x[:, ::-1])[:, ::-1])


@settings(max_examples=12, deadline=None)
@given(m=st.integers(8, 15), rows=st.sampled_from([200, 2000]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_public_kernels_give_the_same_bits_for_any_layout(m, rows, seed):
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 1.0, size=(rows, m)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    x_d = rng.uniform(0.0, 1.0, size=(rows, m))
    x_p = rng.uniform(-1.0, 1.0, size=(rows, 3 * (m - 1) + 1))
    phi = rng.uniform(0.0, 1.0, size=rows)
    d = rng.uniform(0.1, 1.0, size=m)
    spec = ProblemSpec(objectives=m, distance_vars=1, distance_kind="robust", constraints=(
        ConstraintSpec(kind="nearest_axis", axis_j=2),
        ConstraintSpec(kind="band", reference="diagonal", threshold_a=0.2, threshold_b=0.6)))

    def outputs(v, xd, xp):
        return (p_norm(v, 3.5), p_norm(v, 0.6), position_point(v, 2.0), spherical_map(v),
                normalized_angle(v, d), *constraint_table(v, spec.constraints),
                deceptive_g(xd, phi, 2), robust_g(xd), meta_variables(xp, 3, 1))

    want = outputs(f, x_d, x_p)
    for args in zip(views(f), views(x_d), views(x_p)):
        for got, ref in zip(outputs(*args), want):
            assert same(got, ref)
