"""The row helpers give numpy's bits for the C-ordered copy of their input.

Each helper either works a column at a time or calls numpy.  The width sweep
runs every width from 1 to 130, past numpy's 128-value pairwise block, at
one row below the row threshold and at the threshold itself, on values that
mix signed zeros, infinities, NaN and subnormals with ordinary magnitudes.
The threshold is lowered for the sweep so that it stays fast; the column
path does not depend on its value.  The public kernels must give the same
bits for F-ordered and sliced views as for C-ordered copies.

Every public kernel converts its array arguments with real_array: real input
of any dtype gets the bits of its float64 copy, and complex, text, bytes,
bool, datetime, timedelta and void input raises a ValueError that names the
dtype, where numpy would keep the real part, parse the text or read True as
1; an object array's first None, text, bytes or bool element is named.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stage_kernel_bits import same

from gpdbench import ConstraintSpec, ProblemSpec, perturb_experiment
from gpdbench import _rows
from gpdbench.constraints import constraint_table
from gpdbench.distance import (compose, deceptive_g, deceptive_term, normalized_angle,
                               radial_profile, robust_g, robust_term, valley_center,
                               valley_radius)
from gpdbench.position import (dissimilarize, meta_variables, p_norm, position_point,
                               realize_position, spherical_map)
from gpdbench.reference import dominance_filter, dominance_mask, igd

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
        assert same(_rows.row_any(v > 1.0), np.logical_or.reduce(v > 1.0, axis=-1))
    assert same(robust_g(0.5), robust_term(0.5))


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


BANDED = ProblemSpec(objectives=3, distance_vars=1, distance_kind="robust", constraints=(
    ConstraintSpec(kind="band", reference="diagonal", threshold_a=0.2, threshold_b=0.6),
    ConstraintSpec(kind="nearest_axis", axis_j=2))).constraints

# Each public kernel with array arguments, as (function, arguments, positions
# of the array arguments).  The values are small integers, exact in every
# dtype the conversion test draws.
KERNELS = {
    "meta_variables": (meta_variables, ([[1, 0, 1], [0, 1, 1]], 1, 1), (0,)),
    "spherical_map": (spherical_map, ([[0, 1], [1, 1]],), (0,)),
    "p_norm": (p_norm, ([[1, 2, 0]], 3), (0,)),
    "position_point": (position_point, ([[0, 1]], 2), (0,)),
    "realize_position": (realize_position, ([[0, 1]], 1, 1), (0,)),
    "dissimilarize": (dissimilarize, ([[1, 0, 2]],), (0,)),
    "normalized_angle": (normalized_angle, ([[1, 2, 0]], [1, 1, 1]), (0, 1)),
    "valley_center": (valley_center, ([0, 1], [1, 2]), (0, 1)),
    "valley_radius": (valley_radius, ([0, 1], 2), (0,)),
    "deceptive_term": (deceptive_term, ([0, 1], [1, 1], [2, 2]), (0, 1, 2)),
    "deceptive_g": (deceptive_g, ([[0, 1]], [1], 2), (0, 1)),
    "robust_term": (robust_term, ([0, 1],), (0,)),
    "robust_g": (robust_g, ([[0, 1]],), (0,)),
    "radial_profile": (radial_profile, ([0, 2], [0, 1], "convex_concave", "additive"), (0, 1)),
    "compose": (compose, ([[1, 2]], [3], "additive"), (0, 1)),
    # The nearest-axis verdict alone: a point with a zero component.
    "nearest_axis": (constraint_table, ([[1, 2, 0]], BANDED[1:]), (0,)),
    "constraint_table": (constraint_table, ([[1, 2, 3]], BANDED), (0,)),
    # One point, a 1-D row.
    "constraint_table_one_point": (constraint_table, ([1, 2, 3], BANDED), (0,)),
    "dominance_mask": (dominance_mask, ([[1, 2], [2, 1], [2, 2]],), (0,)),
    "dominance_filter": (dominance_filter, ([[1, 2], [2, 1], [2, 2]],), (0,)),
    "igd": (igd, ([[1, 2], [0, 1]], [[1, 1]]), (0, 1)),
}
ARGUMENTS = [(name, pos) for name, (_, _, positions) in KERNELS.items() for pos in positions]


def with_argument(name, pos, value):
    fn, args, _ = KERNELS[name]
    return fn(*args[:pos], value, *args[pos + 1:])


def parts(result):
    """A kernel's result as a tuple: its items, a report's fields, or itself alone."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    return result if isinstance(result, tuple) else (result,)


def complex_first(values):
    """values as nested lists with 1j added to the first number."""
    if isinstance(values, list):
        return [complex_first(values[0])] + values[1:]
    return values + 1j


@pytest.mark.parametrize("name, pos", ARGUMENTS)
@pytest.mark.parametrize("dtype", [None, np.int64, np.uint64, np.float32, object],
                         ids=["list", "int", "uint64", "float32", "object"])
def test_kernels_convert_real_input_to_its_float64_bits(name, pos, dtype):
    values = KERNELS[name][1][pos]
    got = with_argument(name, pos, values if dtype is None else np.array(values, dtype=dtype))
    want = with_argument(name, pos, np.array(values, dtype=float))
    assert all(same(a, b) for a, b in zip(parts(got), parts(want), strict=True))


@pytest.mark.parametrize("name, pos", ARGUMENTS)
@pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
def test_kernels_reject_complex_input_naming_the_dtype(name, pos, as_array):
    values = complex_first(KERNELS[name][1][pos])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would escape pytest.raises
        with pytest.raises(ValueError, match="got dtype complex128"):
            with_argument(name, pos, np.array(values) if as_array else values)


def first_replaced(values, new):
    """values as nested lists with the first number replaced by new."""
    if isinstance(values, list):
        return [first_replaced(values[0], new)] + values[1:]
    return new


NON_REAL_DTYPES = {
    "text": lambda a: a.astype(str),
    "bytes": lambda a: a.astype(bytes),
    "bool": lambda a: a.astype(bool),
    "datetime": lambda a: a.astype("datetime64[D]"),
    "timedelta": lambda a: a.astype("timedelta64[s]"),
    "void": lambda a: np.ascontiguousarray(a, dtype=float).view("V8"),
}


@pytest.mark.parametrize("name, pos", ARGUMENTS)
@pytest.mark.parametrize("kind", sorted(NON_REAL_DTYPES))
def test_kernels_reject_non_numeric_dtypes_naming_the_dtype(name, pos, kind):
    # numpy would parse the text, read True as 1 or count time in ticks.
    values = NON_REAL_DTYPES[kind](np.array(KERNELS[name][1][pos]))
    dtype = re.escape(str(values.dtype))
    with pytest.raises(ValueError, match=f"^expected real numbers, got dtype {dtype}$"):
        with_argument(name, pos, values)


@pytest.mark.parametrize("name, pos", ARGUMENTS)
@pytest.mark.parametrize("element", [None, "1", b"1", True, np.True_],
                         ids=["None", "text", "bytes", "bool", "numpy-bool"])
@pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
def test_kernels_reject_object_elements_that_are_not_numbers(name, pos, element, as_array):
    values = first_replaced(KERNELS[name][1][pos], element)
    if not as_array:
        if isinstance(element, (bool, np.bool_)) and np.asarray(values).dtype != bool:
            # In a list, numpy turns True to 1 next to other numbers, before any check.
            with np.errstate(all="ignore"):  # 1 may sit outside a kernel's domain
                want = with_argument(name, pos, first_replaced(KERNELS[name][1][pos], 1))
                got = with_argument(name, pos, values)
            assert all(same(a, b) for a, b in zip(parts(got), parts(want), strict=True))
            return
        # numpy makes text of a list holding text, an object array of one
        # holding None, and a bool array of a list of bools alone.
        message = "^expected real numbers, got (dtype ([<|][US]|bool)|None$)"
    else:
        values = np.array(values, dtype=object)
        message = f"^expected real numbers, got {re.escape(repr(element))}$"
    with pytest.raises(ValueError, match=message):
        with_argument(name, pos, values)


def test_perturb_experiment_rejects_a_complex_row_as_the_evaluator_does():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="robust")
    with pytest.raises(ValueError, match="cannot read the decision vector as real numbers"):
        perturb_experiment(np.array([0.5 + 1j, 0.5]), 0.1, 4, spec)
