"""Caller input as float64, and reductions along the short last axis of rows.

Given a (..., w) array whose last axis holds a few values, numpy reduces it
one row at a time, at 15 to 65 ns a row, which on a short axis costs more
than the arithmetic.  When the first axis holds COLUMN_ROWS rows or more
and a row fewer than SHORT values, these helpers make one ufunc call per
column instead, over all rows at once; otherwise they call numpy's own
reduction.  Wider rows stay with numpy at any count: a column pass then
strides over several cache lines a row, and at 32 values and 10,000 rows
it ran six times slower.

Either way the result has the bits numpy gives for the C-ordered copy of
the input, whatever its layout.  Only the sum depends on the order: numpy
sums a C-ordered row pairwise from 0.0 (pairwise_sum in its
loops_utils.h), in order for fewer than 8 values; from 8 to 128 values
it keeps eight interleaved running sums r0..r7, combines them as
((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and adds the rest in
order.  Below 16 values no running sum gets a second term, so row_sum
adds its columns in exactly that order.  numpy sums any other layout
column after column, so row_sum hands it a C-ordered copy.  Maxima, the
logical reductions and the in-order accumulations do not depend on the
order.  Where two different NaNs meet in one sum or maximum, which one
comes out depends on how numpy was compiled and on the CPU's vector
width, so a NaN result is a NaN, with no promise about its sign bit.
"""

from __future__ import annotations

import numpy as np

COLUMN_ROWS = 1000  # rows from which a column at a time beats numpy's row loop
SHORT = 16  # rows of this many values or more stay with numpy

# Each helper tests where x goes inline: the test runs on every evaluator
# call, where one more function call costs 1-2% on 100 rows.  len(x) is the
# cheapest count of rows; an (A, B, w) stack with A below COLUMN_ROWS goes
# to numpy, with the same bits, and so do single values and single rows.


def row_sum(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x, axis=-1) of the C-ordered copy of the float array x."""
    if x.ndim < 2 or len(x) < COLUMN_ROWS or not 0 < x.shape[-1] < SHORT:
        return np.add.reduce(x if x.flags.c_contiguous else np.ascontiguousarray(x), axis=-1)
    c = [x[..., j] for j in range(x.shape[-1])]
    if len(c) < 8:
        total = c[0] + 0.0
    else:
        total = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
        total += 0.0  # numpy adds the row to 0.0, which turns -0.0 into 0.0
    for col in c[1 if len(c) < 8 else 8:]:
        total += col
    return total


def _folding(ufunc):
    """The function x -> ufunc.reduce(x, axis=-1), for an order-free ufunc."""
    def fold(x: np.ndarray) -> np.ndarray:
        if x.ndim < 2 or len(x) < COLUMN_ROWS or not 0 < x.shape[-1] < SHORT:
            return ufunc.reduce(x, axis=-1)
        out = x[..., 0].copy()
        for j in range(1, x.shape[-1]):
            ufunc(out, x[..., j], out=out)
        return out
    return fold


row_max = _folding(np.maximum)  # a row holding a NaN gives a NaN
row_all = _folding(np.logical_and)  # of a bool array
row_any = _folding(np.logical_or)  # of a bool array


def row_accumulate(ufunc, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc.accumulate(x, axis=-1, out=out): each value combined with those before it, in order."""
    if x.ndim < 2 or len(x) < COLUMN_ROWS or not 0 < x.shape[-1] < SHORT:
        return ufunc.accumulate(x, axis=-1, out=out)
    out[..., 0] = x[..., 0]
    for j in range(1, x.shape[-1]):
        ufunc(out[..., j - 1], x[..., j], out=out[..., j])
    return out


def real_array(values) -> np.ndarray:
    """values as a float64 array; ValueError naming the dtype if they are complex."""
    a = np.asarray(values)
    if a.dtype.kind == "c":  # numpy would keep the real part, with only a warning
        raise ValueError(f"expected real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)
