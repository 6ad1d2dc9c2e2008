"""Properties of the array evaluation path over generated specs and batches.

Batches mix valid rows with injected bad ones (non-finite values, values one
ulp outside a box edge, wrong widths, ragged and nested rows) and with rows
sitting exactly on the box edges, as lists and as arrays.  The vectorized validator must agree with
a plain per-row loop, the packed results must equal the array columns bit
for bit, and single evaluation must reproduce every batch row.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpdbench import (COMPOSITIONS, DISTANCE_KINDS, MIXED_LANDSCAPES,
                      BatchError, ConstraintSpec, ProblemSpec, evaluate,
                      evaluate_arrays, evaluate_batch)

VALUE_INJECTIONS = ("nan", "inf", "-inf", "below", "above")
SHAPE_INJECTIONS = ("wide", "narrow", "nested")


def reference_row_error(row, spec):
    """Per-row validator, one coordinate at a time; None for a good row."""
    x = np.atleast_1d(np.asarray(row, dtype=float))
    n = spec.total_dim
    if x.ndim != 1:
        return f"expected a flat decision vector, got shape {x.shape}"
    if x.shape[0] != n:
        return f"decision vector has {x.shape[0]} coordinates, expected {n}"
    for i, v in enumerate(x.tolist()):
        lo = -1.0 if i < spec.position_dim else 0.0
        if not lo <= v <= 1.0:  # NaN fails both comparisons
            return f"coordinate {i + 1} is {v:g}, outside [{lo:g}, 1]"
    return None


@st.composite
def constraints(draw, m):
    kind = draw(st.sampled_from(("min_angle", "max_angle", "band", "nearest_axis")))
    if kind == "nearest_axis":
        return ConstraintSpec(kind=kind, axis_j=draw(st.integers(1, m)))
    reference = draw(st.sampled_from(["diagonal"] + [f"e{j}" for j in range(1, m + 1)]))
    a = draw(st.floats(0.05, 0.9))
    b = draw(st.floats(a + 0.01, 0.95)) if kind == "band" else None
    return ConstraintSpec(kind=kind, reference=reference, threshold_a=a, threshold_b=b)


@st.composite
def specs(draw):
    m = draw(st.integers(2, 10))
    q, t = draw(st.sampled_from([(1, 0), (2, 0), (4, 1), (6, 2)]))
    return ProblemSpec(
        objectives=m, distance_vars=draw(st.integers(1, 6)),
        distance_kind=draw(st.sampled_from(DISTANCE_KINDS)),
        meta_q=q, meta_t=t,
        norm_p=draw(st.sampled_from(["auto", 0.5, 1.0, 2.0, 3.5])),
        composition=draw(st.sampled_from(COMPOSITIONS)),
        valleys_k=draw(st.integers(1, 3)),
        dissimilar=draw(st.booleans()),
        mixed_landscape=draw(st.sampled_from(MIXED_LANDSCAPES)),
        constraints=tuple(draw(st.lists(constraints(m), max_size=2))))


@st.composite
def batches(draw, spec):
    """A batch as a (B, N) array when it is rectangular and flat, else a list.

    Each row may sit on the box edges, carry up to two bad values and change
    shape; a width shift applied to every row makes a whole batch too wide
    or too narrow.
    """
    n, r = spec.total_dim, spec.position_dim
    lo = np.concatenate([np.full(r, -1.0), np.zeros(spec.distance_vars)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.sampled_from((0, 0, 0, 1, -1)))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        x = rng.uniform(lo, 1.0)
        if draw(st.integers(0, 3)) == 0:  # exactly on the box: accepted
            x[:r] = rng.choice([-1.0, 0.0, 1.0], size=r)
            x[r:] = rng.choice([0.0, 1.0], size=n - r)
        for how in draw(st.lists(st.sampled_from(VALUE_INJECTIONS), max_size=2)):
            j = draw(st.integers(0, n - 1))
            if how == "nan":
                x[j] = np.nan
            elif how in ("inf", "-inf"):
                x[j] = float(how)
            elif how == "below":
                x[j] = np.nextafter(lo[j], -np.inf)
            else:
                x[j] = np.nextafter(1.0, np.inf)
        how = draw(st.sampled_from((None,) * 6 + SHAPE_INJECTIONS))
        if how == "wide" or shift == 1:
            x = np.append(x, 0.5)
        if how == "narrow" or shift == -1:
            x = x[:-1]
        if how == "nested":
            x = x[None, :]
        rows.append(x)
    if len({x.shape for x in rows}) <= 1 and all(x.ndim == 1 for x in rows) and draw(st.booleans()):
        width = rows[0].shape[0] if rows else n + shift
        return np.array(rows, dtype=float).reshape(len(rows), width)
    return [x.tolist() for x in rows]


@st.composite
def cases(draw):
    spec = draw(specs())
    return spec, draw(batches(spec))


def same_bits(column, values):
    want = np.asarray(values, dtype=column.dtype).reshape(column.shape)
    return want.tobytes() == column.tobytes()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
def test_batch_validation_packing_and_single_row_agree(case):
    spec, rows = case
    expected = [reference_row_error(row, spec) for row in rows]
    want_errors = [(i, msg) for i, msg in enumerate(expected) if msg is not None]
    try:
        results = evaluate_batch(rows, spec)
        errors = []
    except BatchError as err:
        results, errors = err.results, err.row_errors
    assert errors == want_errors
    assert [ev is None for ev in results] == [msg is not None for msg in expected]

    for row, msg, ev in zip(rows, expected, results):
        if msg is None:
            assert repr(evaluate(row, spec)) == repr(ev)
        else:
            try:
                evaluate(row, spec)
            except ValueError as err:
                assert str(err) == msg
            else:
                raise AssertionError(f"row accepted, expected {msg!r}")

    good_rows = [row for row, msg in zip(rows, expected) if msg is None]
    good = [ev for ev in results if ev is not None]
    arrays = evaluate_arrays(good_rows, spec)
    m, c = spec.objectives, len(spec.constraints)
    assert arrays.objectives.shape == (len(good), m)
    assert arrays.violations.shape == (len(good), c)
    assert same_bits(arrays.objectives, [ev.objectives for ev in good])
    assert same_bits(arrays.position_point, [ev.position_point for ev in good])
    assert same_bits(arrays.distance_value, [ev.distance_value for ev in good])
    assert same_bits(arrays.distance_phi, [ev.distance_phi for ev in good])
    assert same_bits(arrays.phi_per_constraint, [ev.phi_per_constraint for ev in good])
    assert same_bits(arrays.violations, [ev.report.violations for ev in good])
    assert arrays.feasible.tolist() == [ev.report.feasible for ev in good]
    assert arrays.nearest_axis_of_point.tolist() == [
        ev.report.nearest_axis_of_point for ev in good]

    if want_errors:
        try:
            evaluate_arrays(rows, spec)
        except BatchError as err:
            assert err.row_errors == want_errors
            assert repr(err.results) == repr(results)
        else:
            raise AssertionError("evaluate_arrays accepted a bad batch")
