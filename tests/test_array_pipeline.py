"""Properties of the array evaluation path over generated specs and batches.

Batches mix valid rows with injected bad ones (non-finite values, values one
ulp outside a box edge, wrong widths, ragged and nested rows) and with rows
sitting exactly on the box edges or in the deceptive valleys, as lists and
as arrays, and reach the evaluator in any container it accepts.  The
vectorized validator must agree with a plain per-row loop, the packed
results must equal the array columns bit for bit and the row-wise packer
the column-wise one replaced (copied below), and single evaluation must
reproduce every batch row.
"""

import copy
import dataclasses
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpdbench import (BatchError, ConstraintReport, ConstraintSpec, Evaluation,
                      EvaluationArrays, ProblemSpec, evaluate, evaluate_arrays,
                      evaluate_batch, pareto_set_sample)
from gpdbench.evaluator import _evaluations
from gpdbench.spec import COMPOSITIONS, DISTANCE_KINDS, MIXED_LANDSCAPES

VALUE_INJECTIONS = ("nan", "inf", "-inf", "below", "above")
SHAPE_INJECTIONS = ("wide", "narrow", "nested", "unreadable")
UNREADABLE = "cannot read the decision vector as real numbers"
CONTAINERS = ("same", "tuple", "row arrays", "deque", "generator",
              "fortran", "strided", "int")


def reference_row_error(row, spec):
    """Per-row validator, one coordinate at a time; None for a good row."""
    try:
        x = np.atleast_1d(np.asarray(row, dtype=float))
    except (ValueError, TypeError, OverflowError):
        return UNREADABLE
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


def reference_evaluations(a):
    """The row-wise packer: one tuple per row, one report per row."""
    reports = [ConstraintReport(violations=v, feasible=ok, nearest_axis_of_point=k)
               for v, ok, k in zip(map(tuple, a.violations.tolist()),
                                   a.feasible.tolist(),
                                   a.nearest_axis_of_point.tolist())]
    return [Evaluation(objectives=f, position_point=p, distance_value=d,
                       distance_phi=phi, phi_per_constraint=c, report=rep)
            for f, p, d, phi, c, rep in zip(
                map(tuple, a.objectives.tolist()),
                map(tuple, a.position_point.tolist()),
                a.distance_value.tolist(), a.distance_phi.tolist(),
                map(tuple, a.phi_per_constraint.tolist()), reports)]


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


def container(batch, how):
    """A fresh container holding the rows of batch, built as how says.

    "same" passes the batch itself; the last three ways need an array batch,
    "int" one whose values are all integers.
    """
    if isinstance(batch, np.ndarray):
        if how == "fortran":
            return np.asfortranarray(batch)
        if how == "strided":
            wide = np.zeros((2 * batch.shape[0], 2 * batch.shape[1]))
            wide[::2, ::2] = batch
            return wide[::2, ::2]
        if how == "int":
            ints = batch.astype(np.int64)
            assert np.array_equal(ints, batch)
            return ints
    if how == "tuple":
        return tuple(batch)
    if how == "row arrays":
        return tuple(np.asarray(row) for row in batch)
    if how == "deque":
        return deque(batch)
    if how == "generator":
        return (row for row in batch)
    return batch


@st.composite
def batches(draw, spec):
    """A batch, and how to wrap it in the container the evaluator receives.

    The batch is a (B, N) array when it is rectangular and flat, else a list.
    Each row may sit on the box edges, or be a Pareto-set row whose distance
    part is left alone or nudged by less than the narrowest valley radius,
    so that in-valley coordinates land at other positions in a batch than
    in its single rows.  Each row may then carry up to two bad values and
    change shape or hold a value float() cannot read; a width shift applied to every row makes a whole batch too
    wide or too narrow.  The array containers get an array batch with no shape
    injections; for an integer array every row sits on the box edges and
    the bad values are whole steps past them.
    """
    n, r = spec.total_dim, spec.position_dim
    lo = np.concatenate([np.full(r, -1.0), np.zeros(spec.distance_vars)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.sampled_from((0, 0, 0, 1, -1)))
    how = draw(st.sampled_from(CONTAINERS))
    array_only = how in ("fortran", "strided", "int")
    bad_values = ("below", "above") if how == "int" else VALUE_INJECTIONS
    pset = pareto_set_sample(spec, draw(st.integers(1, 4))).vectors
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        x = rng.uniform(lo, 1.0)
        if how == "int" or draw(st.integers(0, 3)) == 0:  # exactly on the box: accepted
            x[:r] = rng.choice([-1.0, 0.0, 1.0], size=r)
            x[r:] = rng.choice([0.0, 1.0], size=n - r)
        elif draw(st.integers(0, 2)) == 0:  # in the valleys, nudged or not
            x = pset[rng.integers(len(pset))].copy()
            nudge = rng.uniform(-0.009, 0.009, n - r) * rng.integers(0, 2, n - r)
            x[r:] = np.clip(x[r:] + nudge, 0.0, 1.0)
        for how_bad in draw(st.lists(st.sampled_from(bad_values), max_size=2)):
            j = draw(st.integers(0, n - 1))
            if how_bad == "nan":
                x[j] = np.nan
            elif how_bad in ("inf", "-inf"):
                x[j] = float(how_bad)
            elif how_bad == "below":
                x[j] = lo[j] - 1.0 if how == "int" else np.nextafter(lo[j], -np.inf)
            else:
                x[j] = 2.0 if how == "int" else np.nextafter(1.0, np.inf)
        shape = None if array_only else draw(st.sampled_from((None,) * 6 + SHAPE_INJECTIONS))
        if shape == "wide" or shift == 1:
            x = np.append(x, 1.0)
        if shape == "narrow" or shift == -1:
            x = x[:-1]
        if shape == "nested":
            x = x[None, :]
        if shape == "unreadable":  # a value float() rejects, whatever the container
            x = x.astype(object)
            x[draw(st.integers(0, len(x) - 1))] = draw(st.sampled_from(("x", 10 ** 400)))
        rows.append(x)
    if array_only or (len({x.shape for x in rows}) <= 1 and all(x.ndim == 1 for x in rows)
                      and all(x.dtype == float for x in rows) and draw(st.booleans())):
        width = rows[0].shape[0] if rows else n + shift
        batch = np.array(rows, dtype=float).reshape(len(rows), width)
    else:
        batch = [x.tolist() for x in rows]
    return batch, how


@st.composite
def cases(draw):
    spec = draw(specs())
    return (spec, *draw(batches(spec)))


def same_bits(column, values):
    want = np.asarray(values, dtype=column.dtype).reshape(column.shape)
    return want.tobytes() == column.tobytes()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
def test_batch_validation_packing_and_single_row_agree(case):
    spec, rows, how = case
    expected = [reference_row_error(row, spec) for row in rows]
    want_errors = [(i, msg) for i, msg in enumerate(expected) if msg is not None]
    outcomes = []
    for batch in (rows, container(rows, how)):
        try:
            outcomes.append((evaluate_batch(batch, spec), []))
        except BatchError as err:
            outcomes.append((err.results, err.row_errors))
    (results, errors), (received_results, received_errors) = outcomes
    assert errors == received_errors == want_errors
    assert repr(received_results) == repr(results)
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

    for batch in (rows, container(rows, how)):
        try:
            whole = evaluate_arrays(batch, spec)
        except BatchError as err:
            assert err.row_errors == want_errors
            assert repr(err.results) == repr(results)
        else:
            assert not want_errors
            for field in dataclasses.fields(whole):
                got, want = getattr(whole, field.name), getattr(arrays, field.name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), field.name


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
def test_packing_matches_row_wise_packer(case):
    spec, rows, _ = case
    try:
        results = evaluate_batch(rows, spec)
        bad = set()
    except BatchError as err:
        results = err.results
        bad = {i for i, _ in err.row_errors}
    good_rows = [row for i, row in enumerate(rows) if i not in bad]
    packed = iter(reference_evaluations(evaluate_arrays(good_rows, spec)))
    want = [None if i in bad else next(packed) for i in range(len(rows))]
    assert repr(results) == repr(want)


@pytest.mark.parametrize("constrained", [False, True])
def test_packing_of_zero_rows(constrained):
    cons = (ConstraintSpec(kind="nearest_axis", axis_j=1),) if constrained else ()
    spec = ProblemSpec(objectives=3, distance_vars=2, distance_kind="robust",
                       constraints=cons)
    for rows in ([], np.empty((0, spec.total_dim))):
        assert evaluate_batch(rows, spec) == []
        a = evaluate_arrays(rows, spec)
        assert _evaluations(a) == reference_evaluations(a) == []


@pytest.mark.parametrize("c", [0, 1, 3])
def test_packing_keeps_negative_zero_bits(c):
    # Rows that differ only in the sign of a zero must keep their own bits.
    rng = np.random.default_rng(c)
    b, m = 6, 4
    violations = np.where(rng.random((b, c)) < 0.5, -0.0, 0.0)
    phis = np.where(rng.random((b, c)) < 0.5, -0.0, 0.0)
    a = EvaluationArrays(
        objectives=np.where(rng.random((b, m)) < 0.5, -0.0, 0.0),
        position_point=rng.random((b, m)),
        distance_value=np.array([0.0, -0.0] * (b // 2)),
        distance_phi=np.array([-0.0, 0.0] * (b // 2)),
        phi_per_constraint=phis, violations=violations,
        nearest_axis_of_point=rng.integers(1, m + 1, size=b),
        feasible=np.all(violations == 0.0, axis=-1))
    got, want = _evaluations(a), reference_evaluations(a)
    assert repr(got) == repr(want)
    assert "-0.0" in repr(got)


@pytest.mark.parametrize("constrained", [False, True])
def test_packed_rows_behave_like_constructed_ones(constrained):
    # The packer fills slots directly; its rows must be indistinguishable
    # from rows built through the public constructors.
    cons = (ConstraintSpec(kind="band", reference="diagonal", threshold_a=0.2,
                           threshold_b=0.4),
            ConstraintSpec(kind="nearest_axis", axis_j=2)) if constrained else ()
    spec = ProblemSpec(objectives=3, distance_vars=2, distance_kind="deceptive",
                       constraints=cons)
    rows = np.random.default_rng(5).uniform(0.0, 1.0, size=(5, spec.total_dim))
    packed = evaluate_batch(rows, spec)
    bad = rows.copy()
    bad[2, 0] = 2.0
    with pytest.raises(BatchError) as err:
        evaluate_batch(bad, spec)
    partial = [ev for ev in err.value.results if ev is not None]
    want = reference_evaluations(evaluate_arrays(rows, spec))
    for ev, ref in zip(packed + partial, want + want[:2] + want[3:]):
        assert type(ev) is Evaluation and type(ev.report) is ConstraintReport
        assert ev == ref and hash(ev) == hash(ref) and repr(ev) == repr(ref)
        for obj in (ev, ev.report):
            assert not hasattr(obj, "__dict__")
            name = dataclasses.fields(obj)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        for twin in (pickle.loads(pickle.dumps(ev)), copy.copy(ev),
                     copy.deepcopy(ev), dataclasses.replace(ev)):
            assert type(twin) is Evaluation and repr(twin) == repr(ref)
        assert dataclasses.asdict(ev) == dataclasses.asdict(ref)
        moved = dataclasses.replace(ev, distance_value=-1.0)
        assert moved.distance_value == -1.0 and moved.report is ev.report
