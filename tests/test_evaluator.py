"""End-to-end instance evaluation: single points, batches, error reporting."""

import copy
import pickle

import numpy as np
import pytest

from gpdbench import (
    BatchError,
    ConstraintSpec,
    ProblemSpec,
    evaluate,
    evaluate_arrays,
    evaluate_batch,
    pareto_set_sample,
    parse_spec,
    render_spec,
)
from gpdbench.distance import compose, normalized_angle, radial_profile
from gpdbench.position import meta_variables, position_point

TINY = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive")


def rich_spec(**kw):
    base = dict(objectives=3, distance_vars=4, distance_kind="deceptive",
                meta_q=5, meta_t=1, norm_p="auto",
                constraints=(ConstraintSpec(kind="min_angle",
                                            reference="diagonal",
                                            threshold_a=0.2),))
    base.update(kw)
    return ProblemSpec(**base)


def test_evaluate_front_point():
    ev = evaluate(np.array([0.0, 0.5]), TINY)
    assert ev.objectives == (1.0, 0.0)
    assert ev.distance_value == 1.0
    assert ev.distance_phi == 1.0
    assert ev.report.feasible is True


def test_evaluate_deceptive_boundary_point():
    # x_d = 0 sits on the left deceptive ramp: g = 5, objectives scale to 6x
    ev = evaluate(np.array([0.0, 0.0]), TINY)
    assert ev.objectives == (6.0, 0.0)


def test_evaluate_additive_composition():
    spec = ProblemSpec(objectives=2, distance_vars=1, distance_kind="deceptive",
                       composition="additive")
    ev = evaluate(np.array([0.0, 0.0]), spec)
    np.testing.assert_allclose(ev.objectives, (6.0, 5.0))


def test_evaluate_length_error_names_expected_width():
    with pytest.raises(ValueError, match="has 3 coordinates, expected 2"):
        evaluate(np.zeros(3), TINY)


def test_evaluate_box_error_names_coordinate():
    with pytest.raises(ValueError, match="coordinate 2 is 2, outside \\[0, 1\\]"):
        evaluate(np.array([0.0, 2.0]), TINY)
    with pytest.raises(ValueError, match="coordinate 1 is -1.5, outside \\[-1, 1\\]"):
        evaluate(np.array([-1.5, 0.5]), TINY)
    with pytest.raises(ValueError, match="coordinate 2 is nan"):
        evaluate(np.array([0.0, np.nan]), TINY)


def test_evaluation_fields_are_consistent():
    spec = rich_spec()
    rng = np.random.default_rng(30)
    x = np.concatenate([rng.uniform(-1, 1, spec.position_dim),
                        rng.uniform(0, 1, spec.distance_vars)])
    ev = evaluate(x, spec)
    f_p = np.asarray(ev.position_point)
    y = meta_variables(x[:spec.position_dim], spec.meta_q, spec.meta_t)
    np.testing.assert_allclose(f_p, position_point(y, spec.norm_p), rtol=1e-12)
    np.testing.assert_allclose(
        ev.distance_phi,
        normalized_angle(f_p, np.asarray(spec.distance_reference)), rtol=1e-12)
    # constraint phi is the angle to that constraint's own reference
    np.testing.assert_allclose(
        ev.phi_per_constraint[0],
        normalized_angle(f_p, np.asarray(spec.constraints[0].reference)), rtol=1e-12)
    want = compose(f_p, ev.distance_value, spec.composition)
    np.testing.assert_allclose(ev.objectives, want, rtol=1e-12)


@pytest.mark.parametrize("scaled", ("1e200,2e200,3e200", "1e-200,2e-200,3e-200",
                                    "1e-160,2e-160,3e-160"))
def test_distance_reference_too_small_or_large_to_square(scaled):
    # All pass parse_spec; their squared norms overflow, underflow to 0 or
    # land among the subnormals, which keep too few bits for the angle.
    plain = ProblemSpec(objectives=3, distance_vars=2, distance_kind="deceptive",
                        distance_reference=(1.0, 2.0, 3.0))
    text = render_spec(plain)
    spec = parse_spec(text.replace("distance_reference = 1,2,3", f"distance_reference = {scaled}"))
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.uniform(-1.0, 1.0, (50, plain.position_dim)),
                         rng.uniform(0.0, 1.0, (50, 2))])
    np.testing.assert_allclose(evaluate_arrays(x, spec).distance_phi,
                               evaluate_arrays(x, plain).distance_phi, rtol=0, atol=1e-12)


def test_batch_empty():
    assert evaluate_batch(np.zeros((0, 2)), TINY) == []


def test_batch_matches_single_bitwise():
    spec = rich_spec(distance_kind="robust", dissimilar=True)
    rng = np.random.default_rng(31)
    rows = np.column_stack([rng.uniform(-1, 1, size=(64, spec.position_dim)),
                            rng.uniform(0, 1, size=(64, spec.distance_vars))])
    batch = evaluate_batch(rows, spec)
    for row, got in zip(rows, batch):
        one = evaluate(row, spec)
        assert one.objectives == got.objectives  # bit-identical, not approx
        assert one.distance_value == got.distance_value
        assert one.distance_phi == got.distance_phi
        assert one.phi_per_constraint == got.phi_per_constraint
        assert one.report.violations == got.report.violations
        assert one.report.feasible == got.report.feasible


def test_batch_reports_first_bad_row_and_keeps_going():
    rows = np.array([[0.0, 0.5],
                     [0.0, 7.0],
                     [0.5, 0.5],
                     [9.0, 0.5]])
    with pytest.raises(BatchError) as exc:
        evaluate_batch(rows, TINY)
    err = exc.value
    assert err.row_errors[0][0] == 1  # first offending row, 0-based
    assert {i for i, _ in err.row_errors} == {1, 3}
    assert "row 1:" in str(err) and "1 more rejected" in str(err)
    # the valid rows were still evaluated; rejected slots stay None
    assert [ev is None for ev in err.results] == [False, True, False, True]
    assert err.results[0].objectives == (1.0, 0.0)


def test_batch_error_pickles_and_copies_with_its_results():
    with pytest.raises(BatchError) as exc:
        evaluate_batch([[0.0, 0.5], [0.0, 7.0]], TINY)
    for twin in (pickle.loads(pickle.dumps(exc.value)), copy.copy(exc.value)):
        assert type(twin) is BatchError and str(twin) == str(exc.value)
        assert twin.row_errors == exc.value.row_errors
        assert twin.results == exc.value.results
        assert twin.results[0].objectives == (1.0, 0.0) and twin.results[1] is None


def test_batch_error_results_can_be_read_again_after_a_failed_read(monkeypatch):
    import gpdbench.evaluator as evaluator

    expected = [evaluate([0.0, 0.5], TINY), None, evaluate([0.5, 0.5], TINY)]
    with pytest.raises(BatchError) as exc:
        evaluate_batch([[0.0, 0.5], [0.0, 7.0], [0.5, 0.5]], TINY)
    packed = evaluator._evaluations
    calls = []

    def fails_once(arrays):
        calls.append(arrays)
        if len(calls) == 1:
            raise MemoryError
        return packed(arrays)

    monkeypatch.setattr(evaluator, "_evaluations", fails_once)
    with pytest.raises(MemoryError):
        exc.value.results
    # The interrupted read cached nothing: the next one packs every good row.
    assert exc.value.results == expected
    assert exc.value.results is exc.value.results and len(calls) == 2


def test_batch_error_takes_an_iterable_of_results():
    err = BatchError([(1, "bad")], iter([None, None]))
    assert err.results == [None, None] and err.results == err.results


@pytest.mark.parametrize("bad", [["x", 0.3], [1 + 2j, 0.3], [object(), 0.3], [[0.1], 0.3],
                                 [10 ** 400, 0.3], ["0.5", 0.3], [b"0.5", 0.3], [None, 0.3]],
                         ids=["text", "complex", "object", "inhomogeneous", "overflow",
                              "numeric-text", "bytes", "none"])
def test_batch_reports_a_row_float_cannot_read(bad):
    unreadable = "cannot read the decision vector as real numbers"
    with pytest.raises(BatchError) as exc:
        evaluate_batch([[0.0, 0.5], bad, [0.0, 0.0]], TINY)
    assert exc.value.row_errors == [(1, unreadable)]
    assert [ev is None for ev in exc.value.results] == [False, True, False]
    with pytest.raises(ValueError) as one:
        evaluate(bad, TINY)
    assert str(one.value) == unreadable


def test_bool_rows_are_rejected_unless_numpy_stacks_them_with_numbers():
    unreadable = "cannot read the decision vector as real numbers"
    with pytest.raises(ValueError, match=f"^{unreadable}$"):
        evaluate([False, True], TINY)
    with pytest.raises(BatchError) as exc:
        evaluate_batch([[False, True], [True, False]], TINY)
    assert exc.value.row_errors == [(0, unreadable), (1, unreadable)]
    # np.asarray turns these bools into floats before any check sees them.
    assert evaluate_batch([[False, True], [0.0, 0.5]], TINY) == evaluate_batch(
        [[0.0, 1.0], [0.0, 0.5]], TINY)
    assert evaluate([False, 0.5], TINY) == evaluate([0.0, 0.5], TINY)


def test_complex_batches_and_rows_are_rejected_row_by_row():
    # numpy casts complex to float with a warning and drops the imaginary part.
    unreadable = "cannot read the decision vector as real numbers"
    batch = np.array([[0.0, 0.5], [0.1 + 5j, 0.3]])
    for call in (evaluate_batch, evaluate_arrays):
        with pytest.raises(BatchError) as whole:
            call(batch, TINY)
        assert whole.value.row_errors == [(0, unreadable), (1, unreadable)]
        with pytest.raises(BatchError) as mixed:
            call([[0.0, 0.5], batch[1]], TINY)
        assert mixed.value.row_errors == [(1, unreadable)]
    for row in batch:
        with pytest.raises(ValueError) as one:
            evaluate(row, TINY)
        assert str(one.value) == unreadable


def test_batch_accepts_list_of_rows():
    out = evaluate_batch([[0.0, 0.5], [0.0, 0.0]], TINY)
    assert len(out) == 2
    assert out[0].objectives == (1.0, 0.0)
    assert out[1].objectives == (6.0, 0.0)


def test_evaluate_is_pure():
    spec = rich_spec()
    x = np.concatenate([np.full(spec.position_dim, 0.25),
                        np.full(spec.distance_vars, 0.75)])
    a, b = evaluate(x, spec), evaluate(x, spec)
    assert a.objectives == b.objectives
    assert a.report == b.report


def test_front_points_weakly_dominate_everything():
    # g >= 0 means no evaluated point can undercut the g = 0 surface scaling
    for kind in ("deceptive", "robust"):
        for comp in ("multiplicative", "additive"):
            spec = ProblemSpec(objectives=3, distance_vars=3, distance_kind=kind,
                               composition=comp)
            rng = np.random.default_rng(32)
            rows = np.column_stack([
                rng.uniform(-1, 1, size=(100, spec.position_dim)),
                rng.uniform(0, 1, size=(100, spec.distance_vars))])
            for ev in evaluate_batch(rows, spec):
                f_p = np.asarray(ev.position_point)
                floor = compose(f_p, radial_profile(0.0, ev.distance_phi, kind, comp), comp)
                assert np.all(np.asarray(ev.objectives) >= floor - 1e-12)


def test_dissimilar_objectives_stay_in_scaled_box():
    spec = ProblemSpec(objectives=3, distance_vars=2, distance_kind="deceptive",
                       dissimilar=True)
    vec = pareto_set_sample(spec, 8).vectors[3]
    ev = evaluate(vec, spec)
    for i, f in enumerate(ev.objectives, start=1):
        assert -2.0 * i <= f <= 2.0 * i


def test_large_batch_is_fast():
    import time
    spec = ProblemSpec(objectives=10, distance_vars=20, distance_kind="deceptive",
                       meta_q=10, meta_t=4, norm_p="auto")
    rng = np.random.default_rng(33)
    rows = np.column_stack([rng.uniform(-1, 1, size=(10000, spec.position_dim)),
                            rng.uniform(0, 1, size=(10000, spec.distance_vars))])
    t0 = time.perf_counter()
    out = evaluate_batch(rows, spec)
    elapsed = time.perf_counter() - t0
    assert len(out) == 10000
    assert elapsed < 5.0


def test_evaluator_reaches_angle_and_constraint_stages_through_module_globals(monkeypatch):
    # The benchmark's tracer times a stage by rebinding the module globals
    # that name it.  A call that bypassed them would leave the stage's
    # per-layer metrics at zero without any error.
    from gpdbench import constraints, distance, evaluator
    assert evaluator.normalized_angle is distance.normalized_angle
    assert evaluator.constraint_table is constraints.constraint_table
    spec = rich_spec()
    rows = pareto_set_sample(spec, 4).vectors
    calls = []
    for name in ("normalized_angle", "constraint_table"):
        real = getattr(evaluator, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(evaluator, name, spy)
    evaluate_batch(rows, spec)
    assert calls == ["normalized_angle", "constraint_table"]


# Each stage the evaluator runs, with the module whose global the call goes
# through; position_point, deceptive_g and robust_g call their own inner
# stages through their modules' globals too.
STAGE_BINDINGS = {
    "evaluator": ("meta_variables", "position_point", "normalized_angle", "deceptive_g",
                  "robust_g", "radial_profile", "compose", "dissimilarize",
                  "constraint_table"),
    "position": ("spherical_map", "p_norm"),
    "distance": ("valley_center", "valley_radius", "deceptive_term", "robust_term"),
}


@pytest.mark.parametrize("spec, stages", [
    (rich_spec(constraints=(
        ConstraintSpec(kind="min_angle", reference="diagonal", threshold_a=0.2),
        ConstraintSpec(kind="nearest_axis", axis_j=2))),
     ["meta_variables", "position_point", "spherical_map", "p_norm", "normalized_angle",
      "deceptive_g", "valley_center", "valley_radius", "deceptive_term", "radial_profile",
      "compose", "constraint_table"]),
    (rich_spec(objectives=5, distance_kind="robust", dissimilar=True, constraints=(
        ConstraintSpec(kind="band", reference="diagonal", threshold_a=0.2, threshold_b=0.8),)),
     ["meta_variables", "position_point", "spherical_map", "p_norm", "normalized_angle",
      "robust_g", "robust_term", "radial_profile", "compose", "dissimilarize",
      "constraint_table"]),
], ids=["deceptive", "robust-dissimilar"])
def test_evaluator_reaches_every_stage_through_module_globals(monkeypatch, spec, stages):
    # The benchmark's tracer times every stage this way; a stage call that
    # bypassed its module global would zero that stage's span silently.
    import importlib
    rows = pareto_set_sample(spec, 4).vectors
    calls = []
    for module_name, names in STAGE_BINDINGS.items():
        module = importlib.import_module(f"gpdbench.{module_name}")
        for name in names:
            def spy(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, spy)
    evaluate_batch(rows, spec)
    assert calls == stages
