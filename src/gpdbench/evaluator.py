"""End-to-end evaluation of decision vectors against a problem instance.

Pipeline order is fixed: meta-variables, spherical map, p-norm scaling,
normalized angle, auxiliary distance g, radial profile, composition, optional
dissimilarity, constraint report.  The angle and the constraints always use
the pre-dissimilarity position point.

Every evaluation goes through ``evaluate_arrays``, which validates a whole
batch at once and returns one array per result field.  ``evaluate`` and
``evaluate_batch`` only pack those arrays into per-row ``Evaluation``
objects; a single evaluation runs the batch kernel on one row, so the two
paths are bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintReport, constraint_table
from .distance import (compose, deceptive_g, normalized_angle, radial_profile,
                       robust_g)
from .position import dissimilarize, position_objectives
from .spec import ProblemSpec


@dataclass(frozen=True)
class Evaluation:
    """Everything the pipeline knows about one decision vector.

    objectives          final objective values, dissimilarity included
    position_point      pre-dissimilarity point on the unit p-norm surface
    distance_value      scalar F_d composed with the position point
    distance_phi        normalized angle against the spec's distance reference
    phi_per_constraint  normalized angle against each constraint's reference
    report              violation magnitudes and the feasibility verdict
    """

    objectives: tuple[float, ...]
    position_point: tuple[float, ...]
    distance_value: float
    distance_phi: float
    phi_per_constraint: tuple[float, ...]
    report: ConstraintReport


@dataclass(frozen=True, eq=False)
class EvaluationArrays:
    """The Evaluation fields of B rows as arrays, one row per input row.

    objectives             (B, M) final objective values
    position_point         (B, M) pre-dissimilarity unit p-norm points
    distance_value         (B,) scalar F_d
    distance_phi           (B,) normalized angle to the distance reference
    phi_per_constraint     (B, C) normalized angle per constraint
    violations             (B, C) violation magnitudes
    nearest_axis_of_point  (B,) 1-based closest canonical axis
    feasible               (B,) True iff every violation is exactly zero
    """

    objectives: np.ndarray
    position_point: np.ndarray
    distance_value: np.ndarray
    distance_phi: np.ndarray
    phi_per_constraint: np.ndarray
    violations: np.ndarray
    nearest_axis_of_point: np.ndarray
    feasible: np.ndarray


class BatchError(ValueError):
    """One or more batch rows were rejected.

    row_errors holds (index, message) pairs in input order with 0-based
    indices; results holds an Evaluation per good row and None per bad row,
    because the contract is to keep evaluating past the first failure.
    """

    def __init__(self, row_errors, results):
        self.row_errors = list(row_errors)
        self.results = list(results)
        index, message = self.row_errors[0]
        extra = len(self.row_errors) - 1
        tail = f" (and {extra} more rejected rows)" if extra else ""
        super().__init__(f"row {index}: {message}{tail}")


def _validate(rows, spec: ProblemSpec):
    """Split rows into a stacked (G, N) matrix of good rows and diagnostics.

    Returns (matrix, good, errors): good lists the input index of each
    matrix row, errors the (index, message) pairs of rejected rows, both in
    input order.  Shape and width are checked per row; the box and
    finiteness checks run once over the stacked well-shaped rows.
    """
    n = spec.total_dim
    errors: list[tuple[int, str]] = []
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] == n:
        matrix = np.ascontiguousarray(rows, dtype=float)
        good = list(range(matrix.shape[0]))
    else:
        shaped = []
        good = []
        for i, row in enumerate(rows):
            x = np.atleast_1d(np.asarray(row, dtype=float))
            if x.ndim != 1:
                errors.append((i, f"expected a flat decision vector, got shape {x.shape}"))
            elif x.shape[0] != n:
                errors.append((i, f"decision vector has {x.shape[0]} coordinates, expected {n}"))
            else:
                shaped.append(x)
                good.append(i)
        matrix = np.stack(shaped) if shaped else np.empty((0, n))
    r = spec.position_dim
    bad = ~np.isfinite(matrix)
    bad[:, :r] |= (matrix[:, :r] < -1.0) | (matrix[:, :r] > 1.0)
    bad[:, r:] |= (matrix[:, r:] < 0.0) | (matrix[:, r:] > 1.0)
    rejected = np.flatnonzero(bad.any(axis=1))
    if rejected.size == 0:
        return matrix, good, errors
    for row, col in zip(rejected.tolist(), np.argmax(bad[rejected], axis=1).tolist()):
        lo, hi = (-1.0, 1.0) if col < r else (0.0, 1.0)
        errors.append((good[row], f"coordinate {col + 1} is {float(matrix[row, col]):g}, "
                                  f"outside [{lo:g}, {hi:g}]"))
    errors.sort()
    keep = np.ones(len(good), dtype=bool)
    keep[rejected] = False
    return matrix[keep], [i for i, k in zip(good, keep.tolist()) if k], errors


def _pipeline(x: np.ndarray, spec: ProblemSpec) -> EvaluationArrays:
    """Evaluate a validated (B, N) matrix; every reduction is row-local."""
    r = spec.position_dim
    x_d = x[:, r:]
    f_p = position_objectives(x[:, :r], spec)
    phi = normalized_angle(f_p, spec.distance_reference)
    if spec.g_landscape == "deceptive":
        g = deceptive_g(x_d, phi, spec.valleys_k)
    else:
        g = robust_g(x_d)
    f_d = radial_profile(g, phi, spec.distance_kind, spec.composition)
    f = compose(f_p, f_d, spec.composition)
    if spec.dissimilar:
        f = dissimilarize(f)
    phis, viol = constraint_table(f_p, spec.constraints)
    return EvaluationArrays(
        objectives=f, position_point=f_p, distance_value=f_d, distance_phi=phi,
        phi_per_constraint=phis, violations=viol,
        nearest_axis_of_point=np.argmax(f_p, axis=-1) + 1,
        feasible=np.all(viol == 0.0, axis=-1))


def _evaluations(a: EvaluationArrays) -> list[Evaluation]:
    # tolist() yields the same Python floats as float() per element.
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


def evaluate_arrays(rows, spec: ProblemSpec) -> EvaluationArrays:
    """Evaluate many decision vectors into one array per result field.

    rows is a (B, N) array or any sequence of rows.  Row validation and the
    BatchError contract are those of evaluate_batch: when any row is
    rejected, every valid row is still evaluated and a BatchError carrying
    per-row diagnostics plus the partial Evaluation results is raised.  An
    empty batch gives arrays with zero rows.
    """
    matrix, good, errors = _validate(rows, spec)
    arrays = _pipeline(matrix, spec)
    if errors:
        results: list[Evaluation | None] = [None] * (len(good) + len(errors))
        for i, ev in zip(good, _evaluations(arrays)):
            results[i] = ev
        raise BatchError(errors, results)
    return arrays


def evaluate(x, spec: ProblemSpec) -> Evaluation:
    """Evaluate one decision vector.

    Raises ValueError on a dimension mismatch or any coordinate outside its
    box ([-1, 1] for the position part, [0, 1] for the distance part); the
    offending coordinate index is named.  No clamping, no repair.
    """
    try:
        arrays = evaluate_arrays([x], spec)
    except BatchError as err:
        raise ValueError(err.row_errors[0][1]) from None
    return _evaluations(arrays)[0]


def evaluate_batch(rows, spec: ProblemSpec) -> list[Evaluation]:
    """Evaluate many decision vectors, preserving input order.

    Rows that fail validation do not stop the batch: every valid row is still
    evaluated, and a BatchError carrying per-row diagnostics plus the partial
    results is raised at the end.  An empty batch returns an empty list.
    """
    return _evaluations(evaluate_arrays(rows, spec))
