"""End-to-end evaluation of decision vectors against a problem instance.

Pipeline order is fixed: meta-variables, position stage (spherical map,
p-norm scaling, normalized angle), the landscape's auxiliary distance g,
objective stage (radial profile, composition, optional dissimilarity),
constraint report.  The angle and the constraints use the position point.

Every evaluation goes through ``evaluate_arrays``, which validates a whole
batch at once and returns one array per result field.  ``evaluate`` and
``evaluate_batch`` only pack those arrays into per-row ``Evaluation``
objects; a single evaluation runs the batch kernel on one row, so the two
paths are bit-identical by construction.  ``perturb_experiment`` runs g and
the objective stage on samples sharing one position part; the reference
samplers run the position stage (the Pareto set on deceptive landscapes
only), and the front the objective stage at g*.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._rows import real_array, row_all
from .constraints import ConstraintReport, constraint_table
from .distance import (compose, deceptive_g, normalized_angle, radial_profile,
                       robust_g)
from .position import dissimilarize, meta_variables, position_point
from .spec import ProblemSpec


@dataclass(frozen=True, slots=True)
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
    feasible               (B,) True iff every violation is exactly zero
    """

    objectives: np.ndarray
    position_point: np.ndarray
    distance_value: np.ndarray
    distance_phi: np.ndarray
    phi_per_constraint: np.ndarray
    violations: np.ndarray
    feasible: np.ndarray


class BatchError(ValueError):
    """One or more batch rows were rejected.

    row_errors holds (index, message) pairs in input order with 0-based
    indices; results holds an Evaluation per good row and None per bad row,
    because the contract is to keep evaluating past the first failure.  The
    results argument is an iterable of those, or a function that returns
    their list when results is first read: the batch functions hand over
    one that evaluates and packs the good rows then, so a caller that reads
    only row_errors pays for neither.  A read that raises can be repeated.
    """

    def __init__(self, row_errors, results):
        self.row_errors = list(row_errors)
        self._results = results if callable(results) else list(results)
        index, message = self.row_errors[0]
        extra = len(self.row_errors) - 1
        tail = f" (and {extra} more rejected rows)" if extra else ""
        super().__init__(f"row {index}: {message}{tail}")

    @functools.cached_property
    def results(self) -> list:
        return self._results() if callable(self._results) else self._results

    def __reduce__(self):  # pickle and copy the packed results, not the function
        return type(self), (self.row_errors, self.results)


@functools.lru_cache(maxsize=16)
def _box_low(r: int, n: int) -> np.ndarray:
    """Lower box bounds of an n-coordinate row with r position coordinates."""
    lo = np.repeat([-1.0, 0.0], [r, n - r])
    lo.flags.writeable = False
    return lo


def _validate(rows, spec: ProblemSpec):
    """Split rows into a stacked (G, N) matrix of good rows and diagnostics.

    Returns (matrix, good, errors): good lists the input index of each
    matrix row, errors the (index, message) pairs of rejected rows, both in
    input order.  Any rows that np.asarray turns into a (B, N) real array
    (an array of any layout or real numeric dtype, or a list, tuple, deque
    or other sequence of equal-width flat rows) are taken whole; anything
    else (a generator, ragged, nested or wrong-width rows, or a row that
    real_array rejects) is checked row by row.
    The box rule lo <= x <= 1, with lo = -1 on the position part and 0 on
    the distance part, then runs once over the stacked well-shaped rows; NaN
    and +-inf fail it.
    """
    n, r = spec.total_dim, spec.position_dim
    errors: list[tuple[int, str]] = []
    try:
        matrix = real_array(rows)
    except (ValueError, TypeError, OverflowError):
        matrix = None
    if matrix is not None and matrix.ndim == 2 and matrix.shape[1] == n:
        matrix = np.ascontiguousarray(matrix)
        good = range(matrix.shape[0])
    else:
        shaped = []
        good = []
        for i, row in enumerate(rows):
            try:
                x = np.atleast_1d(real_array(row))
            except (ValueError, TypeError, OverflowError):
                # numpy's own text for these differs between its versions.
                errors.append((i, "cannot read the decision vector as real numbers"))
                continue
            if x.ndim != 1:
                errors.append((i, f"expected a flat decision vector, got shape {x.shape}"))
            elif x.shape[0] != n:
                errors.append((i, f"decision vector has {x.shape[0]} coordinates, expected {n}"))
            else:
                shaped.append(x)
                good.append(i)
        matrix = np.stack(shaped) if shaped else np.empty((0, n))
    lo = _box_low(r, n)
    inside = (lo <= matrix) & (matrix <= 1.0)
    if inside.all():
        return matrix, good, errors
    rejected = np.flatnonzero(~inside.all(axis=1))
    for row, col in zip(rejected.tolist(), np.argmin(inside[rejected], axis=1).tolist()):
        errors.append((good[row], f"coordinate {col + 1} is {float(matrix[row, col]):g}, "
                                  f"outside [{lo[col]:g}, 1]"))
    errors.sort()
    keep = np.ones(len(good), dtype=bool)
    keep[rejected] = False
    return matrix[keep], [i for i, k in zip(good, keep.tolist()) if k], errors


def _position_stage(y: np.ndarray, spec: ProblemSpec
                    ) -> tuple[np.ndarray, np.ndarray]:
    """F_p and its normalized angle phi for meta-variables y (B, M-1).

    The one map from meta-variables to the front; the evaluator runs it on
    the meta-variables of decision vectors, the reference samplers on chosen
    targets.
    """
    f_p = position_point(y, spec.norm_p)
    return f_p, normalized_angle(f_p, spec.distance_reference)


def _landscape_g(x_d: np.ndarray, phi: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """The auxiliary distance g of distance parts x_d (B, S) at angles phi."""
    if spec.g_landscape == "deceptive":
        return deceptive_g(x_d, phi, spec.valleys_k)
    return robust_g(x_d)


def _objective_stage(g: np.ndarray, f_p: np.ndarray, phi: np.ndarray,
                     spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """F_d and the final objectives: radial profile, composition, dissimilarity.

    The evaluator and the reference front share it; f_p (B, M) may be a
    broadcast view of one position point.
    """
    f_d = radial_profile(g, phi, spec.distance_kind, spec.composition)
    f = compose(f_p, f_d, spec.composition)
    if spec.dissimilar:
        f = dissimilarize(f)
    return f_d, f


def _pipeline(x: np.ndarray, spec: ProblemSpec) -> EvaluationArrays:
    """Evaluate a validated (B, N) matrix; every reduction is row-local."""
    r = spec.position_dim
    y = meta_variables(x[:, :r], spec.meta_q, spec.meta_t)
    f_p, phi = _position_stage(y, spec)
    f_d, f = _objective_stage(_landscape_g(x[:, r:], phi, spec), f_p, phi, spec)
    phis, viol = constraint_table(f_p, spec.constraints)
    return EvaluationArrays(
        objectives=f, position_point=f_p, distance_value=f_d, distance_phi=phi,
        phi_per_constraint=phis, violations=viol, feasible=row_all(viol == 0.0))


def _row_tuples(col: np.ndarray):
    """Row tuples of a (B, K) array, built from its K column lists.

    tolist() yields the same Python floats as float() per element.
    """
    if col.shape[1] == 0:
        return repeat((), col.shape[0])
    return zip(*col.T.tolist())


def _packed(cls, n: int, *columns) -> list:
    """n instances of the frozen slotted dataclass cls, one field per column.

    Each slot is filled through its descriptor, column by column; the
    generated __init__ goes through the frozen __setattr__ per field, which
    costs about twice as much.
    """
    rows = list(map(object.__new__, repeat(cls, n)))
    for name, column in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, rows, column), maxlen=0)
    return rows


# The report of every row without constraints; reports are frozen, so rows
# share it.  Reports are not memoised on their values in general: a tuple key
# equates -0.0 with 0.0.
_UNCONSTRAINED = ConstraintReport((), True)


def _evaluations(a: EvaluationArrays) -> list[Evaluation]:
    n = a.objectives.shape[0]
    if a.violations.shape[1] == 0:
        reports = repeat(_UNCONSTRAINED, n)
    else:
        reports = _packed(ConstraintReport, n, _row_tuples(a.violations),
                          a.feasible.tolist())
    return _packed(Evaluation, n, _row_tuples(a.objectives),
                   _row_tuples(a.position_point), a.distance_value.tolist(),
                   a.distance_phi.tolist(), _row_tuples(a.phi_per_constraint),
                   reports)


def evaluate_arrays(rows, spec: ProblemSpec) -> EvaluationArrays:
    """Evaluate many decision vectors into one array per result field.

    rows is a (B, N) array or any sequence of rows.  Row validation and the
    BatchError contract are those of evaluate_batch: when any row is
    rejected, a BatchError carrying per-row diagnostics plus the partial
    Evaluation results is raised.  An empty batch gives arrays with zero rows.
    """
    matrix, good, errors = _validate(rows, spec)
    if errors:
        raise BatchError(errors, functools.partial(_placed, matrix, good,
                                                   len(good) + len(errors), spec))
    return _pipeline(matrix, spec)


def _placed(matrix: np.ndarray, good, n: int, spec: ProblemSpec) -> list:
    """The n results of a rejected batch, None at each row not in good."""
    results: list[Evaluation | None] = [None] * n
    for i, ev in zip(good, _evaluations(_pipeline(matrix, spec))):
        results[i] = ev
    return results


def evaluate(x, spec: ProblemSpec) -> Evaluation:
    """Evaluate one decision vector.

    Raises ValueError on a value float() cannot read, a dimension mismatch
    or any coordinate outside its box ([-1, 1] for the position part,
    [0, 1] for the distance part); the offending coordinate index is named.
    No clamping, no repair.
    """
    try:
        arrays = evaluate_arrays([x], spec)
    except BatchError as err:
        raise ValueError(err.row_errors[0][1]) from None
    return _evaluations(arrays)[0]


def evaluate_batch(rows, spec: ProblemSpec) -> list[Evaluation]:
    """Evaluate many decision vectors, preserving input order.

    Rows that fail validation do not stop the batch: a BatchError carrying
    per-row diagnostics plus the results of every valid row is raised at the
    end, and those rows are evaluated when its results are first read.  An
    empty batch returns an empty list.

    Packing rows into Evaluation objects is much of the cost, garbage
    collection included, so bulk callers should use evaluate_arrays, which
    returns the same numbers as arrays.
    """
    return _evaluations(evaluate_arrays(rows, spec))
