"""Angular constraints on the position point.

Constraints act on the pre-dissimilarity position point F_p, never on the
composed objectives, so feasibility depends only on where a solution sits on
the front, not on its distance from it.  Violations are continuous magnitudes
(0 means satisfied) so selection schemes can rank infeasible solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import normalized_angle


@dataclass(frozen=True)
class ConstraintReport:
    """Violation magnitudes for one evaluated point.

    violations              one nonnegative real per constraint, input order
    feasible                True iff every violation is exactly zero
    nearest_axis_of_point   1-based canonical axis closest in angle (ties go
                            to the smallest index)
    """

    violations: tuple[float, ...]
    feasible: bool
    nearest_axis_of_point: int


def nearest_axis(f: np.ndarray):
    """1-based index of the axis with the smallest angle to f.

    The smallest angle belongs to the largest component; ties break to the
    smallest index.  Returns an int for a single point, an int array for a
    stack of points.
    """
    f = np.asarray(f, dtype=float)
    if np.any(np.all(f == 0.0, axis=-1)):
        raise ValueError("nearest axis of a zero vector is undefined")
    idx = np.argmax(f, axis=-1) + 1
    return int(idx) if np.ndim(idx) == 0 else idx


def constraint_table(f_p: np.ndarray, constraints) -> tuple[np.ndarray, np.ndarray]:
    """Angles and violations for every constraint, vectorized over points.

    Returns (phis, violations), each shaped (..., C) for f_p shaped (..., M).
    Angle constraints report the normalized angle to their own reference;
    nearest_axis constraints report the normalized angle to the required
    axis.  Violation rules: min_angle max(0, A - phi); max_angle
    max(0, phi - A); band max(0, A - phi) + max(0, phi - B); nearest_axis 0
    when the required axis is the closest one, else the raw angular gap to
    the closest (continuous, zero exactly on the feasible set).
    """
    f_p = np.asarray(f_p, dtype=float)
    lead = f_p.shape[:-1]
    m = f_p.shape[-1]
    phis = np.zeros(lead + (len(constraints),), dtype=float)
    viol = np.zeros(lead + (len(constraints),), dtype=float)
    for col, con in enumerate(constraints):
        if con.kind == "nearest_axis":
            axis = np.zeros(m)
            axis[con.axis_j - 1] = 1.0
            phis[..., col] = normalized_angle(f_p, axis)
            # arccos is decreasing, so the largest cosine is the smallest angle.
            norm = np.sqrt(np.sum(f_p * f_p, axis=-1))
            cos = np.clip(f_p / norm[..., None], -1.0, 1.0)
            gap = np.arccos(cos[..., con.axis_j - 1]) - np.arccos(cos.max(axis=-1))
            viol[..., col] = np.where(nearest_axis(f_p) == con.axis_j, 0.0, gap)
            continue
        phi = normalized_angle(f_p, con.reference)
        phis[..., col] = phi
        if con.kind == "min_angle":
            viol[..., col] = np.maximum(0.0, con.threshold_a - phi)
        elif con.kind == "max_angle":
            viol[..., col] = np.maximum(0.0, phi - con.threshold_a)
        elif con.kind == "band":
            viol[..., col] = (np.maximum(0.0, con.threshold_a - phi)
                              + np.maximum(0.0, phi - con.threshold_b))
        else:
            raise ValueError(f"unknown constraint kind: {con.kind!r}")
    return phis, viol


def evaluate_constraints(f_p: np.ndarray, constraints) -> ConstraintReport:
    """Constraint report for a single position point."""
    f_p = np.asarray(f_p, dtype=float)
    if f_p.ndim != 1:
        raise ValueError("evaluate_constraints takes a single point")
    _, viol = constraint_table(f_p, constraints)
    violations = tuple(float(v) for v in viol)
    return ConstraintReport(
        violations=violations,
        feasible=all(v == 0.0 for v in violations),
        nearest_axis_of_point=nearest_axis(f_p),
    )