"""Angular constraints on the position point.

Constraints act on the pre-dissimilarity position point F_p, never on the
composed objectives, so feasibility depends only on where a solution sits on
the front, not on its distance from it.  Violations are continuous magnitudes
(0 means satisfied) so selection schemes can rank infeasible solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import real_array, row_max
from .distance import _normalized_angle, _scaled_rows


@dataclass(frozen=True, slots=True)
class ConstraintReport:
    """Violation magnitudes for one evaluated point.

    violations  one nonnegative real per constraint, input order
    feasible    True iff every violation is exactly zero
    """

    violations: tuple[float, ...]
    feasible: bool


def constraint_table(f_p: np.ndarray, constraints) -> tuple[np.ndarray, np.ndarray]:
    """Angles and violations for every constraint, vectorized over points.

    Returns (phis, violations), each shaped (..., C) for f_p shaped (..., M).
    Angle constraints report the normalized angle to their own reference;
    nearest_axis constraints report the normalized angle to the required
    axis.  Violation rules: min_angle max(0, A - phi); max_angle
    max(0, phi - A); band max(0, A - phi) + max(0, phi - B); nearest_axis the
    angular gap from the required axis to the closest (0 exactly on the feasible set).
    """
    f_p = real_array(f_p)
    shape = f_p.shape[:-1] + (len(constraints),)
    phis = np.zeros(shape, dtype=float)
    viol = np.zeros(shape, dtype=float)
    if not constraints:
        return phis, viol
    f, sq = _scaled_rows(f_p)
    fn = np.sqrt(sq)
    for col, con in enumerate(constraints):
        if con.kind == "nearest_axis":
            axis = np.zeros(f_p.shape[-1])
            axis[con.axis_j - 1] = 1.0
            phis[..., col] = _normalized_angle(f, fn, axis)
            # arccos is decreasing and scaling keeps ties: a nearest axis_j has gap +0.0.
            cos = f / fn[..., None]
            cos = np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos)
            viol[..., col] = (np.arccos(cos[..., con.axis_j - 1])
                              - np.arccos(row_max(cos)))
            continue
        phi = _normalized_angle(f, fn, con.reference)
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

