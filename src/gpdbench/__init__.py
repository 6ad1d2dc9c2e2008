"""Scalable position-distance benchmark problems with known Pareto sets.

Decision vectors split into a position part that selects a point on a
tunable p-norm front surface and a distance part that controls convergence
through deceptive or robustness-testing landscapes.  Angular constraints
carve regions out of the front.  Reference fronts and Pareto-set samples are
available analytically, so quality indicators need no baseline runs.
"""

from .constraints import (ConstraintReport, axis_angles, constraint_table,
                          evaluate_constraints, nearest_axis)
from .distance import (ROBUST_MINIMIZER, ROBUST_STABLE_RANGE,
                       angle_to_reference, compose, deceptive_g,
                       deceptive_term, max_first_orthant_angle,
                       normalized_angle, radial_profile, robust_g,
                       robust_term, valley_center, valley_radius)
from .evaluator import (BatchError, Evaluation, EvaluationArrays, evaluate,
                        evaluate_arrays, evaluate_batch)
from .position import (dissimilarize, meta_variables, p_norm,
                       position_objectives, position_point, realize_position,
                       spherical_map)
from .reference import (FrontSample, PerturbReport, SetSample,
                        dominance_filter, dominance_mask, front_sample, igd,
                        pareto_set_sample, perturb_experiment)
from .spec import (COMPOSITIONS, CONSTRAINT_KINDS, DISTANCE_KINDS,
                   MIXED_LANDSCAPES, ConstraintSpec, ProblemSpec, SpecError,
                   generate_suite, parse_ranges, parse_spec, render_spec,
                   suggested_norm, validate)

__version__ = "0.1.0"

__all__ = [
    "COMPOSITIONS",
    "CONSTRAINT_KINDS",
    "DISTANCE_KINDS",
    "MIXED_LANDSCAPES",
    "ROBUST_MINIMIZER",
    "ROBUST_STABLE_RANGE",
    "BatchError",
    "ConstraintReport",
    "ConstraintSpec",
    "Evaluation",
    "EvaluationArrays",
    "FrontSample",
    "PerturbReport",
    "ProblemSpec",
    "SetSample",
    "SpecError",
    "angle_to_reference",
    "axis_angles",
    "compose",
    "constraint_table",
    "deceptive_g",
    "deceptive_term",
    "dissimilarize",
    "dominance_filter",
    "dominance_mask",
    "evaluate",
    "evaluate_arrays",
    "evaluate_batch",
    "evaluate_constraints",
    "front_sample",
    "generate_suite",
    "igd",
    "max_first_orthant_angle",
    "meta_variables",
    "nearest_axis",
    "normalized_angle",
    "p_norm",
    "pareto_set_sample",
    "parse_ranges",
    "parse_spec",
    "perturb_experiment",
    "position_objectives",
    "position_point",
    "radial_profile",
    "realize_position",
    "render_spec",
    "robust_g",
    "robust_term",
    "spherical_map",
    "suggested_norm",
    "valley_center",
    "valley_radius",
    "validate",
    "__version__",
]