"""Scalable position-distance benchmark problems with known Pareto sets.

Decision vectors split into a position part that selects a point on a
tunable p-norm front surface and a distance part that controls convergence
through deceptive or robustness-testing landscapes.  Angular constraints
carve regions out of the front.  Reference fronts and Pareto-set samples are
available analytically, so quality indicators need no baseline runs.
"""

from .constraints import ConstraintReport
from .distance import ROBUST_MINIMIZER, ROBUST_STABLE_RANGE
from .evaluator import (BatchError, Evaluation, EvaluationArrays, evaluate,
                        evaluate_arrays, evaluate_batch)
from .position import realize_position
from .reference import (FrontSample, PerturbReport, SetSample,
                        dominance_filter, dominance_mask, front_sample, igd,
                        pareto_set_sample, perturb_experiment)
from .spec import (ConstraintSpec, ProblemSpec, SpecError, generate_suite,
                   parse_ranges, parse_spec, render_spec)

__version__ = "0.1.0"

__all__ = [
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
    "dominance_filter",
    "dominance_mask",
    "evaluate",
    "evaluate_arrays",
    "evaluate_batch",
    "front_sample",
    "generate_suite",
    "igd",
    "pareto_set_sample",
    "parse_ranges",
    "parse_spec",
    "perturb_experiment",
    "realize_position",
    "render_spec",
    "__version__",
]
