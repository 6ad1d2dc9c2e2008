"""The package namespace holds the workflow names; stage kernels and spec
tables are imported from their own modules."""

import importlib

import pytest

import gpdbench

WORKFLOW = {
    # specs
    "ProblemSpec", "ConstraintSpec", "SpecError", "parse_spec", "render_spec",
    "parse_ranges", "generate_suite",
    # evaluation
    "evaluate", "evaluate_batch", "evaluate_arrays", "Evaluation", "EvaluationArrays",
    "BatchError", "ConstraintReport", "evaluate_constraints",
    # known solutions
    "front_sample", "FrontSample", "pareto_set_sample", "SetSample", "realize_position",
    "dominance_filter", "dominance_mask", "igd", "perturb_experiment", "PerturbReport",
    "ROBUST_MINIMIZER", "ROBUST_STABLE_RANGE",
    "__version__",
}

MODULE_ONLY = {
    "position": ("dissimilarize", "meta_variables", "p_norm", "position_point",
                 "spherical_map"),
    "distance": ("compose", "deceptive_g", "deceptive_term", "normalized_angle",
                 "radial_profile", "robust_g", "robust_term", "valley_center",
                 "valley_radius"),
    "constraints": ("constraint_table", "nearest_axis"),
    "spec": ("COMPOSITIONS", "CONSTRAINT_KINDS", "DISTANCE_KINDS", "MIXED_LANDSCAPES"),
}


def test_package_exports_the_workflow_names():
    assert len(WORKFLOW) == 28
    assert set(gpdbench.__all__) == WORKFLOW
    assert len(gpdbench.__all__) == len(WORKFLOW)
    for name in WORKFLOW:
        assert getattr(gpdbench, name) is not None


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_stage_kernels_and_tables_live_in_their_modules(module):
    home = importlib.import_module(f"gpdbench.{module}")
    for name in MODULE_ONLY[module]:
        assert not hasattr(gpdbench, name), name
        assert name in vars(home), name
