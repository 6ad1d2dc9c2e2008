"""The paper's guarantees as properties over generated instances.

Position points lie on the unit p-norm surface up to M = 40 and at the
limiting overlap window q = 2t + 2, Pareto-set rows of deceptive landscapes
sit exactly in their valleys (g == 0), the Pareto set of every landscape,
composition and constraint set evaluates onto the sampled front up to
rounding, the sampled front holds no dominated point, dissimilar or not, and
a point set is at IGD zero from itself.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_array_pipeline import specs

from gpdbench import (ProblemSpec, dominance_mask, evaluate_arrays,
                      front_sample, igd, pareto_set_sample)
from gpdbench.distance import deceptive_g
from gpdbench.position import p_norm


@st.composite
def wide_position_specs(draw):
    """Specs with M up to 40, meta-variables off or q = 2t + 2 + extra."""
    t = draw(st.integers(0, 3))
    q = 2 * t + 2 + draw(st.sampled_from([0, 0, 1, 3]))  # 0 is the limiting window
    if draw(st.booleans()):
        q, t = 1, 0
    return ProblemSpec(objectives=draw(st.integers(2, 40)), distance_vars=1,
                       distance_kind="robust", meta_q=q, meta_t=t,
                       norm_p=draw(st.sampled_from(["auto", 0.25, 0.5, 1.0, 2.0,
                                                    3.5, 50.0])))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=wide_position_specs(), seed=st.integers(0, 2 ** 32 - 1))
def test_position_points_lie_on_the_unit_p_norm_surface(spec, seed):
    rng = np.random.default_rng(seed)
    r = spec.position_dim
    x = np.concatenate([rng.uniform(-1.0, 1.0, (16, r)), rng.uniform(0.0, 1.0, (16, 1))],
                       axis=1)
    x[:4, :r] = rng.choice([-1.0, 0.0, 1.0], size=(4, r))  # box edges and centre
    f_p = evaluate_arrays(x, spec).position_point
    assert f_p.shape == (16, spec.objectives) and np.all(f_p >= 0.0)
    np.testing.assert_allclose(p_norm(f_p, spec.norm_p), 1.0, rtol=1e-12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs().filter(lambda s: s.g_landscape == "deceptive"),
       n=st.integers(1, 40))
def test_pareto_set_rows_of_deceptive_landscapes_have_zero_g(spec, n):
    vectors = pareto_set_sample(spec, n).vectors
    phi = evaluate_arrays(vectors, spec).distance_phi
    g = deceptive_g(vectors[:, spec.position_dim:], phi, spec.valleys_k)
    assert np.all(g == 0.0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs().filter(lambda s: s.objectives <= 4), res=st.integers(2, 9))
def test_pareto_set_evaluates_onto_the_front(spec, res):
    front = front_sample(spec, res)
    assert dominance_mask(front.points).all()
    if front.points.shape[0] == 0:  # every front point violates a constraint
        return
    # n = res**(M-1) targets start with the front's own lattice
    ss = pareto_set_sample(spec, res ** (spec.objectives - 1))
    objectives = evaluate_arrays(ss.vectors, spec).objectives
    # A meta-variable residual r moves a position point by O(r) for p >= 1, but
    # by O(r**p) beside an axis for p < 1, where the p-norm is not Lipschitz.
    slack = (np.pi * spec.objectives * ss.residuals.max()) ** min(spec.norm_p, 1.0)
    assert igd(objectives, front) <= (1e-12 + slack) * np.abs(front.points).max()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), rows=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_igd_of_a_point_set_to_itself_is_zero(spec, rows, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-1.0, 1.0, (rows, spec.position_dim)),
                        rng.uniform(0.0, 1.0, (rows, spec.distance_vars))], axis=1)
    objectives = evaluate_arrays(x, spec).objectives
    objectives[rows // 2:] = objectives[:rows - rows // 2]  # duplicate rows
    assert igd(objectives, objectives) == 0.0
