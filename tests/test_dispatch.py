"""What holds under two numpy dispatches of the same build.

numpy picks a SIMD kernel for exp, arccos, power, cos, sin and log from the
CPU's features, and kernels for different features may round differently,
so objectives need not keep their bits from one feature set to another.
The guarantees checked here are exact under any dispatch: a deceptive
Pareto-set row has g == 0, the robust term at ROBUST_MINIMIZER keeps its
pinned value, evaluate equals evaluate_batch row for row in one process,
and the row helpers, on either side of their row threshold, give numpy's
own bits for sums, maxima and accumulations in that process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpdbench

# Switches off numpy's AVX-512 kernels, under their feature names and the
# X86_V4 group name; an environment variable of the child process only.
AVX2_ONLY = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}

CHECK = r"""
import json
import numpy as np
from gpdbench import (ConstraintSpec, ProblemSpec, ROBUST_MINIMIZER, evaluate,
                      evaluate_arrays, evaluate_batch, pareto_set_sample)
from gpdbench import _rows
from gpdbench.distance import deceptive_g, robust_term
try:
    from numpy.lib.introspect import opt_func_info
    dispatch = {name: {sig: info["current"] for sig, info in sigs.items()}
                for name, sigs in opt_func_info(
                    func_name="^(exp|arccos|power|cos|sin|log)$",
                    signature="float64").items()}
except ImportError:  # numpy < 2.0 cannot say which kernels it picked
    dispatch = None
deceptive = ProblemSpec(objectives=3, distance_vars=6, distance_kind="deceptive",
                        meta_q=4, meta_t=1, constraints=(
                            ConstraintSpec(kind="nearest_axis", axis_j=2),))
robust = ProblemSpec(objectives=5, distance_vars=4, distance_kind="robust",
                     dissimilar=True, constraints=(
                         ConstraintSpec(kind="band", reference="diagonal",
                                        threshold_a=0.2, threshold_b=0.8),))
pset = pareto_set_sample(deceptive, 40).vectors
phi = evaluate_arrays(pset, deceptive).distance_phi
g = deceptive_g(pset[:, deceptive.position_dim:], phi, deceptive.valleys_k)
rng = np.random.default_rng(7)
rowwise = True
for spec in (deceptive, robust):
    lo = np.r_[-np.ones(spec.position_dim), np.zeros(spec.distance_vars)]
    rows = np.vstack([pareto_set_sample(spec, 8).vectors,
                      rng.uniform(lo, 1.0, size=(8, spec.total_dim))])
    batch = evaluate_batch(rows, spec)
    rowwise &= [repr(evaluate(row, spec)) for row in rows] == list(map(repr, batch))
helpers = True
np.seterr(all="ignore")  # products of 19 factors of up to 1e20 overflow
for w in range(1, 20):
    for n in (_rows.COLUMN_ROWS - 1, _rows.COLUMN_ROWS):
        x = rng.standard_normal((n, w)) * 10.0 ** rng.uniform(-20, 20, size=(n, w))
        x[rng.random((n, w)) < 0.3 / w] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e300])
        helpers &= _rows.row_sum(x).tobytes() == np.add.reduce(x, axis=-1).tobytes()
        helpers &= _rows.row_max(x).tobytes() == np.maximum.reduce(x, axis=-1).tobytes()
        for ufunc in (np.add, np.multiply):
            got = _rows.row_accumulate(ufunc, x, np.empty_like(x))
            helpers &= got.tobytes() == ufunc.accumulate(x, axis=-1).tobytes()
print(json.dumps({"dispatch": dispatch, "pareto_g_zero": bool((g == 0.0).all()),
                  "robust_at_minimizer": float(robust_term(ROBUST_MINIMIZER)),
                  "rowwise": rowwise, "helpers": helpers}))
"""


def run_check(extra_env):
    src = str(Path(gpdbench.__file__).resolve().parents[1])
    env = dict(os.environ, **extra_env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_guarantees_hold_under_the_default_and_the_avx2_dispatch():
    runs = [run_check({}), run_check(AVX2_ONLY)]
    assert all(run["helpers"] for run in runs)
    if runs[0]["dispatch"] is None:
        pytest.skip("numpy before 2.0 cannot report which kernels it dispatches")
    if runs[0]["dispatch"] == runs[1]["dispatch"]:
        pytest.skip("NPY_DISABLE_CPU_FEATURES changes no dispatch here (no AVX-512 kernels)")
    for run in runs:
        assert run["pareto_g_zero"]
        assert run["robust_at_minimizer"] == pytest.approx(1.8968668548580148e-4, rel=1e-12)
        assert run["rowwise"]
