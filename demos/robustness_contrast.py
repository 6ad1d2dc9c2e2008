"""
The sharp optimum that evaporates under noise
=============================================

The robust landscape has a global minimizer at the bottom of a needle
and a gently sloped plateau that is nominally a little worse.  Under
implementation noise on the distance variables the ranking flips; this
script measures that flip across noise radii.
"""

import os

import numpy as np

from gpdbench import (ROBUST_MINIMIZER, ROBUST_STABLE_RANGE, ProblemSpec,
                      evaluate, perturb_experiment)
from gpdbench.distance import robust_term

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT, exist_ok=True)

spec = ProblemSpec(objectives=2, distance_vars=2, distance_kind="robust")

# nominal quality first: the needle point genuinely wins without noise
needle = np.array([0.3, ROBUST_MINIMIZER, ROBUST_MINIMIZER])
plateau = np.array([0.3, 0.2, 0.2])
print("nominal objective vectors (no noise):")
print("  needle :", [f"{v:.6f}" for v in evaluate(needle, spec).objectives])
print("  plateau:", [f"{v:.6f}" for v in evaluate(plateau, spec).objectives])
print(f"  per-term values: needle {robust_term(ROBUST_MINIMIZER):.2e}, "
      f"plateau {robust_term(0.2):.4f}")

# now perturb the distance variables and watch the needle collapse
rows = []
print("\nworst objective displacement under uniform noise (500 samples):")
print(f"  {'radius':>8s} {'needle':>12s} {'plateau':>12s} {'ratio':>8s}")
for radius in (0.01, 0.02, 0.05, 0.1, 0.2):
    a = perturb_experiment(needle, radius, 500, spec, seed=11)
    b = perturb_experiment(plateau, radius, 500, spec, seed=11)
    rows.append([radius, a.worst, b.worst])
    print(f"  {radius:8.2f} {a.worst:12.4e} {b.worst:12.4e} "
          f"{a.worst / b.worst:8.0f}x")

path = os.path.join(OUT, "robustness_contrast.csv")
np.savetxt(path, np.array(rows), delimiter=",",
           header="radius,needle_worst,plateau_worst", fmt="%.17g")
print(f"\nwrote table -> {path}")

lo, hi = ROBUST_STABLE_RANGE
print(f"takeaway: any distance value inside [{lo}, {hi}] keeps the "
      "objectives nearly unchanged, while the needle optimum is only safe "
      "when the implementation is exact")
