"""
Carving fronts with angular constraints
=======================================

Constraints here act on the direction of the position point, not its
coordinates: keep-away cones around axes, cones around arbitrary
references, bands of allowed angle, and a nearest-axis membership rule.
"""

import dataclasses
import os

import numpy as np

from gpdbench import ConstraintSpec, ProblemSpec, front_sample
from gpdbench.constraints import constraint_table

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT, exist_ok=True)


def carve(label, *constraints):
    spec = ProblemSpec(objectives=3, distance_vars=2, distance_kind="robust",
                       norm_p=2.0, constraints=tuple(constraints))
    full = front_sample(dataclasses.replace(spec, constraints=()), 30)
    kept = front_sample(spec, 30)
    print(f"  {label:24s} kept {kept.points.shape[0]:3d}/"
          f"{full.points.shape[0]} grid points")
    path = os.path.join(OUT, f"front_{label}.csv")
    np.savetxt(path, kept.points, delimiter=",", header="f1,f2,f3",
               fmt="%.17g")
    return spec


print("constraint gallery on a 30x30 spherical front:")

# 1. keep-away cones around each axis leave the central bowl
spec = carve("axis_keepaway",
             *(ConstraintSpec(kind="min_angle", reference=f"e{j}",
                              threshold_a=0.5) for j in (1, 2, 3)))
# a single point is feasible iff every violation is exactly 0
_, pole = constraint_table(np.eye(3)[0], spec.constraints)
_, diag = constraint_table(np.ones(3) / np.sqrt(3.0), spec.constraints)
print("    axis pole feasible:", bool((pole == 0.0).all()),
      "| diagonal feasible:", bool((diag == 0.0).all()))

# 2. a band around the diagonal keeps a ring
carve("diagonal_band",
      ConstraintSpec(kind="band", reference="diagonal",
                     threshold_a=0.3, threshold_b=0.7))

# 3. cone toward a lopsided reference
carve("lopsided_cone",
      ConstraintSpec(kind="max_angle", reference=(2.0, 1.0, 0.5),
                     threshold_a=0.45))

# 4. nearest-axis membership keeps one face of the front
carve("first_axis_territory",
      ConstraintSpec(kind="nearest_axis", axis_j=1))

print("csv files are in", OUT)
