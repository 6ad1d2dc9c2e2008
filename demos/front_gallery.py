"""
A gallery of Pareto fronts under different norms and landscapes
===============================================================

Walks one three-objective instance through every front geometry the
library offers and writes each sampled front to a CSV next to this
script.  Everything is deterministic; run it twice and diff the output.
"""

import os

import numpy as np

from gpdbench import ProblemSpec, front_sample
from gpdbench.position import p_norm

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT, exist_ok=True)


def save(name, points):
    path = os.path.join(OUT, name)
    header = ",".join(f"f{i + 1}" for i in range(points.shape[1]))
    np.savetxt(path, points, delimiter=",", header=header, fmt="%.17g")
    print(f"  wrote {points.shape[0]:4d} points -> {path}")


# 1. the same instance under three norms: simplex, sphere, and a bulge.
# The position surface is always the set where the chosen p-norm equals one,
# so p = 1 gives the flat simplex and large p approaches the unit cube corner.
print("norm sweep (deceptive landscape, 20x20 grid):")
for p in (0.5, 1.0, 2.0, 4.0):
    spec = ProblemSpec(objectives=3, distance_vars=4,
                       distance_kind="deceptive", norm_p=p)
    fs = front_sample(spec, 20)
    worst = np.max(np.abs(p_norm(fs.position_points, p) - 1.0))
    print(f"  p = {p}: every point has p-norm 1 (worst deviation {worst:.1e})")
    save(f"front_norm_{p}.csv", fs.points)

# 2. the four landscape kinds at a fixed norm.  Deceptive leaves the front on
# the unit surface (g* = 0), robust scales it by 1 + g* with g* = 4 * 1.9e-4
# for its four distance variables, convex_concave rescales it by angle, and
# disconnected carves it into islands.
print("\nlandscape sweep (p = 2, 20x20 grid):")
for kind in ("deceptive", "robust", "convex_concave", "disconnected"):
    spec = ProblemSpec(objectives=3, distance_vars=4, distance_kind=kind,
                       norm_p=2.0)
    fs = front_sample(spec, 20)
    radii = np.linalg.norm(fs.points, axis=1)
    print(f"  {kind:15s} kept {fs.points.shape[0]:3d}/400 points, "
          f"radius range [{radii.min():.3f}, {radii.max():.3f}]")
    save(f"front_{kind}.csv", fs.points)

# 3. dissimilar objective scales.  The affine map 2i(2f - 1) stretches
# objective i to the range [-2i, 2i].  It is increasing, so the front is the
# same set wearing different units, except that rounding can merge components
# closer together than about 1e-16; the front is filtered after the map.
spec = ProblemSpec(objectives=3, distance_vars=4, distance_kind="deceptive",
                   norm_p=2.0, dissimilar=True)
fs = front_sample(spec, 20)
print("\ndissimilar scaling: per-objective ranges now",
      [f"[{lo:.2f}, {hi:.2f}]" for lo, hi in
       zip(fs.points.min(axis=0), fs.points.max(axis=0))])
save("front_dissimilar.csv", fs.points)
