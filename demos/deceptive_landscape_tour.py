"""
Why hill climbing fails on the deceptive distance landscape
===========================================================

Slices the per-variable deceptive term along one distance variable at a
few front angles and shows the trap: the global valley is a narrow
cosine notch whose walls are the highest points of the landscape, while
both box edges slope gently downhill toward local optima.
"""

import os

import numpy as np

from gpdbench.distance import deceptive_term, valley_center, valley_radius

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT, exist_ok=True)

x = np.linspace(0.0, 1.0, 2001)

# 1. slice the landscape at a handful of angles for the first variable.
print("valley geometry for distance variable 1 (k = 1):")
columns = [x]
for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
    v = float(valley_center(phi, 1))
    r = float(valley_radius(phi, 1))
    z = deceptive_term(x, v, r)
    columns.append(z)
    print(f"  phi = {phi:4.2f}: center {v:.4f}, radius {r:.3f}, "
          f"z(center) = {deceptive_term(v, v, r)}, wall height 10")

path = os.path.join(OUT, "deceptive_slices.csv")
np.savetxt(path, np.column_stack(columns), delimiter=",",
           header="x,phi0,phi025,phi05,phi075,phi1", fmt="%.17g")
print(f"  wrote slices -> {path}")

# 2. the deception itself: from a uniform random start, the downhill
# direction almost never points at the true valley.
phi = 0.5
v = float(valley_center(phi, 1))
r = float(valley_radius(phi, 1))
rng = np.random.default_rng(4)
starts = rng.uniform(0.0, 1.0, 20000)
eps = 1e-6
slope = (deceptive_term(starts + eps, v, r)
         - deceptive_term(starts - eps, v, r)) / (2 * eps)
toward = np.sign(v - starts) == np.sign(-slope)
print(f"\nfrom 20000 random starts at phi = {phi}, the local downhill "
      f"direction points toward the true valley {100 * toward.mean():.1f}% "
      "of the time")

# 3. the valley narrows as more oscillations are requested; every curve
# still bottoms out at exactly zero on its center.
print("\nvalley radius across the angle sweep:")
for k in (1, 2, 3):
    r = valley_radius(np.linspace(0, 1, 1001), k)
    print(f"  k = {k}: radius in [{r.min():.3f}, {r.max():.3f}], "
          f"{k} narrow dip(s) across the sweep")
