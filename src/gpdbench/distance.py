"""Distance landscapes: angular position, deceptive and robust g, radial profiles.

The distance part x_d controls how far an evaluated point sits from the front.
Its landscape is steered by the normalized angle phi of the position point, so
where you are on the front changes what the distance variables must do.  Two
hard landscapes are provided: a deceptive one whose global valley hides between
two wide basins, and a robustness-testing one whose global optimum is brittle
under noise while a worse local optimum is stable.
"""

from __future__ import annotations

import numpy as np

# Per-term global minimizer of the robust landscape, to 15 digits.
ROBUST_MINIMIZER = 0.600066066066066

# Interval of stable (robust) per-term solutions.
ROBUST_STABLE_RANGE = (0.1, 0.3)


def _scaled_rows(v) -> tuple[np.ndarray, np.ndarray]:
    """The rows of v and their squared norms, safe to take angles with.

    A finite nonzero row whose squared norm is subnormal, underflows to zero
    or overflows is first divided by its largest magnitude, which leaves its
    direction alone.  Every other row, and its squared norm, keeps its bits.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        sq = np.sum(v * v, axis=-1)
    tiny = np.finfo(float).tiny  # subnormal squares carry fewer bits
    # One vector skips the reductions, which cost more than the rest here.
    lo, hi = (sq, sq) if sq.ndim == 0 else (sq.min(initial=np.inf), sq.max(initial=0.0))
    if tiny <= lo and hi < np.inf:
        return v, sq
    big = np.max(np.abs(v), axis=-1, keepdims=True)
    bad = (sq < tiny) | (sq == np.inf)
    bad &= (big[..., 0] > 0.0) & (big[..., 0] < np.inf)
    v = np.where(bad[..., None], v / np.where(bad[..., None], big, 1.0), v)
    return v, np.sum(v * v, axis=-1)


def angle_to_reference(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Angle in radians between each row of f and the reference vector d.

    The cosine is clamped to [-1, 1] before arccos, so rounding noise on
    parallel vectors cannot produce NaN.  Plain Euclidean geometry is used
    regardless of which p-norm shaped the front.  Vectors too small or too
    large to square are rescaled first (see _scaled_rows).
    """
    f, f_sq = _scaled_rows(f)
    d, d_sq = _scaled_rows(d)
    fn = np.sqrt(f_sq)
    dn = np.sqrt(d_sq)
    if dn == 0.0:
        raise ValueError("reference vector has zero length")
    if np.any(fn == 0.0):
        raise ValueError("cannot take the angle of a zero vector")
    cos = np.sum(f * d, axis=-1) / (fn * dn)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def max_first_orthant_angle(d: np.ndarray) -> float:
    """Largest angle any first-orthant point can make with d.

    The dot product d.u over unit first-orthant vectors is minimized at a
    canonical axis, namely the axis of d's smallest component, so the widest
    angle is arccos(min_i d_i / ||d||).  For the diagonal this is
    arccos(1/sqrt(M)); for an axis vector it is pi/2.
    """
    d, d_sq = _scaled_rows(d)
    dn = np.sqrt(d_sq)
    if dn == 0.0:
        raise ValueError("reference vector has zero length")
    return float(np.arccos(np.clip(d.min() / dn, -1.0, 1.0)))


def normalized_angle(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Angle between f and d rescaled so the first-orthant maximum is 1."""
    return np.clip(angle_to_reference(f, d) / max_first_orthant_angle(d), 0.0, 1.0)


def valley_center(phi: np.ndarray, i) -> np.ndarray:
    """Center of the hidden deceptive valley for distance variable i (1-based).

    v = (1.2 + sin(2*pi*(1-phi)**(1.05*i))) / 2.4, which stays in
    [1/12, 11/12]; higher i makes the center oscillate faster in phi.
    """
    phi = np.asarray(phi, dtype=float)
    i = np.asarray(i, dtype=float)
    return (1.2 + np.sin(2.0 * np.pi * (1.0 - phi) ** (1.05 * i))) / 2.4


def valley_radius(phi: np.ndarray, k: int) -> np.ndarray:
    """Half-width of the deceptive valley: 0.015*cos(2*k*pi*phi) + 0.025.

    Stays in [0.01, 0.04]; k sets how many times the valley narrows as phi
    sweeps the front.
    """
    phi = np.asarray(phi, dtype=float)
    return 0.015 * np.cos(2.0 * k * np.pi * phi) + 0.025


def deceptive_term(x, v, r) -> np.ndarray:
    """Deceptive per-variable distance value with a hidden valley at v.

    Three pieces: a line rising from 5 at x = 0 to 10 at x = v - r, one full
    cosine cycle dropping to exactly 0 at the center v and returning to 10 at
    v + r, and a line falling back to 5 at x = 1.  The wide outer basins pull
    searches toward the box edges; only the narrow valley pays.  The cosine
    argument is written around x - v so the center evaluates to exactly zero.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    left = 5.0 * (x + r - v) / (v - r) + 10.0
    valley = 5.0 * (np.cos(((x - v) / r + 1.0) * np.pi) + 1.0)
    right = 5.0 * (x - v - r) / (v + r - 1.0) + 10.0
    return np.where(x < v - r, left, np.where(x <= v + r, valley, right))


def deceptive_g(x_d: np.ndarray, phi, k: int) -> np.ndarray:
    """Sum of deceptive terms over the distance vector.

    Variable i (1-based) gets its own valley center valley_center(phi, i);
    the radius is shared.  Zero exactly when every variable sits at its
    center; at most 10 per variable.
    """
    x_d = np.asarray(x_d, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = x_d.shape[-1]
    idx = np.arange(1, s + 1, dtype=float)
    v = valley_center(phi[..., None], idx)
    r = valley_radius(phi[..., None], k)
    return np.sum(deceptive_term(x_d, v, r), axis=-1)


def robust_term(x) -> np.ndarray:
    """Robustness-testing per-variable distance value.

    A pair of logistic steps (gain 20, centered at 0.6 and 0.7) gated by a
    fast cosine produces a sharp, brittle global minimum near 0.600066 and a
    broad, stable local optimum across (0.1, 0.3).  The decaying exponential
    penalizes x near 0.  The 0.631 offset puts the global minimum near zero;
    values a hair below zero are possible and tolerated downstream.
    """
    x = np.asarray(x, dtype=float)
    y = 1.0 / (1.0 + np.exp(-20.0 * (x - 0.6)))
    z = 1.0 / (1.0 + np.exp(-20.0 * (x - 0.7)))
    w = np.cos(40.0 * np.pi * x)
    return -w * (y - z) + (y - 1.0) / 2.0 + np.exp(-60.0 * x) + 0.631


def robust_g(x_d: np.ndarray) -> np.ndarray:
    """Sum of robust terms over the distance vector."""
    x_d = np.asarray(x_d, dtype=float)
    return np.sum(robust_term(x_d), axis=-1)


def radial_profile(g, phi, kind: str, composition: str) -> np.ndarray:
    """Scalar front-distance F_d from the auxiliary value g.

    deceptive/robust instances pass g through unchanged (additive) or shifted
    to 1 + g (multiplicative) so that g = 0 lands exactly on the front.  The
    shape-bending profiles add a phi-dependent floor: convex_concave gives
    phi**5 / 2 + g + 0.5, disconnected gives cos(3*pi*phi)**2 / 10 + g + 1.

    g may dip to -1e-3 (robust rounding); it is floored at zero here.  Lower
    values indicate a caller bug and raise.
    """
    g = np.asarray(g, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(g < -1e-3):
        raise ValueError("auxiliary distance value below the -1e-3 floor")
    g = np.maximum(g, 0.0)
    if kind in ("deceptive", "robust"):
        return 1.0 + g if composition == "multiplicative" else g + 0.0
    if kind == "convex_concave":
        return phi ** 5 / 2.0 + g + 0.5
    if kind == "disconnected":
        return np.cos(3.0 * np.pi * phi) ** 2 / 10.0 + g + 1.0
    raise ValueError(f"unknown distance kind: {kind!r}")


def compose(f_p: np.ndarray, f_d, composition: str) -> np.ndarray:
    """Combine the position point with the scalar distance value."""
    f_p = np.asarray(f_p, dtype=float)
    f_d = np.asarray(f_d, dtype=float)
    if composition == "multiplicative":
        return f_p * f_d[..., None]
    if composition == "additive":
        return f_p + f_d[..., None]
    raise ValueError(f"unknown composition: {composition!r}")