"""Distance landscapes: angular position, deceptive and robust g, radial profiles.

The distance part x_d controls how far an evaluated point sits from the front.
Its landscape is steered by the normalized angle phi of the position point, so
where you are on the front changes what the distance variables must do.  Two
hard landscapes are provided: a deceptive one whose global valley hides between
two wide basins, and a robustness-testing one whose global optimum is brittle
under noise while a worse local optimum is stable.
"""

from __future__ import annotations

import functools

import numpy as np

from ._rows import real_array, row_max, row_sum

# Per-term global minimizer of the robust landscape: the computed robust_term is least here.
ROBUST_MINIMIZER = 0.60006613899

# Interval of stable (robust) per-term solutions.
ROBUST_STABLE_RANGE = (0.1, 0.3)

_TINY = np.finfo(float).tiny  # subnormal squares carry fewer bits


def _scaled_rows(v) -> tuple[np.ndarray, np.ndarray]:
    """The rows of v and their squared norms, safe to take angles with.

    A finite nonzero row whose squared norm is subnormal, underflows to zero
    or overflows is first divided by its largest magnitude, which leaves its
    direction alone.  Every other row, and its squared norm, keeps its bits.
    """
    v = real_array(v)
    with np.errstate(over="ignore"):
        sq = row_sum(v * v)
    if (_TINY <= np.minimum.reduce(sq, axis=None, initial=np.inf)
            and np.maximum.reduce(sq, axis=None, initial=0.0) < np.inf):
        return v, sq
    big = row_max(np.abs(v))[..., None]
    bad = (sq < _TINY) | (sq == np.inf)
    bad &= (big[..., 0] > 0.0) & (big[..., 0] < np.inf)
    v = np.where(bad[..., None], v / np.where(bad[..., None], big, 1.0), v)
    return v, row_sum(v * v)


@functools.lru_cache(maxsize=64)
def _prepared_reference(shape: tuple[int, ...], data: bytes):
    """The float64 reference with this shape and these bytes, prepared.

    Returns it scaled by _scaled_rows, its norm and its widest first-orthant
    angle arccos(min d / ||d||).  Keyed on the bytes, so references that
    differ only in the sign of a zero keep their own entries.  The arrays
    handed out are read-only, since every caller shares them; a zero-length
    reference raises, and the failure is not cached.
    """
    d, d_sq = _scaled_rows(np.frombuffer(data).reshape(shape))
    dn = np.sqrt(d_sq)
    if dn == 0.0:
        raise ValueError("reference vector has zero length")
    d.flags.writeable = False
    return d, dn, np.arccos(np.clip(d.min() / dn, -1.0, 1.0))


def _normalized_angle(f: np.ndarray, fn: np.ndarray, d) -> np.ndarray:
    """normalized_angle of rows f, already scaled by _scaled_rows, with norms fn.

    d is checked before f is, on every call, but scaled only once per
    distinct reference (see _prepared_reference).
    """
    d = real_array(d)
    if d.ndim != 1 or d.shape[0] < 2 or d.shape[0] != f.shape[-1]:
        raise ValueError(f"reference must be one vector of at least 2 components, as long "
                         f"as the rows; got shape {d.shape} for rows of shape {f.shape}")
    d, dn, widest = _prepared_reference(d.shape, d.tobytes())
    if (fn == 0.0).any():
        raise ValueError("cannot take the angle of a zero vector")
    cos = row_sum(f * d) / (fn * dn)
    # np.maximum(-0.0, 0.0) is +0.0 where np.clip keeps -0.0; the only 0.0
    # bound here meets arccos(...) / widest, which is never -0.0.
    angle = np.arccos(np.minimum(np.maximum(cos, -1.0), 1.0))
    return np.minimum(np.maximum(angle / widest, 0.0), 1.0)


def normalized_angle(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Angle of each row of f to d, rescaled so the first-orthant maximum is 1.

    The angle is taken in plain Euclidean geometry, regardless of which
    p-norm shaped the front, and its cosine is clamped to [-1, 1] before
    arccos, so rounding noise on parallel vectors cannot produce NaN.  The
    dot product d.u over unit first-orthant vectors u is minimized at the
    axis of d's smallest component, so the widest angle, which maps to
    exactly 1, is arccos(min_i d_i / ||d||): arccos(1/sqrt(M)) for the
    diagonal and pi/2 for an axis vector.  Vectors too small or too large to
    square are rescaled first (see _scaled_rows).  d must be one vector of
    at least two components, as long as the rows of f; any other shape
    raises a ValueError that names both shapes.
    """
    f, f_sq = _scaled_rows(f)
    return _normalized_angle(f, np.sqrt(f_sq), d)


def valley_center(phi: np.ndarray, i) -> np.ndarray:
    """Center of the hidden deceptive valley for distance variable i (1-based).

    v = (1.2 + sin(2*pi*(1-phi)**(1.05*i))) / 2.4, which stays in
    [1/12, 11/12]; higher i makes the center oscillate faster in phi.
    """
    phi = real_array(phi)
    i = real_array(i)
    return (1.2 + np.sin(2.0 * np.pi * (1.0 - phi) ** (1.05 * i))) / 2.4


def valley_radius(phi: np.ndarray, k: int) -> np.ndarray:
    """Half-width of the deceptive valley: 0.015*cos(2*k*pi*phi) + 0.025.

    Stays in [0.01, 0.04]; k sets how many times the valley narrows as phi
    sweeps the front.
    """
    phi = real_array(phi)
    return 0.015 * np.cos(2.0 * k * np.pi * phi) + 0.025


def deceptive_term(x, v, r) -> np.ndarray:
    """Deceptive per-variable distance value with a hidden valley at v.

    Three pieces: a line rising from 5 at x = 0 to 10 at x = v - r, one full
    cosine cycle dropping to exactly 0 at the center v and returning to 10 at
    v + r, and a line falling back to 5 at x = 1.  The wide outer basins pull
    searches toward the box edges; only the narrow valley pays.  The cosine
    argument is written around x - v so the center evaluates to exactly zero.

    The cosine runs only on the coordinates in [v - r, v + r], through the
    same doubles it would see on the whole array; NaN takes the right line.
    """
    x, v, r = (real_array(a) for a in (x, v, r))
    left = v - r
    below = x < left
    out = np.where(below, 5.0 * (x + r - v) / left + 10.0,
                   5.0 * (x - v - r) / (v + r - 1.0) + 10.0)
    inside = ~below & (x <= v + r)
    # Only the masked gathers need the operands at full shape.
    xi, vi, ri = (a[inside] if a.shape == out.shape else np.broadcast_to(a, out.shape)[inside]
                  for a in (x, v, r))
    out[inside] = 5.0 * (np.cos(((xi - vi) / ri + 1.0) * np.pi) + 1.0)
    return out


def deceptive_g(x_d: np.ndarray, phi, k: int) -> np.ndarray:
    """Sum of deceptive terms over the distance vector.

    Variable i (1-based) gets its own valley center valley_center(phi, i);
    the radius is shared.  Zero exactly when every variable sits at its
    center; at most 10 per variable.
    """
    x_d = real_array(x_d)
    phi = real_array(phi)
    s = x_d.shape[-1]
    idx = np.arange(1, s + 1, dtype=float)
    v = valley_center(phi[..., None], idx)
    r = valley_radius(phi[..., None], k)
    return row_sum(deceptive_term(x_d, v, r))


def robust_term(x) -> np.ndarray:
    """Robustness-testing per-variable distance value.

    A pair of logistic steps (gain 20, centered at 0.6 and 0.7) gated by a
    fast cosine produces a sharp, brittle global minimum near 0.600066 and a
    broad, stable local optimum across (0.1, 0.3).  The decaying exponential
    penalizes x near 0.  The 0.631 offset puts the global minimum just above
    zero, at +1.9e-4 (ROBUST_MINIMIZER).
    """
    x = real_array(x)
    y = 1.0 / (1.0 + np.exp(-20.0 * (x - 0.6)))
    z = 1.0 / (1.0 + np.exp(-20.0 * (x - 0.7)))
    w = np.cos(40.0 * np.pi * x)
    return -w * (y - z) + (y - 1.0) / 2.0 + np.exp(-60.0 * x) + 0.631


def robust_g(x_d: np.ndarray) -> np.ndarray:
    """Sum of robust terms over the distance vector."""
    x_d = real_array(x_d)
    return row_sum(robust_term(x_d))


def radial_profile(g, phi, kind: str, composition: str) -> np.ndarray:
    """Scalar front-distance F_d from the auxiliary value g.

    deceptive/robust instances pass g through unchanged (additive) or shifted
    to 1 + g (multiplicative) so that g = 0 lands exactly on the front.  The
    shape-bending profiles add a phi-dependent floor: convex_concave gives
    phi**5 / 2 + g + 0.5, disconnected gives cos(3*pi*phi)**2 / 10 + g + 1.

    The library's g is never negative; a caller's g down to -1e-3 is floored
    at zero as rounding noise, and lower values indicate a bug and raise.
    """
    g = real_array(g)
    phi = real_array(phi)
    if (g < -1e-3).any():
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
    f_p = real_array(f_p)
    f_d = real_array(f_d)
    if composition == "multiplicative":
        return f_p * f_d[..., None]
    if composition == "additive":
        return f_p + f_d[..., None]
    raise ValueError(f"unknown composition: {composition!r}")