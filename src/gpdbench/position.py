"""Position mapping: overlapping meta-variables, the spherical map, and p-norm fronts.

The position part x_p lives in [-1, 1]^R with R = (M-1)*q + t.  Overlapping
windows of width q + t are averaged into meta-variables y in [0, 1]^(M-1),
the spherical map sends y onto the unit Euclidean sphere restricted to the
first orthant, and rescaling by the p-norm places the point on the surface
where the p-norm equals one.  Every function accepts stacked inputs: the
mapping applies along the last axis and broadcasts over leading axes.
"""

from __future__ import annotations

import numpy as np

from ._rows import real_array, row_accumulate, row_max, row_sum


def _check_windows(q: int, t: int) -> None:
    """Reject a window stride below 1 or a negative overlap."""
    if q < 1:
        raise ValueError(f"window stride q must be >= 1, got {q}")
    if t < 0:
        raise ValueError(f"window overlap t must be >= 0, got {t}")


def meta_variables(x_p: np.ndarray, q: int, t: int) -> np.ndarray:
    """Collapse the position part into meta-variables.

    Window i (1-based) covers coordinates (i-1)*q+1 .. i*q+t, so adjacent
    windows share exactly t coordinates.  Each meta-variable is the absolute
    window sum divided by the window width q + t, hence lies in [0, 1].
    With q = 1, t = 0 this reduces to y_i = |x_i|.

    Args:
        x_p: array shaped (..., R) with R = (M-1)*q + t.
        q: window stride, >= 1.
        t: overlap between adjacent windows, >= 0.

    Returns:
        Array shaped (..., M-1).
    """
    _check_windows(q, t)
    x = real_array(x_p)
    r = x.shape[-1]
    width = q + t
    groups, rem = divmod(r - t, q)
    if r <= t or rem != 0 or groups < 1:
        raise ValueError(
            f"position length {r} does not split into overlapping windows "
            f"with q={q}, t={t}")
    padded = np.empty(x.shape[:-1] + (r + 1,))
    padded[..., 0] = 0.0
    row_accumulate(np.add, x, padded[..., 1:])
    # Window i runs from prefix sum i*q to i*q + width; the last ends at r.
    sums = padded[..., width::q] - padded[..., :groups * q:q]
    return np.divide(np.abs(sums, out=sums), width, out=sums)


def spherical_map(y: np.ndarray) -> np.ndarray:
    """Map meta-variables onto the first-orthant unit Euclidean sphere.

    Component 1 is the product of all cosines of y_i * pi/2; component j > 1
    replaces the trailing cosine chain with the sine of the deepest remaining
    angle.  The Euclidean norm of the result is exactly one, and y = 0 maps
    to the first canonical axis.

    Args:
        y: array shaped (..., M-1) with entries in [0, 1].

    Returns:
        Array shaped (..., M) of nonnegative components.
    """
    y = real_array(y)
    if y.shape[-1] < 1:
        raise ValueError("need at least one meta-variable")
    ang = y * (np.pi / 2.0)
    s = np.sin(ang)
    m1 = y.shape[-1]
    head = np.empty(y.shape[:-1] + (m1 + 1,))
    head[..., 0] = 1.0
    row_accumulate(np.multiply, np.cos(ang, out=ang), head[..., 1:])
    out = np.empty(y.shape[:-1] + (m1 + 1,), dtype=float)
    out[..., 0] = head[..., m1]
    out[..., 1:] = head[..., m1 - 1::-1] * s[..., ::-1]
    return out


def p_norm(v: np.ndarray, p: float) -> np.ndarray:
    """p-norm along the last axis, rescaled by the largest magnitude.

    Dividing by max|v_i| before exponentiation keeps the sum representable
    for large p and for quasi-norms with 0 < p < 1.  The all-zero vector has
    norm zero.
    """
    if not p > 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    v = real_array(v)
    if v.shape[-1] == 0:
        raise ValueError("p-norm of an empty vector")
    a = np.abs(v)
    peak = row_max(a)
    safe = np.where(peak == 0.0, 1.0, peak)
    scaled = np.divide(a, safe[..., None], out=a)
    return peak * row_sum(scaled ** p) ** (1.0 / p)


def position_point(y: np.ndarray, p: float) -> np.ndarray:
    """Point on the unit p-norm surface for meta-variables y.

    Composition of the spherical map with division by its own p-norm; the
    result F_p satisfies ||F_p||_p = 1 and keeps all components nonnegative.
    """
    t = spherical_map(y)
    return t / p_norm(t, p)[..., None]


def _window_step(w, i: int, lo_prev, hi_prev, n_excl: np.ndarray, t: int):
    """Bounds of the shared sum after window i, given w and those before it.

    Scalars or one entry per row; the sums around the ends are pinned to 0.
    The np.where forms break ties like Python's max and min (first argument
    wins), which keeps the sign of zero.  Also returns whether they fit.
    """
    cap = float(t) if i < n_excl.size - 1 else 0.0
    low = w - hi_prev - n_excl[i]
    high = w - lo_prev + n_excl[i]
    lo = np.where(-cap > low, -cap, low)
    hi = np.where(cap < high, cap, high)
    return lo, hi, ~(lo > hi + 1e-12)


def _shared_intervals(w: np.ndarray, n_excl: np.ndarray, t: int):
    """Reachable shared-block sums for signed window targets, row by row.

    w holds the signed targets of the windows, shaped (n, g).  Column i of
    lo/hi bounds the shared sum after window i+1; ok marks the rows whose
    intervals are all nonempty.
    """
    n, g = w.shape
    lo = np.empty((n, g))
    hi = np.empty((n, g))
    ok = np.ones(n, dtype=bool)
    lo_prev = hi_prev = np.zeros(n)
    for i in range(g):
        lo[:, i], hi[:, i], fits = _window_step(w[:, i], i, lo_prev, hi_prev, n_excl, t)
        ok &= fits
        lo_prev, hi_prev = lo[:, i], hi[:, i]
    return lo, hi, ok


def _sign_search(target: np.ndarray, n_excl: np.ndarray, t: int) -> np.ndarray:
    """First feasible sign pattern of one row, depth-first, +1 branch first."""
    g = target.shape[0]
    # Only feasible prefixes are pushed, each with the bounds of the shared
    # sum after its last window, so a step checks one more window and the
    # first full pattern popped wins.
    stack = [([], 0.0, 0.0)]
    while stack:
        prefix, lo, hi = stack.pop()
        i = len(prefix)
        if i == g:
            return np.array(prefix, dtype=float)
        branches = (1,) if target[i] == 0.0 else (-1, 1)
        for sgn in branches:  # pushed so that +1 is explored first
            lo_i, hi_i, fits = _window_step(sgn * target[i], i, lo, hi, n_excl, t)
            if fits:
                stack.append((prefix + [sgn], lo_i, hi_i))
    raise ValueError("no sign pattern realizes these meta-variables")


def realize_position(y: np.ndarray, q: int, t: int) -> np.ndarray:
    """Construct position vectors whose meta-variables equal y exactly.

    Inverts meta_variables up to floating-point rounding.  Window sums are
    coupled through the t shared coordinates between neighbours, so one
    window's sign choice can force its neighbour's.  Each row takes the
    first feasible sign pattern of a depth-first search that tries the
    positive branch first, while propagating the exact feasible interval of
    each shared-block sum; then a backward walk picks the shared sums
    closest to zero and assigns block-constant coordinates.  The interval
    pass and the backward walk run over all rows at once.  The search
    itself runs only for rows whose all-positive pattern is infeasible: for
    every other row it would return that pattern.

    Args:
        y: meta-variable targets shaped (..., M-1), entries in [0, 1].
        q: window stride.
        t: window overlap.

    Returns:
        Position vectors shaped (..., (M-1)*q + t) with entries in [-1, 1];
        a single target of shape (M-1,) gives one vector of shape (R,).

    Raises:
        ValueError: for q < 1, t < 0 or, from three windows up, t > q; for
            a target outside [0, 1]; or if no sign pattern is feasible.
    """
    _check_windows(q, t)
    y = real_array(y)
    if y.ndim < 1 or y.shape[-1] < 1:
        raise ValueError("y must be an array of meta-variables shaped (..., M-1)")
    g = y.shape[-1]
    if g > 2 and t > q:  # windows that are not neighbours would share coordinates
        raise ValueError(f"window overlap t={t} exceeds the stride q={q}")
    if np.any(y < 0.0) or np.any(y > 1.0) or not np.all(np.isfinite(y)):
        raise ValueError("meta-variables must lie in [0, 1]")
    width = q + t
    target = y.reshape(-1, g) * width
    # Exclusive-block capacities: each window gives up t coordinates to each
    # neighbour, which leaves a middle window none at t = q.
    n_excl = np.full(g, width, dtype=float)
    n_excl[1:] -= t
    n_excl[:-1] -= t

    signs = np.ones_like(target)
    lo, hi, ok = _shared_intervals(target, n_excl, t)
    redo = np.flatnonzero(~ok)
    if redo.size:
        signs[redo] = [_sign_search(target[i], n_excl, t) for i in redo]
        lo[redo], hi[redo], _ = _shared_intervals(signs[redo] * target[redo], n_excl, t)
    w = signs * target

    x = np.zeros((target.shape[0], (g - 1) * q + width))
    nxt = np.zeros(target.shape[0])  # shared sum after window i+1
    for i in range(g - 1, -1, -1):
        lo_prev, hi_prev = (0.0, 0.0) if i == 0 else (lo[:, i - 1], hi[:, i - 1])
        # previous shared sum must let the exclusive block close the gap
        low = w[:, i] - nxt - n_excl[i]
        high = w[:, i] - nxt + n_excl[i]
        low = np.where(low > lo_prev, low, lo_prev)
        high = np.where(high < hi_prev, high, hi_prev)
        prev = np.where(low > 0.0, low, 0.0)
        prev = np.where(high < prev, high, prev)
        start = i * q
        excl_lo = start + (t if i > 0 else 0)
        excl_hi = start + width - (t if i < g - 1 else 0)
        if n_excl[i]:
            x[:, excl_lo:excl_hi] = ((w[:, i] - nxt - prev) / n_excl[i])[:, None]
        if t > 0 and i > 0:
            x[:, start:start + t] = (prev / t)[:, None]
        nxt = prev
    # Tight sign patterns can overshoot the box by interval-tolerance crumbs.
    return np.clip(x, -1.0, 1.0).reshape(y.shape[:-1] + x.shape[-1:])


def dissimilarize(f: np.ndarray) -> np.ndarray:
    """Spread objective scales: component i maps to 2*i*(2*f_i - 1).

    Sends [0, 1] ranges onto [-2i, 2i], so each objective gets its own scale.
    The map is increasing in every component, but 2f - 1 rounds components
    closer together than about 1e-16 onto one double, so a point can end up
    dominated by another; reference fronts are filtered after it.
    """
    f = real_array(f)
    idx = np.arange(1, f.shape[-1] + 1, dtype=float)
    return 2.0 * idx * (2.0 * f - 1.0)
