"""Known-solution machinery: reference fronts, Pareto-set samples, IGD.

The front is sampled directly in objective space: a grid over the
meta-variable cube is pushed through the position map and scaled by the
radial profile at g = 0, which is attainable for every distance kind.  The
matching decision-space construction realizes each grid point as a concrete
position vector and pins the distance variables at the landscape's global
minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import constraint_table
from .distance import ROBUST_MINIMIZER, compose, radial_profile, valley_center
from .evaluator import _distance_stage, _position_stage, evaluate
from .position import dissimilarize, meta_variables, realize_position
from .spec import ProblemSpec


@dataclass(frozen=True, eq=False)
class FrontSample:
    """Nondominated reference front points plus their position metadata.

    points           objective points, dissimilarity applied when enabled
    position_points  matching pre-dissimilarity unit p-norm points
    phis             normalized angle of each point to the distance reference
    """

    points: np.ndarray
    position_points: np.ndarray
    phis: np.ndarray
    resolution: int
    feasible_only: bool


@dataclass(frozen=True, eq=False)
class SetSample:
    """Decision vectors realizing front points exactly.

    vectors    (n, N) rows ready for the evaluator
    residuals  per-row worst meta-variable matching error
    """

    vectors: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class PerturbReport:
    """Objective-space displacement statistics under distance noise."""

    worst: float
    mean: float
    base_objectives: tuple[float, ...]
    radius: float
    samples: int
    seed: int


def _lattice(m: int, resolution: int) -> np.ndarray:
    axes = [np.linspace(0.0, 1.0, resolution)] * (m - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton(m: int, count: int) -> np.ndarray:
    """The first `count` points of the unscrambled Halton sequence in M-1 dims.

    Column d is the radical inverse of 0, 1, ... in the d-th prime base.
    Digits are added least significant first, each times a weight divided
    down from 1/base step by step, which is scipy.stats.qmc.Halton's order
    of operations, so the points are bit-identical to its unscrambled ones.
    """
    out = np.zeros((count, m - 1))
    for col, base in enumerate(_primes(m - 1)):
        quotient = np.arange(count)
        weight = 1.0 / base
        while quotient.any():
            out[:, col] += (quotient % base) * weight
            weight /= base
            quotient //= base
    return out


def _front_targets(m: int, resolution: int) -> np.ndarray:
    # Lattices explode past four objectives; switch to a low-discrepancy set.
    if m <= 4:
        return _lattice(m, resolution)
    return _halton(m, resolution ** 3)


def _set_targets(m: int, n: int) -> np.ndarray:
    """n meta-variable targets whose prefix reproduces the front lattice.

    For lattice dimensions the largest full lattice fitting inside n comes
    first and low-discrepancy points pad the remainder, so a front sampled at
    the largest resolution r with r**(M-1) <= n is a subset of these targets.
    """
    if m <= 4:
        # Exact integer root: the float root can land just below a perfect power.
        res = max(2, round(n ** (1.0 / (m - 1))))
        while res > 2 and res ** (m - 1) > n:
            res -= 1
        grid = _lattice(m, res)
        if grid.shape[0] >= n:
            return grid[:n]
        return np.concatenate([grid, _halton(m, n - grid.shape[0])])
    return _halton(m, n)


_CHUNK = 512  # candidate rows tested against the archive at a time
_IGD_BLOCK = 1 << 16  # distance entries held at a time by igd
_SCREEN_DIMS = 5  # igd screens candidates with a matrix product from here up
_SCREEN_CAP = 16  # screened candidates per reference row before a block is recomputed
_SCREEN_NORM_MAX = np.finfo(float).max / 8  # larger squared norms skip the screen


def dominance_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of points not dominated by any other point.

    A point is dropped iff some point is no worse in every objective and
    strictly better in at least one (minimization).  Exact duplicates do not
    eliminate each other.

    A dominating point never has a larger rounded coordinate sum (rounded
    addition is monotone), and among equal sums it comes first in
    lexicographic order, so points are swept in (sum, lexicographic) order
    and tested against the nondominated archive built so far; by
    transitivity a dominated dominator is always covered by whichever
    archive point dominates it.  Equal rows are adjacent in that order, so
    only the first of each run is swept and the rest share its verdict.
    Between distinct points "no worse in every objective" already implies
    "strictly better in one", so each chunk of candidates needs a single
    boolean block against archive + chunk, ANDed in place one objective at
    a time, with each candidate's pairing with itself masked out.  The
    answer equals the all-pairs filter's; the work is candidates times
    archive size times M byte comparisons, in blocks of at most 512 rows.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of points")
    n, m = pts.shape
    if n == 0 or m == 0:  # without objectives all rows are equal
        return np.ones(n, dtype=bool)
    # Clipping is monotone, and it stops +inf and -inf in one row from
    # summing to NaN, which would sort a dominator last.
    big = np.finfo(float).max / (2 * m)
    order = np.lexsort((*pts.T[::-1], np.clip(pts, -big, big).sum(axis=-1)))
    sorted_pts = pts[order]
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(sorted_pts[1:] != sorted_pts[:-1], axis=-1)
    distinct = np.ascontiguousarray(sorted_pts[first].T)  # one row per objective
    count = distinct.shape[1]
    archive = np.empty_like(distinct)
    size = 0
    alive = np.empty(count, dtype=bool)
    for start in range(0, count, _CHUNK):
        chunk = distinct[:, start:start + _CHUNK]
        rows = chunk.shape[1]
        # Within the chunk the sum order already rules out later-dominates-
        # earlier pairs, so a full pairwise test against archive + chunk is
        # safe and vectorizes cleanly.
        archive[:, size:size + rows] = chunk
        against = archive[:, :size + rows]
        covered = np.less_equal(against[0], chunk[0][:, None])
        scratch = np.empty_like(covered)
        for j in range(1, m):
            covered &= np.less_equal(against[j], chunk[j][:, None], out=scratch)
        covered[np.arange(rows), size + np.arange(rows)] = False
        survive = ~covered.any(axis=1)
        alive[start:start + rows] = survive
        kept = int(survive.sum())
        archive[:, size:size + kept] = chunk[:, survive]
        size += kept
    keep = np.empty(n, dtype=bool)
    keep[order] = alive[np.cumsum(first) - 1]
    return keep


def dominance_filter(points) -> np.ndarray:
    """The nondominated subset, in stable input order."""
    pts = np.asarray(points, dtype=float)
    return pts[dominance_mask(pts)]


def _squared_distances(rb, ab, acc, tmp):
    """Fill acc with rb - ab squared and summed one coordinate at a time.

    rb and ab hold one row per coordinate and broadcast against each other;
    the order of the sum is scipy cdist's.
    """
    np.subtract(rb[0], ab[0], out=acc)
    np.multiply(acc, acc, out=acc)
    for j in range(1, rb.shape[0]):
        np.subtract(rb[j], ab[j], out=tmp)
        acc += np.multiply(tmp, tmp, out=tmp)
    return acc


def _screen_terms(r, a):
    """(-2r, squared norms of a, twice the slack e) for igd's screen.

    None when a squared norm is NaN, infinite or near overflow, which
    covers every non-finite coordinate.
    """
    r_sq = np.einsum("ij,ij->i", r, r)
    a_sq = np.einsum("ij,ij->i", a, a)
    a_max = a_sq.max()
    if not r_sq.max() + a_max <= _SCREEN_NORM_MAX:
        return None
    finfo = np.finfo(float)
    e = 4 * (r.shape[1] + 4) * (finfo.eps / 2 * (r_sq + a_max) + finfo.smallest_subnormal)
    return -2.0 * r, a_sq, 2 * e


def _screened_block(screen, r0, a0, rb, ab, near, out, mask):
    """Lower near to the exact minima of the block at (r0, a0) via the screen.

    Returns False, leaving near alone, when the block keeps more than
    _SCREEN_CAP candidates per reference row.
    """
    r2, a_sq, slack = screen
    rows, cols = out.shape
    s = np.matmul(r2[r0:r0 + rows], ab, out=out)
    s += a_sq[a0:a0 + cols]
    limit = s.min(axis=1)
    limit += slack[r0:r0 + rows]
    flat = np.flatnonzero(np.less_equal(s, limit[:, None], out=mask))
    if flat.size > _SCREEN_CAP * rows:
        return False
    ri, cj = np.divmod(flat, cols)
    d = _squared_distances(rb[:, ri], ab[:, cj], np.empty(flat.size), np.empty(flat.size))
    starts = np.flatnonzero(np.diff(ri, prepend=-1))
    hit = ri[starts]
    near[hit] = np.minimum(near[hit], np.minimum.reduceat(d, starts))
    return True


def igd(approximation, reference) -> float:
    """Mean distance from each reference point to its nearest approximation.

    Accepts plain arrays or FrontSample objects.  Lower is better; zero iff
    every reference point coincides with some approximation point.

    The result is exact: the same double as the row minima of scipy's cdist
    matrix, averaged.  Squared differences are summed one coordinate at a
    time, in cdist's order, and the square root is taken after the minimum;
    being monotone and correctly rounded, it commutes with the minimum.
    Blocks hold 65536 distance entries at a time (two float blocks and one
    bool block, about 1.1 MB), so memory stays O(r + a); time is
    O(r * a * M).

    From five objectives up a BLAS screen picks the candidates first.  One
    matrix product per block gives s_ij = |a_j|^2 - 2 r_i.a_j, which is
    |r_i - a_j|^2 - |r_i|^2 and so orders the j like the distance does.
    Why it keeps the cdist minimum: let N_i = |r_i|^2 + max_j |a_j|^2 and u
    the unit roundoff.  In any summation order, so for any BLAS thread
    count, the computed s_ij is within (2M + 2) u N_i of its true value, and
    the cdist-order d_ij within (2M + 4) u N_i of the true squared distance,
    which is at most 2 N_i (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1; to first order in u).  Gradual
    underflow adds at most 3M/2 smallest subnormals.  So if j* minimizes
    d_ij and j0 minimizes the computed s_ij, then s_ij* <= s_ij0 +
    2 (4M + 6) u N_i + 3M subnormals.  The screen keeps every j with
    s_ij <= min_k s_ik + 2 e_i, e_i = 4 (M + 4) (u N_i + one subnormal),
    which covers j* with room for the rounding of the threshold itself and
    for the higher-order terms.  Only the kept pairs are recomputed, in
    cdist order, so every row minimum is unchanged.

    Fallbacks: below five objectives the screen is slower than the plain
    blocks and is skipped.  Any NaN or infinite input, or a squared norm
    near overflow, skips it for the whole call.  A block keeping more than
    16 candidates per reference row (near-ties) computes all its distances.
    """
    a = np.asarray(getattr(approximation, "points", approximation), dtype=float)
    r = np.asarray(getattr(reference, "points", reference), dtype=float)
    if a.ndim != 2 or r.ndim != 2:
        raise ValueError("igd expects 2-d point sets")
    if a.shape[0] == 0 or r.shape[0] == 0:
        raise ValueError("igd of an empty point set")
    if a.shape[1] != r.shape[1]:
        raise ValueError(
            f"dimension mismatch: approximation is {a.shape[1]}-d, reference {r.shape[1]}-d")
    if r.shape[1] == 0:  # zero-dimensional points all coincide
        return 0.0
    screen = _screen_terms(r, a) if r.shape[1] >= _SCREEN_DIMS else None
    r_cols, a_cols = r.T.copy(), a.T.copy()
    a_step = min(a.shape[0], _IGD_BLOCK)
    r_step = max(1, _IGD_BLOCK // a_step)
    total = np.empty(r_step * a_step)
    term = np.empty_like(total)
    mask = np.empty(total.shape, dtype=bool)
    nearest = np.full(r.shape[0], np.inf)
    for r0 in range(0, r.shape[0], r_step):
        near = nearest[r0:r0 + r_step]
        rb = r_cols[:, r0:r0 + r_step]
        for a0 in range(0, a.shape[0], a_step):
            ab = a_cols[:, a0:a0 + a_step]
            shape = (rb.shape[1], ab.shape[1])
            out = total[:shape[0] * shape[1]].reshape(shape)
            if screen is not None and _screened_block(
                    screen, r0, a0, rb, ab, near, out, mask[:out.size].reshape(shape)):
                continue
            acc = _squared_distances(rb[:, :, None], ab, out, term[:out.size].reshape(shape))
            np.minimum(near, acc.min(axis=1), out=near)
    return float(np.sqrt(nearest).mean())


def front_sample(spec: ProblemSpec, resolution: int,
                 feasible_only: bool = True) -> FrontSample:
    """Sample the known Pareto front at g = 0.

    Grid resolution counts points per meta-variable axis (total points for
    the low-discrepancy regime are resolution cubed).  Constraint-violating
    points are dropped first, then the dominance filter runs; an empty result
    is legitimate, not an error.  Dissimilarity, when enabled, is applied
    after filtering since it preserves dominance.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    f_p, phi = _position_stage(_front_targets(spec.objectives, resolution), spec)
    f_d = radial_profile(np.zeros_like(phi), phi, spec.distance_kind,
                         spec.composition)
    pts = compose(f_p, f_d, spec.composition)
    if feasible_only and spec.constraints:
        _, viol = constraint_table(f_p, spec.constraints)
        mask = np.all(viol == 0.0, axis=-1)
        pts, f_p, phi = pts[mask], f_p[mask], phi[mask]
    keep = dominance_mask(pts)
    pts, f_p, phi = pts[keep], f_p[keep], phi[keep]
    if spec.dissimilar:
        pts = dissimilarize(pts)
    return FrontSample(points=pts, position_points=f_p, phis=phi,
                       resolution=int(resolution),
                       feasible_only=bool(feasible_only))


def pareto_set_sample(spec: ProblemSpec, n: int) -> SetSample:
    """n decision vectors lying on the Pareto set.

    Position parts are realized from the meta-variable targets; distance
    parts sit at the landscape optimum, which depends on the angle of the
    realized position point for the deceptive landscape (per-variable valley
    centers) and is the constant brittle minimizer for the robust one.  The
    angle is recomputed from the realized position through the evaluator's
    position stage, so the evaluator sees the distance variables exactly on
    target.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    targets = _set_targets(spec.objectives, n)
    q, t = spec.meta_q, spec.meta_t
    x_p = realize_position(targets, q, t)
    y = meta_variables(x_p, q, t)
    residuals = np.max(np.abs(y - targets), axis=-1)
    _, phi = _position_stage(y, spec)
    s = spec.distance_vars
    if spec.g_landscape == "deceptive":
        idx = np.arange(1, s + 1, dtype=float)
        x_d = valley_center(phi[:, None], idx)
    else:
        x_d = np.full((targets.shape[0], s), ROBUST_MINIMIZER)
    return SetSample(vectors=np.concatenate([x_p, x_d], axis=1),
                     residuals=residuals)


def perturb_experiment(x, radius: float, samples: int, spec: ProblemSpec,
                       seed: int = 0) -> PerturbReport:
    """Measure objective displacement under uniform distance-variable noise.

    Draws `samples` perturbations uniformly from [-radius, radius]^S, adds
    them to the distance part only, clips to the box, re-evaluates, and
    reports the worst and mean Euclidean displacement from the unperturbed
    objectives.  Identical seeds give identical reports.
    """
    if not radius > 0:
        raise ValueError(f"perturbation radius must be positive, got {radius}")
    if samples < 1:
        raise ValueError(f"need at least one perturbation sample, got {samples}")
    base = evaluate(x, spec)
    x_d = np.asarray(x, dtype=float)[spec.position_dim:]
    n = int(samples)
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-radius, radius, size=(n, spec.distance_vars))
    # Every sample shares the position part, so only the distance stage runs
    # per sample.  phi is a filled column, not a broadcast view, so the ufuncs
    # that read it directly see the layout a full batch gives them.
    f_p = np.broadcast_to(np.asarray(base.position_point), (n, spec.objectives))
    phi = np.full(n, base.distance_phi)
    _, f = _distance_stage(np.clip(x_d + delta, 0.0, 1.0), f_p, phi, spec)
    moved = f - np.asarray(base.objectives)
    disp = np.sqrt(np.sum(moved * moved, axis=-1))
    return PerturbReport(worst=float(disp.max()), mean=float(disp.mean()),
                         base_objectives=base.objectives,
                         radius=float(radius), samples=n,
                         seed=int(seed))
