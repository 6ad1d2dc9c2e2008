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
from .distance import (ROBUST_MINIMIZER, compose, normalized_angle,
                       radial_profile, valley_center)
from .evaluator import evaluate, evaluate_arrays
from .position import (dissimilarize, meta_variables, position_point,
                       realize_position)
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
    resolution floor(n**(1/(M-1))) is a subset of these targets.
    """
    if m == 2:
        return np.linspace(0.0, 1.0, n)[:, None]
    if m <= 4:
        res = max(2, int(np.floor(n ** (1.0 / (m - 1)))))
        while res > 2 and res ** (m - 1) > n:
            res -= 1
        grid = _lattice(m, res)
        if grid.shape[0] >= n:
            return grid[:n]
        return np.concatenate([grid, _halton(m, n - grid.shape[0])])
    return _halton(m, n)


_CHUNK = 512  # candidate rows tested against the archive at a time
_IGD_BLOCK = 1 << 16  # distance entries held at a time by igd


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


def igd(approximation, reference) -> float:
    """Mean distance from each reference point to its nearest approximation.

    Accepts plain arrays or FrontSample objects.  Lower is better; zero iff
    every reference point coincides with some approximation point.

    The nearest-neighbour search is exact and blocked: it holds at most
    65536 squared distances at a time (about 1 MB), so memory stays
    O(r + a) while time is O(r * a * M).  Squared differences accumulate
    one coordinate at a time, in scipy's cdist order, and the square root
    is taken after the minimum; being monotone and correctly rounded, it
    gives the same doubles as the minimum over the cdist matrix.
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
    r_cols, a_cols = r.T.copy(), a.T.copy()
    a_step = min(a.shape[0], _IGD_BLOCK)
    r_step = max(1, _IGD_BLOCK // a_step)
    total = np.empty((r_step, a_step))
    term = np.empty_like(total)
    nearest = np.full(r.shape[0], np.inf)
    for r0 in range(0, r.shape[0], r_step):
        near = nearest[r0:r0 + r_step]
        rb = r_cols[:, r0:r0 + r_step, None]
        for a0 in range(0, a.shape[0], a_step):
            ab = a_cols[:, a0:a0 + a_step]
            acc = total[:rb.shape[1], :ab.shape[1]]
            tmp = term[:rb.shape[1], :ab.shape[1]]
            np.subtract(rb[0], ab[0], out=acc)
            np.multiply(acc, acc, out=acc)
            for j in range(1, r.shape[1]):
                np.subtract(rb[j], ab[j], out=tmp)
                acc += np.multiply(tmp, tmp, out=tmp)
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
    f_p = position_point(_front_targets(spec.objectives, resolution), spec.norm_p)
    phi = normalized_angle(f_p, spec.distance_reference)
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
    angle is recomputed from the realized position through the evaluation
    ops, so the evaluator sees the distance variables exactly on target.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    targets = _set_targets(spec.objectives, n)
    q, t = spec.meta_q, spec.meta_t
    x_p = realize_position(targets, q, t)
    y = meta_variables(x_p, q, t)
    residuals = np.max(np.abs(y - targets), axis=-1)
    phi = normalized_angle(position_point(y, spec.norm_p), spec.distance_reference)
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
    x = np.asarray(x, dtype=float)
    r = spec.position_dim
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-radius, radius, size=(int(samples), spec.distance_vars))
    rows = np.tile(x, (int(samples), 1))
    rows[:, r:] = np.clip(rows[:, r:] + delta, 0.0, 1.0)
    moved = evaluate_arrays(rows, spec).objectives - np.asarray(base.objectives)
    disp = np.sqrt(np.sum(moved * moved, axis=-1))
    return PerturbReport(worst=float(disp.max()), mean=float(disp.mean()),
                         base_objectives=base.objectives,
                         radius=float(radius), samples=int(samples),
                         seed=int(seed))