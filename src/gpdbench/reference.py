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
    return _set_targets(m, resolution ** (m - 1) if m <= 4 else resolution ** 3)


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
_SWEEP_ROWS = 64  # fewest reference rows per block of igd's sorted sweep
_SWEEP_SEED = 4  # approximations either side of a sweep block that seed its bounds


def dominance_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of points not dominated by any other point.

    A point is dropped iff some point is no worse in every objective and
    strictly better in at least one (minimization).  Exact duplicates do not
    eliminate each other.

    Equal rows are made adjacent by one sort, only the first of each run is
    tested, and the rest share its verdict.  Between distinct points "no
    worse in every objective" already implies "strictly better in one".

    Two objectives take the maxima sweep of Kung, Luccio and Preparata
    (J. ACM 22(4), 1975), exact in O(n log n).  Rows holding a NaN compare
    false with everything, so they are set aside and kept.  The rest are
    sorted by (f1, f2), and a distinct row is dominated iff its f2 is no
    smaller than the least f2 of the distinct rows before it: every earlier
    row is no worse in f1, and every dominator sorts earlier.

    From three objectives up, a dominating point never has a larger rounded
    coordinate sum (rounded addition is monotone), and among equal sums it
    comes first in lexicographic order, so points are swept in (sum,
    lexicographic) order and tested against the nondominated archive built
    so far; by transitivity a dominated dominator is always covered by
    whichever archive point dominates it.  Each chunk of candidates needs a
    single boolean block against archive + chunk, ANDed in place one
    objective at a time, with each candidate's pairing with itself masked
    out.  The answer equals the all-pairs filter's; the work is candidates
    times archive size times M byte comparisons, in blocks of at most 512
    rows.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of points")
    n, m = pts.shape
    keep = np.ones(n, dtype=bool)
    if n == 0 or m == 0:  # without objectives all rows are equal
        return keep
    if m == 2:
        rows = np.flatnonzero(~np.isnan(pts).any(axis=1))
        order = rows[np.lexsort(pts[rows].T[::-1])]
    else:
        # Clipping is monotone, and it stops +inf and -inf in one row from
        # summing to NaN, which would sort a dominator last.
        big = np.finfo(float).max / (2 * m)
        order = np.lexsort((*pts.T[::-1], np.clip(pts, -big, big).sum(axis=-1)))
    sorted_pts = pts[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(sorted_pts[1:] != sorted_pts[:-1], axis=-1)
    distinct = np.ascontiguousarray(sorted_pts[first].T)  # one row per objective
    if m == 2:
        alive = np.ones(distinct.shape[1], dtype=bool)
        alive[1:] = distinct[1, 1:] < np.minimum.accumulate(distinct[1])[:-1]
    else:
        alive = _archive_sweep(distinct)
    keep[order] = alive[np.cumsum(first) - 1]
    return keep


def _archive_sweep(distinct: np.ndarray) -> np.ndarray:
    """Nondominated flags of distinct points, one column each, in sweep order."""
    m, count = distinct.shape
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
    return alive


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


def _window_minima(rb, r0, a_cols, lo, hi, near, buf, screen):
    """Lower near to the row minima of rb against the columns lo:hi of a_cols.

    rb holds reference rows r0 onwards.  The columns go in chunks of at most
    the size of buf.  The screen settles a chunk when there is one and the
    chunk stays under its cap; otherwise the chunk is computed in cdist order.
    """
    total, term, mask = buf
    rows = rb.shape[1]
    step = max(1, total.size // rows)
    for c0 in range(lo, hi, step):
        ab = a_cols[:, c0:min(hi, c0 + step)]
        cols = ab.shape[1]
        size = rows * cols
        if screen is not None and _screened_block(
                screen, r0, c0, rb, ab, near, total[:size].reshape(rows, cols),
                mask[:size].reshape(rows, cols)):
            continue
        # numpy loops fastest along the longer side, so it goes last.
        if cols >= rows:
            shape, axis, rb_, ab_ = (rows, cols), 1, rb[:, :, None], ab[:, None, :]
        else:
            shape, axis, rb_, ab_ = (cols, rows), 0, rb[:, None, :], ab[:, :, None]
        acc = _squared_distances(rb_, ab_, total[:size].reshape(shape),
                                 term[:size].reshape(shape))
        np.minimum(near, acc.min(axis=axis), out=near)


def _nearest(r, a):
    """Squared nearest distances of the rows of r; see igd for the decisions."""
    m = r.shape[1]
    prune = m < _SCREEN_DIMS and np.isfinite(a).all() and np.isfinite(r).all()
    screen = _screen_terms(r, a) if m >= _SCREEN_DIMS else None
    if prune:
        order = np.argsort(r[:, 0], kind="stable")
        r, a = r[order], a[np.argsort(a[:, 0], kind="stable")]
        pos = np.searchsorted(a[:, 0], r[:, 0])
        rows = max(_SWEEP_ROWS, _IGD_BLOCK // a.shape[0])
    else:
        # Blocks this short see all of a in one chunk, which one screen settles.
        rows = max(1, _IGD_BLOCK // a.shape[0])
    r_cols, a_cols = r.T.copy(), a.T.copy()
    x = a_cols[0]
    total = np.empty(rows * max(1, _IGD_BLOCK // rows))
    buf = total, np.empty_like(total), np.empty(total.shape, dtype=bool)
    nearest = np.full(r.shape[0], np.inf)
    for r0 in range(0, r.shape[0], rows):
        near = nearest[r0:r0 + rows]
        rb = r_cols[:, r0:r0 + rows]
        if not prune:
            _window_minima(rb, r0, a_cols, 0, x.size, near, buf, screen)
            continue
        lo = max(0, pos[r0] - _SWEEP_SEED)
        hi = min(x.size, pos[r0 + rb.shape[1] - 1] + _SWEEP_SEED)
        _window_minima(rb, r0, a_cols, lo, hi, near, buf, screen)
        reach = np.sqrt(near) * (1 + 2.0 ** -40)
        left = np.searchsorted(x, (rb[0] - reach).min())
        right = np.searchsorted(x, (rb[0] + reach).max(), side="right")
        _window_minima(rb, r0, a_cols, left, lo, near, buf, screen)
        _window_minima(rb, r0, a_cols, hi, right, near, buf, screen)
    if prune:  # the mean sums pairwise, so it must see the rows in input order
        nearest[order] = nearest.copy()
    return nearest


def igd(approximation, reference) -> float:
    """Mean distance from each reference point to its nearest approximation.

    Accepts plain arrays or FrontSample objects.  Lower is better; zero iff
    every reference point coincides with some approximation point.

    The result is exact: the same double as the row minima of scipy's cdist
    matrix, averaged.  Squared differences are summed one coordinate at a
    time, in cdist's order, and the square root is taken after the minimum;
    being monotone and correctly rounded, it commutes with the minimum.

    One loop hands each block of reference rows one or more windows of
    approximation columns, settled in chunks of at most 65536 distance
    entries (two float blocks and one bool block, about 1.1 MB), so memory
    stays O(r + a).  Two decisions, made once per call, only pick which
    pairs are skipped; every pair computed at all is computed in full.
    Prune (below five objectives, finite inputs) takes the windows from the
    sorted sweep below; screen (from five up, finite inputs) offers each
    chunk to the BLAS screen below first.  Otherwise a block of
    max(1, 65536 // a) rows gets all of a as one window, so one screened
    chunk covers it.

    Below five objectives, with finite inputs, a sorted sweep on coordinate
    0 (Friedman, Baskett and Shustek, IEEE Trans. Comput. C-24(10), 1975)
    skips the pairs that cannot be a row minimum.  Both sets are sorted by
    coordinate 0.  Each block of max(64, 65536 // a) consecutive reference
    rows first meets a seed window of approximations around its position,
    four either side, which gives each row an upper bound b_i on its
    computed minimum.  The window is then widened on either side to every
    x_j within R_i = sqrt(b_i) (1 + 2^-40) of some row's y_i, and only the
    added pairs are computed.  Why it is exact: the computed distance adds
    nonnegative rounded terms to its first one, and rounded addition is
    monotone, so d_ij >= fl(fl(y_i - x_j)^2).  A skipped x_j lies below
    fl(y_i - R_i) or above fl(y_i + R_i); since x_j is a double and rounding
    is monotone, |y_i - x_j| > R_i exactly, so |fl(y_i - x_j)| >= R_i and
    d_ij >= fl(R_i^2).  The margin keeps the computed R_i above sqrt(b_i)
    through the roundings of the square root and the product, so R_i^2 >
    b_i and, rounding being monotone into the subnormal range too,
    fl(R_i^2) >= b_i.  So no skipped pair is below b_i, and every row
    minimum is unchanged.  The minima are put back in input order before
    the mean, whose pairwise summation is order-sensitive.
    On fronts this computes a few percent of the r * a pairs; when the
    windows span all of a, it costs the plain blocks plus the seed.

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

    Fallbacks take the plain blocks, O(r * a * M) time: any NaN or infinite
    input below five objectives; from five up, any NaN or infinite input or
    a squared norm near overflow, for the whole call, and any block keeping
    more than 16 candidates per reference row (near-ties).
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
    return float(np.sqrt(_nearest(r, a)).mean())


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
    objectives.  Identical seeds give identical reports.  The radius must not
    pass half the largest double, so that the range of the draw stays finite.
    """
    top = float(np.finfo(float).max) / 2
    if not 0 < radius <= top:
        raise ValueError(f"perturbation radius must lie in (0, {top!r}], got {radius}")
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
