"""Known-solution machinery: reference fronts, Pareto-set samples, IGD.

The front is sampled directly in objective space: a grid over the
meta-variable cube is pushed through the position map and the evaluator's
objective stage at the optimal g.  The matching decision-space construction
realizes each grid point as a concrete position vector and pins the distance
variables at the landscape's global minimizer.  Both take the optimum from
_optimal_distance, so every row whose angle the front keeps evaluates onto it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .constraints import constraint_table
from .distance import ROBUST_MINIMIZER, valley_center
from .evaluator import (Evaluation, _landscape_g, _objective_stage, _position_stage,
                        evaluate)
from .position import meta_variables, realize_position
from .spec import ProblemSpec, _integer


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
    """Distance-optimal decision vectors (g = g*) at the targets' angles.

    Rows whose angle the front drops (infeasible or dominated) are kept;
    see pareto_set_sample for the filter that yields the Pareto set.

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
    The index is held in the smallest unsigned type that holds both
    count - 1 and the largest base, so numpy can divide it by any base, and
    one divmod per digit gives the digit and the next quotient.  The last
    index has the most digits in every base, so the column is done when it
    reaches 0.
    """
    out = np.zeros((count, m - 1))
    bases = _primes(m - 1)
    index = np.arange(count, dtype=np.min_scalar_type(max(count - 1, bases[-1])))
    for col, base in enumerate(bases):
        quotient = index
        weight = 1.0 / base
        while quotient[-1:].any():
            quotient, digit = np.divmod(quotient, base)
            out[:, col] += digit * weight
            weight /= base
    return out


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


_CHUNK = 256  # candidate rows tested against the archive at a time
_IGD_BLOCK = 1 << 16  # distance entries held at a time by igd
_SCREEN_DIMS = 6  # igd screens candidates with a matrix product from here up
_SCREEN_CAP = 16  # screened candidates per reference row before a block is recomputed
_SCREEN_NORM_MAX = np.finfo(float).max / 8  # larger squared norms skip the screen
_SWEEP_ROWS = 64  # fewest reference rows per block of igd's sorted sweep
_SWEEP_SEED = 4  # approximations either side of an igd row or sweep block that seed its bound
_SWEEP_WIDE = 0.25  # share of a past which an open igd row skips the sweep
_PERTURB_BLOCK = 1 << 16  # sample entries held at a time by perturb_experiment


def dominance_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of points not dominated by any other point.

    A point is dropped iff some point is no worse in every objective and
    strictly better in at least one (minimization).  Exact duplicates do not
    eliminate each other.

    Rows holding a NaN compare false with everything, so they are set aside
    and kept.  One argsort per objective gives every other row its dense
    rank in that column: a running count of the value changes along the
    sorted column, so -0.0 == 0.0 and the infinities keep their order.  The
    ranks, one row per objective in the smallest unsigned type that holds
    the largest, keep every <= between the non-NaN doubles, so the answer is
    unchanged.  A lexsort of the ranks gives the order of the maxima sweeps
    of Kung, Luccio and Preparata (J. ACM 22(4), 1975): a distinct dominator
    is no worse in every objective, so it has the smaller rank in the first
    one where the two differ and sorts earlier.  Equal rows end up adjacent;
    only the first of each run is swept, and the rest share its verdict.
    Between distinct points "no worse in every objective" already implies
    "strictly better in one".

    Up to two objectives the sweep is exact in O(n log n): a distinct point
    is dominated iff its last rank is no smaller than the least last rank
    of the distinct points before it, since every earlier one is no worse
    in objective 0.

    Three objectives are their O(n log n) sweep too.  A staircase holds the
    (f2, f3) rank minima of the distinct points so far, f2 rising and f3
    falling, in two lists searched by bisection.  A distinct point is
    dominated iff the entry with the largest f2 <= its f2 has f3 <= its f3:
    that entry has the least f3 of all earlier points with f2 no larger.  A
    kept point replaces the entries it covers, one slice of the lists.

    From four objectives up the distinct points are tested in sweep order
    against the nondominated archive built so far; by transitivity a
    dominated dominator is always covered by whichever archive point
    dominates it.  Each chunk of at most 256 candidates needs a single
    boolean block against archive + chunk, ANDed in place one objective at
    a time, reading 1, 2 or 4 bytes a value instead of 8.  Objective 0 is
    never compared: the archive and the chunk's earlier rows sort first, so
    their rank there is no larger.  A later distinct point cannot cover an
    earlier one, as it would then sort first, so a strictly lower triangle
    over the chunk's own columns drops those pairs and each candidate's
    pairing with itself.  Ties in objective 0 are no exception, since the
    lexsort orders them by the remaining ranks.  The answer equals the
    all-pairs filter's; the work is candidates times archive size times
    M - 1 comparisons, and the two boolean blocks of a chunk against a
    3375-point archive take 1.7 MB.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of points")
    n, m = pts.shape
    keep = np.ones(n, dtype=bool)
    if n == 0 or m == 0:  # without objectives all rows are equal
        return keep
    rows = np.flatnonzero(~np.isnan(pts).any(axis=1))
    ranks = np.empty((m, rows.size), dtype=np.min_scalar_type(rows.size - 1))
    rank = np.zeros(rows.size, dtype=ranks.dtype)  # rank[0] stays 0
    for j in range(m):
        col = pts[rows, j]
        by_value = np.argsort(col)
        col = col[by_value]
        np.not_equal(col[1:], col[:-1], out=rank[1:])
        ranks[j, by_value] = np.cumsum(rank, out=rank)
    order = np.lexsort(ranks[::-1])
    # take and compress keep one row per objective contiguous.
    ranks = np.take(ranks, order, axis=1)
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ranks[:, 1:] != ranks[:, :-1], axis=0)
    distinct = np.compress(first, ranks, axis=1)
    if m <= 2:
        alive = np.ones(distinct.shape[1], dtype=bool)
        alive[1:] = distinct[-1, 1:] < np.minimum.accumulate(distinct[-1])[:-1]
    elif m == 3:
        alive = _staircase(distinct[1], distinct[2])
    else:
        alive = _archive_sweep(distinct)
    keep[rows[order]] = alive[np.cumsum(first) - 1]
    return keep


def _staircase(f2: np.ndarray, f3: np.ndarray) -> np.ndarray:
    """Nondominated flags of distinct points in sweep order, from their f2 and f3 ranks."""
    xs, ys = [], []  # the staircase: f2 and -f3, both strictly rising
    alive = []
    # The ranks are unsigned, so they are widened before they are negated.
    for x, y in zip(f2.tolist(), (-f3.astype(np.intp)).tolist()):
        j = bisect_right(xs, x)
        if j and ys[j - 1] >= y:  # the entry with the largest f2 <= x has f3 <= -y
            alive.append(False)
            continue
        lo = bisect_left(xs, x, 0, j)
        hi = bisect_right(ys, y, lo)  # entries from lo on with f3 >= -y are covered
        xs[lo:hi] = [x]
        ys[lo:hi] = [y]
        alive.append(True)
    return np.array(alive, dtype=bool)


def _archive_sweep(distinct: np.ndarray) -> np.ndarray:
    """Nondominated flags of distinct points, one column each, in sweep order.

    distinct holds the ranks of four or more objectives, its columns in
    lexicographic order.  Chunks of _CHUNK candidates are tested against
    the archive of kept points plus the chunk itself, in objectives 1 to
    M - 1 only; dominance_mask has the argument.
    """
    m, count = distinct.shape
    archive = np.empty_like(distinct)
    size = 0
    alive = np.empty(count, dtype=bool)
    earlier = np.tri(min(count, _CHUNK), k=-1, dtype=bool)  # [i, k]: k < i
    for start in range(0, count, _CHUNK):
        chunk = distinct[:, start:start + _CHUNK]
        rows = chunk.shape[1]
        # Every archive point and every earlier chunk row sorts first, so
        # its objective 0 is no larger and is not compared.  A later row
        # cannot cover an earlier one, so the triangle drops those pairs,
        # the pairing of each row with itself included.
        archive[:, size:size + rows] = chunk
        against = archive[:, :size + rows]
        covered = np.less_equal(against[1], chunk[1][:, None])
        scratch = np.empty_like(covered)
        for j in range(2, m):
            covered &= np.less_equal(against[j], chunk[j][:, None], out=scratch)
        covered[:, size:] &= earlier[:rows, :rows]
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
    """([-2r, 1], [a^T; squared norms of a], twice the slack e) for igd's screen.

    The first two are the factors whose product is |a_j|^2 - 2 r_i.a_j,
    with one row per reference point and one column per approximation.
    None when a squared norm is NaN, infinite or near overflow, which
    covers every non-finite coordinate.
    """
    r_sq = np.einsum("ij,ij->i", r, r)
    a_sq = np.einsum("ij,ij->i", a, a)
    a_max = a_sq.max()
    if not r_sq.max() + a_max <= _SCREEN_NORM_MAX:
        return None
    finfo = np.finfo(float)
    e = 6 * (r.shape[1] + 4) * (finfo.eps / 2 * (r_sq + a_max) + finfo.smallest_subnormal)
    return np.column_stack([-2.0 * r, np.ones(r.shape[0])]), np.vstack([a.T, a_sq]), 2 * e


def _screened_block(screen, r0, a0, rb, ab, near, out, mask):
    """Lower near to the exact minima of the block at (r0, a0) via the screen.

    Returns False, leaving near alone, when the block keeps more than
    _SCREEN_CAP candidates per reference row.
    """
    r_aug, a_aug, slack = screen
    rows, cols = out.shape
    # Two half-width products: OpenBLAS spreads one 32 x 11 x 2000 product
    # over two threads, slower than one, and its second thread then spins.
    half = cols // 2
    for lo, hi in ((0, half), (half, cols)):
        np.matmul(r_aug[r0:r0 + rows], a_aug[:, a0 + lo:a0 + hi], out=out[:, lo:hi])
    limit = out.min(axis=1)
    limit += slack[r0:r0 + rows]
    flat = np.flatnonzero(np.less_equal(out, limit[:, None], out=mask))
    if flat.size > _SCREEN_CAP * rows:
        return False
    ri, cj = np.divmod(flat, cols)
    d = _squared_distances(rb[:, ri], ab[:, cj], np.empty(flat.size), np.empty(flat.size))
    first = np.ones(ri.size, dtype=bool)
    np.not_equal(ri[1:], ri[:-1], out=first[1:])
    starts = np.flatnonzero(first)
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


def _seed_minima(r_cols, a_cols, nearest, buf):
    """Fill nearest from each row's seed window; return the windows' (lo, hi).

    A row's seed window is the 2 * _SWEEP_SEED approximations around its
    position in a_cols, which is sorted on coordinate 0, shifted to stay
    inside a_cols (all of them when there are fewer).  Rows go in chunks
    that gather at most one buffer of approximation coordinates.
    """
    m, n = a_cols.shape
    k = min(2 * _SWEEP_SEED, n)
    lo = np.searchsorted(a_cols[0], r_cols[0]) - _SWEEP_SEED
    np.clip(lo, 0, n - k, out=lo)
    total, term, _ = buf
    step = max(1, total.size // (k * m))
    for r0 in range(0, lo.size, step):
        cols = np.arange(k)[:, None] + lo[r0:r0 + step]
        acc = _squared_distances(r_cols[:, None, r0:r0 + step], np.take(a_cols, cols, axis=1),
                                 total[:cols.size].reshape(cols.shape),
                                 term[:cols.size].reshape(cols.shape))
        acc.min(axis=0, out=nearest[r0:r0 + step])
    return lo, lo + k


def _swept_minima(r_cols, a_cols, near, buf):
    """Lower near to the row minima of r_cols, sorted on coordinate 0, by the sweep.

    Returns the rows it leaves open: those whose reach, after their block's
    seed window, spans more than a share _SWEEP_WIDE of a.
    """
    x = a_cols[0]
    pos = np.searchsorted(x, r_cols[0])
    rows = max(_SWEEP_ROWS, _IGD_BLOCK // x.size)
    wide = np.zeros(near.size, dtype=bool)
    for r0 in range(0, near.size, rows):
        nb = near[r0:r0 + rows]
        rb = r_cols[:, r0:r0 + rows]
        lo = max(0, pos[r0] - _SWEEP_SEED)
        hi = min(x.size, pos[r0 + rb.shape[1] - 1] + _SWEEP_SEED)
        _window_minima(rb, r0, a_cols, lo, hi, nb, buf, None)
        reach = np.sqrt(nb) * (1 + 2.0 ** -40)
        left = np.searchsorted(x, rb[0] - reach)
        right = np.searchsorted(x, rb[0] + reach, side="right")
        narrow = right - left <= _SWEEP_WIDE * x.size
        wide[r0:r0 + rows] = ~narrow
        # Wide rows leave the block; without any, rows and bounds stay views.
        keep = slice(None) if narrow.all() else narrow
        rn, nn = rb[:, keep], nb[keep]
        if nn.size:
            _window_minima(rn, r0, a_cols, left[keep].min(), lo, nn, buf, None)
            _window_minima(rn, r0, a_cols, hi, right[keep].max(), nn, buf, None)
            nb[keep] = nn
    return np.flatnonzero(wide)


def _nearest(r, a):
    """Squared nearest distances of the rows of r; see igd for the decisions."""
    finite = np.isfinite(a).all() and np.isfinite(r).all()
    if finite:
        order = np.argsort(r[:, 0])
        r, a = r[order], a[np.argsort(a[:, 0])]
    r_cols, a_cols = r.T.copy(), a.T.copy()
    total = np.empty(_IGD_BLOCK)
    buf = total, np.empty_like(total), np.empty(total.shape, dtype=bool)
    nearest = np.full(r.shape[0], np.inf)
    plain = np.arange(r.shape[0])
    if finite:
        lo, hi = _seed_minima(r_cols, a_cols, nearest, buf)
        # A row stays open unless its bound is 0, below which no squared
        # distance lies, or the approximations just outside its seed window
        # lie beyond its reach.
        reach = np.sqrt(nearest) * (1 + 2.0 ** -40)
        x = np.concatenate(([-np.inf], a_cols[0], [np.inf]))
        plain = np.flatnonzero((nearest > 0) & ((x[lo] >= r_cols[0] - reach)
                                                | (x[hi + 1] <= r_cols[0] + reach)))
        if r.shape[1] < _SCREEN_DIMS and plain.size:
            near = nearest[plain]
            wide = _swept_minima(r_cols[:, plain], a_cols, near, buf)
            nearest[plain] = near
            plain = plain[wide]
    if plain.size:
        # Blocks this short see all of a in one chunk, which one screen settles.
        screen = _screen_terms(r[plain], a)
        rows = max(1, _IGD_BLOCK // a.shape[0])
        near = nearest[plain]
        pc = r_cols[:, plain]
        for r0 in range(0, plain.size, rows):
            _window_minima(pc[:, r0:r0 + rows], r0, a_cols, 0, a.shape[0],
                           near[r0:r0 + rows], buf, screen)
        nearest[plain] = near
    if finite:  # the mean sums pairwise, so it must see the rows in input order
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

    Up to three steps settle the reference rows; each only picks which
    pairs are skipped, and every pair computed at all is computed in full,
    in chunks of at most 65536 distance entries (two float blocks and one
    bool block, about 1.1 MB), so memory stays O(r + a).  With finite
    inputs, both sets are sorted by coordinate 0 and every row first meets
    its own seed window; the rows left open go on to the sorted sweep below
    six objectives and to the plain blocks from six up.  A NaN or infinite
    input sends every row to the plain blocks.

    Seeds.  A reference row's seed window is the eight approximations around
    its position on coordinate 0, shifted to stay inside a (all of a when
    there are fewer).  Its computed minimum there is an upper bound b_i on
    its computed row minimum, and its reach is every x_j within
    R_i = sqrt(b_i) (1 + 2^-40) of y_i.  A row whose reach lies inside its
    seed window is settled: b_i is its minimum.  So is a row with b_i = 0,
    however many approximations share its coordinate 0, since no computed
    squared distance is negative.  Why it is exact: the
    computed distance adds nonnegative rounded terms to its first one, and
    rounded addition is monotone, so d_ij >= fl(fl(y_i - x_j)^2).  An x_j
    outside the reach lies below fl(y_i - R_i) or above fl(y_i + R_i);
    since x_j is a double and rounding is monotone, |y_i - x_j| > R_i
    exactly, so |fl(y_i - x_j)| >= R_i and d_ij >= fl(R_i^2).  The margin
    keeps the computed R_i above sqrt(b_i) through the roundings of the
    square root and the product, so R_i^2 > b_i and, rounding being
    monotone into the subnormal range too, fl(R_i^2) >= b_i.  So no skipped
    pair is below b_i.  The seed pass takes 8 M coordinate differences per
    row and gathers at most 65536 coordinates at a time.  Beside a front,
    where an approximation sits next to most rows, it settles most of them.

    Sweep (Friedman, Baskett and Shustek, IEEE Trans. Comput. C-24(10),
    1975).  The open rows, still sorted, go in blocks of max(64, 65536 // a).
    Each block meets a shared window, from four approximations before its
    first row's position to four after its last, which lowers every b_i.
    By the argument above a row then needs only the x_j within its new
    reach, and the block computes the union of those windows.  A row whose
    reach spans more than a quarter of a goes on to the plain blocks
    instead.  On fronts the seeds and the sweep compute a few percent of the
    r * a pairs.

    Plain blocks of max(1, 65536 // a) rows each meet all of a as one chunk,
    which the BLAS screen below settles where it applies.  The minima are
    put back in input order before the mean, whose pairwise summation is
    order-sensitive.

    In the plain blocks a BLAS screen picks the candidates first.  One
    matrix product per block, of the rows [-2 r_i, 1] by the columns
    [a_j; |a_j|^2], gives s_ij = |a_j|^2 - 2 r_i.a_j, which is
    |r_i - a_j|^2 - |r_i|^2 and so orders the j like the distance does.
    It is taken in two halves of the columns, each small enough for
    OpenBLAS to keep on one thread.  Why it keeps the cdist minimum: let
    N_i = |r_i|^2 + max_j |a_j|^2 and u the unit roundoff.  Each s_ij is a
    dot product of M + 1 terms: M products whose absolute values sum to at
    most 2 |r_i| |a_j|, and the computed |a_j|^2, itself within
    gamma_M |a_j|^2 of the true one.  In any summation order, so for any
    BLAS thread count, the computed s_ij is then within
    gamma_{M+1} (2 |r_i| |a_j| + |a_j|^2) + gamma_M |a_j|^2 <= (3M + 2) u N_i
    of its true value, and the cdist-order d_ij within (2M + 4) u N_i of the
    true squared distance, which is at most 2 N_i (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1;
    gamma_n = n u / (1 - n u), to first order in u).  Gradual underflow
    adds at most half a smallest subnormal per rounded product: M + 1 in the
    matrix product (the exact 1 * |a_j|^2 counted too) and M in |a_j|^2 for
    s_ij, and M for d_ij.  So if j* minimizes d_ij and j0 minimizes the
    computed s_ij, then s_ij* <= s_ij0 + 2 (5M + 6) u N_i + (3M + 1)
    subnormals.  The screen keeps every j with s_ij <= min_k s_ik + 2 e_i,
    e_i = 6 (M + 4) (u N_i + one subnormal), which covers j* with
    (2M + 36) u N_i and 9M + 47 subnormals to spare for the rounding of the
    threshold itself and for the higher-order terms.  Only the kept pairs
    are recomputed, in cdist order, so every row minimum is unchanged.

    Fallbacks compute every pair of a plain block, O(rows * a * M) time:
    any NaN or infinite input, for the whole call; a squared norm near
    overflow, for the rows the seeds and the sweep leave open; and any block
    keeping more than 16 candidates per reference row (near-ties).
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


def _count(value, name: str, least: int) -> int:
    """value as a plain int by the spec's integer rule, or a ValueError naming it."""
    count = _integer(value)
    if count is None or count < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return count


def _optimal_distance(phi: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Pareto-optimal distance parts (B, S) at angles phi: valley centers or ROBUST_MINIMIZER."""
    s = spec.distance_vars
    if spec.g_landscape == "deceptive":
        return valley_center(phi[:, None], np.arange(1, s + 1, dtype=float))
    return np.full((phi.shape[0], s), ROBUST_MINIMIZER)


def front_sample(spec: ProblemSpec, resolution: int,
                 feasible_only: bool = True) -> FrontSample:
    """Sample the known Pareto front at the optimal g.

    g* is the landscape's g at one optimal distance part, as it does not
    depend on the angle: 0 on deceptive landscapes and S * 1.9e-4 on robust
    ones, so the Pareto set attains every front.  The points come from the
    evaluator's objective stage at g*, dissimilarity included.  Grid
    resolution counts points per meta-variable axis (total points for the
    low-discrepancy regime are resolution cubed).  Constraint-violating
    points are dropped first, then the dominance filter runs on the final
    points; an empty result is legitimate, not an error.  Dissimilarity is
    increasing in every component, but its rounding can merge components
    closer together than about 1e-16, so the filter runs after it.
    """
    resolution = _count(resolution, "resolution", 2)
    m = spec.objectives
    # Lattices explode past four objectives; switch to a low-discrepancy set.
    targets = _set_targets(m, resolution ** (m - 1) if m <= 4 else resolution ** 3)
    f_p, phi = _position_stage(targets, spec)
    g = _landscape_g(_optimal_distance(phi[:1], spec), phi[:1], spec)
    _, pts = _objective_stage(np.full_like(phi, g[0]), f_p, phi, spec)
    if feasible_only and spec.constraints:
        _, viol = constraint_table(f_p, spec.constraints)
        mask = np.all(viol == 0.0, axis=-1)
        pts, f_p, phi = pts[mask], f_p[mask], phi[mask]
    keep = dominance_mask(pts)
    pts, f_p, phi = pts[keep], f_p[keep], phi[keep]
    return FrontSample(points=pts, position_points=f_p, phis=phi,
                       resolution=resolution,
                       feasible_only=bool(feasible_only))


def pareto_set_sample(spec: ProblemSpec, n: int) -> SetSample:
    """n decision vectors that are distance-optimal (g = g*) at every target.

    Where the front drops an angle, because a constraint excludes it or the
    radial profile leaves it dominated, the row is not Pareto-optimal.  The
    Pareto set is the rows that evaluate_arrays(vectors, spec).feasible
    keeps, then those whose objectives pass dominance_mask.

    Position parts are realized from the meta-variable targets; distance
    parts sit at the landscape optimum, which depends on the angle of the
    realized position point for the deceptive landscape (per-variable valley
    centers) and is the constant brittle minimizer for the robust one.  The
    angle is recomputed from the realized position through the evaluator's
    position stage, so the evaluator sees the distance variables exactly on
    target.
    """
    n = _count(n, "n", 1)
    targets = _set_targets(spec.objectives, n)
    q, t = spec.meta_q, spec.meta_t
    x_p = realize_position(targets, q, t)
    y = meta_variables(x_p, q, t)
    residuals = np.max(np.abs(y - targets), axis=-1)
    _, phi = _position_stage(y, spec)
    return SetSample(vectors=np.concatenate([x_p, _optimal_distance(phi, spec)], axis=1),
                     residuals=residuals)


def perturb_experiment(x, radius: float, samples: int, spec: ProblemSpec,
                       seed: int = 0) -> PerturbReport:
    """Measure objective displacement under uniform distance-variable noise.

    Draws `samples` perturbations uniformly from [-radius, radius]^S, adds
    them to the distance part only, clips to the box, re-evaluates, and
    reports the worst and mean Euclidean displacement from the unperturbed
    objectives.  Identical seeds give identical reports.  The radius must not
    pass half the largest double, so that the range of the draw stays finite.

    Samples run in blocks of about _PERTURB_BLOCK draws, so memory is one
    double per sample for the displacements plus a fixed block, not
    samples x S.  The blocks' draws concatenate to one (samples, S) draw from
    the same generator, and the mean is taken once over all displacements,
    so the report does not depend on the block size.
    """
    _check_perturbation(radius, samples)
    return _perturbed(x, radius, samples, spec, seed)


def _check_perturbation(radius: float, samples: int) -> None:
    """Reject a perturbation radius or sample count before any row is evaluated."""
    top = float(np.finfo(float).max) / 2
    if not 0 < radius <= top:
        raise ValueError(f"perturbation radius must lie in (0, {top!r}], got {radius}")
    _count(samples, "samples", 1)


def _perturbed(x, radius: float, samples: int, spec: ProblemSpec, seed: int,
               base: Evaluation | None = None) -> PerturbReport:
    """perturb_experiment around x, whose Evaluation base a caller may pass in.

    radius and samples have passed _check_perturbation; x is evaluated
    unless base is given.
    """
    if base is None:
        base = evaluate(x, spec)
    x_d = np.asarray(x, dtype=float)[spec.position_dim:]
    n = int(samples)
    s = spec.distance_vars
    step = min(n, max(1, _PERTURB_BLOCK // s))
    rng = np.random.default_rng(seed)
    # Every sample shares the position part, so only g and the objective stage
    # run per sample.  phi is a filled column, not a broadcast view, so the
    # ufuncs that read it directly see the layout a full batch gives them.
    f_p = np.broadcast_to(np.asarray(base.position_point), (step, spec.objectives))
    phi = np.full(step, base.distance_phi)
    f_0 = np.asarray(base.objectives)
    disp = np.empty(n)
    for lo in range(0, n, step):
        b = min(step, n - lo)
        delta = rng.uniform(-radius, radius, size=(b, s))
        g = _landscape_g(np.clip(x_d + delta, 0.0, 1.0), phi[:b], spec)
        _, f = _objective_stage(g, f_p[:b], phi[:b], spec)
        moved = f - f_0
        disp[lo:lo + b] = np.sqrt(np.sum(moved * moved, axis=-1))
    return PerturbReport(worst=float(disp.max()), mean=float(disp.mean()),
                         base_objectives=base.objectives,
                         radius=float(radius), samples=n,
                         seed=int(seed))
