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

from ._rows import real_array, row_all, row_any, row_max, row_sum
from .constraints import constraint_table
from .distance import ROBUST_MINIMIZER, valley_center
from .evaluator import _landscape_g, _objective_stage, _position_stage, evaluate
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


def _front_targets(m: int, resolution: int) -> int:
    """The number of targets a front of M objectives samples at resolution."""
    # Lattices explode past four objectives; switch to a low-discrepancy set.
    return resolution ** (m - 1 if m <= 4 else 3)


_CHUNK = 256  # candidate rows tested against the archive at a time, at most
_SWEEP_BLOCK = 1 << 18  # comparison entries held at a time by the archive sweep
_IGD_BLOCK = 1 << 16  # distance entries held at a time by igd
_SCREEN_CAP = 16  # screened candidates per reference row before a block is recomputed
_SCREEN_NORM_MAX = np.finfo(float).max / 8  # larger squared norms skip the screen
_SEED = 4  # approximations either side of an igd row's place in the sorted a that bound it
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
    dominates it.  Each chunk of candidates needs a single boolean block
    against archive + chunk, ANDed in place one objective at a time from a
    scratch block of the same shape, reading 1, 2 or 4 bytes a value
    instead of 8.  A chunk holds 256 candidates while the archive has at
    most 768 points, and fewer beyond, so that each block holds at most
    2**18 booleans (256 KiB) until the archive passes 261,888 points, and
    one candidate's row after that.  Every chunk still meets the whole
    archive in one compare per objective; only the candidate side shrinks.
    Objective 0 is never compared: the archive and the chunk's earlier rows
    sort first, so their rank there is no larger.  A later distinct point
    cannot cover an earlier one, as it would then sort first, so a strictly
    lower triangle over the chunk's own columns drops those pairs and each
    candidate's pairing with itself.  Ties in objective 0 are no exception,
    since the lexsort orders them by the remaining ranks.  The answer
    equals the all-pairs filter's; the work is candidates times archive
    size times M - 1 comparisons, and the memory the O(M n) ranks plus the
    two blocks.
    """
    pts = real_array(points)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of points")
    n, m = pts.shape
    keep = np.ones(n, dtype=bool)
    if n == 0 or m == 0:  # without objectives all rows are equal
        return keep
    rows = np.flatnonzero(~row_any(np.isnan(pts)))
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
    lexicographic order.  Chunks of candidates are tested against the
    archive of kept points plus the chunk itself, in objectives 1 to M - 1
    only; dominance_mask has the argument.  A chunk takes at most _CHUNK
    candidates, and as many as keep its block against archive + _CHUNK
    within _SWEEP_BLOCK entries, one at least.
    """
    m, count = distinct.shape
    archive = np.empty_like(distinct)
    size = 0
    alive = np.empty(count, dtype=bool)
    earlier = np.tri(min(count, _CHUNK), k=-1, dtype=bool)  # [i, k]: k < i
    start = 0
    while start < count:
        step = max(1, min(_CHUNK, _SWEEP_BLOCK // (size + _CHUNK)))
        chunk = distinct[:, start:start + step]
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
        start += rows
    return alive


def dominance_filter(points) -> np.ndarray:
    """The nondominated subset, in stable input order."""
    pts = real_array(points)
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


def _screened_block(screen, r0, a0, out, mask, kept):
    """Append the candidates of the block at (r0, a0) to kept, for _kept_minima.

    The candidates go as one (rows, columns) pair of index arrays into the
    screen's rows and columns.  A row's limit is its argmin's screen value
    plus its slack.  When no row has a second entry at or below its limit,
    each row's argmin is its only candidate and no mask is built;
    otherwise a mask of out <= limit picks them.  Returns False, appending
    nothing, when the block keeps more than _SCREEN_CAP candidates per
    reference row.
    """
    r_aug, a_aug, slack = screen
    rows, cols = out.shape
    # Two half-width products: OpenBLAS spreads one 32 x 11 x 2000 product
    # over two threads, slower than one, and its second thread then spins.
    half = cols // 2
    for lo, hi in ((0, half), (half, cols)):
        np.matmul(r_aug[r0:r0 + rows], a_aug[:, a0 + lo:a0 + hi], out=out[:, lo:hi])
    flat_out = out.reshape(-1)
    cj = out.argmin(axis=1)
    at = cj + np.arange(0, rows * cols, cols)
    low = flat_out[at]
    limit = low + slack[r0:r0 + rows]
    flat_out[at] = np.inf
    if (out.min(axis=1) > limit).all():
        ri = np.arange(rows)
    else:
        flat_out[at] = low
        flat = np.flatnonzero(np.less_equal(out, limit[:, None], out=mask))
        if flat.size > _SCREEN_CAP * rows:
            return False
        ri, cj = np.divmod(flat, cols)
    kept.append((ri + r0, cj + a0))
    return True


def _kept_minima(pc, a_cols, near, kept, buf):
    """Lower near by the kept pairs' squared distances, in cdist order.

    The pairs go in batches that gather at most one buffer of coordinates
    from each side; min is exact, so the order they fold in does not matter.
    """
    ri = np.concatenate([i for i, _ in kept])
    cj = np.concatenate([j for _, j in kept])
    total, term, _ = buf
    step = max(1, total.size // pc.shape[0])
    for p0 in range(0, ri.size, step):
        i, j = ri[p0:p0 + step], cj[p0:p0 + step]
        d = _squared_distances(np.take(pc, i, axis=1), np.take(a_cols, j, axis=1),
                               total[:i.size], term[:i.size])
        np.minimum.at(near, i, d)


def _block_minima(rb, r0, a_cols, near, buf, screen, kept):
    """Lower near to the row minima of rb against all of a_cols.

    rb holds the open reference rows r0 onwards.  The columns go in chunks of
    at most the size of buf.  The screen takes a chunk when there is one and
    the chunk stays under its cap, and adds its candidates to kept;
    otherwise the chunk is computed in cdist order.
    """
    total, term, mask = buf
    rows = rb.shape[1]
    step = max(1, total.size // rows)
    for c0 in range(0, a_cols.shape[1], step):
        ab = a_cols[:, c0:c0 + step]
        cols = ab.shape[1]
        size = rows * cols
        if screen is not None and _screened_block(
                screen, r0, c0, total[:size].reshape(rows, cols),
                mask[:size].reshape(rows, cols), kept):
            continue
        acc = _squared_distances(rb[:, :, None], ab[:, None, :],
                                 total[:size].reshape(rows, cols),
                                 term[:size].reshape(rows, cols))
        np.minimum(near, acc.min(axis=1), out=near)


def _seed_minima(r_cols, a_cols, nearest, buf):
    """Fill nearest from each row's seed window; return the windows' (lo, hi).

    A row's seed window is the 2 * _SEED approximations around its position
    in a_cols, which is sorted on coordinate 0, shifted to stay inside
    a_cols (all of them when there are fewer).  Rows go in chunks that
    gather at most one buffer of approximation coordinates.
    """
    m, n = a_cols.shape
    k = min(2 * _SEED, n)
    lo = np.searchsorted(a_cols[0], r_cols[0]) - _SEED
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


def _nearest(r, a):
    """Squared nearest distances of the rows of r; see igd for the decisions."""
    finite = np.isfinite(a).all() and np.isfinite(r).all()
    if finite:
        a = a[np.argsort(a[:, 0])]
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
    if plain.size:
        # Blocks this short see all of a in one chunk, which one screen settles.
        screen = _screen_terms(r[plain], a)
        rows = max(1, _IGD_BLOCK // a.shape[0])
        near = nearest[plain]
        pc = r_cols[:, plain]
        kept = []
        for r0 in range(0, plain.size, rows):
            _block_minima(pc[:, r0:r0 + rows], r0, a_cols, near[r0:r0 + rows], buf, screen,
                          kept)
            # An entry holds at most _SCREEN_CAP pairs per row of its block, so
            # folding once there are as many row slots as open rows keeps the
            # waiting pairs O(r + a).  A call whose chunks all pass the screen
            # folds once, after its last block.
            if len(kept) * rows >= plain.size:
                _kept_minima(pc, a_cols, near, kept, buf)
                kept.clear()
        if kept:
            _kept_minima(pc, a_cols, near, kept, buf)
        nearest[plain] = near
    return nearest


def igd(approximation, reference) -> float:
    """Mean distance from each reference point to its nearest approximation.

    Accepts plain arrays or FrontSample objects.  Lower is better; zero iff
    every reference point coincides with some approximation point.

    The result is exact: the same double as the row minima of scipy's cdist
    matrix, averaged.  Squared differences are summed one coordinate at a
    time, in cdist's order, and the square root is taken after the minimum;
    being monotone and correctly rounded, it commutes with the minimum.

    Two steps settle the reference rows; each only picks which pairs are
    skipped, and every pair computed at all is computed in full, in chunks
    of at most 65536 distance entries (two float blocks and one bool block,
    about 1.1 MB).  With the screen's waiting pairs (below), memory stays
    O(r + a).  With finite inputs, a is sorted by coordinate 0 and every
    row first meets its own seed window; the rows left open go on to the
    plain blocks.  A NaN or infinite input sends every row to the plain
    blocks.  The rows keep their input order throughout, as the mean's
    pairwise summation needs.

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

    Plain blocks of max(1, 65536 // a) open rows each meet all of a as one
    chunk, which the BLAS screen below settles where it applies.  No row's
    minimum depends on which rows share its block.

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
    threshold itself and for the higher-order terms.

    The screen finds those j from each row's argmin j0 first: s_ij0 plus
    2 e_i is the row's limit, the same double as min_k s_ik + 2 e_i, and
    with s_ij0 set aside one more row minimum gives the next value.  When
    every row's next value lies above its limit, each row keeps its j0
    alone and no mask is built; otherwise a mask of s_ij <= limit picks
    the candidates.  The kept (row, column) pairs of all plain blocks wait
    as index arrays and are recomputed once per call, in cdist order, a
    buffer of gathered coordinates at a time, then folded into the row
    minima by an exact minimum, so every row minimum is unchanged.  A
    call whose a needs several chunks per row also folds whenever its
    waiting blocks hold as many rows as there are open rows, so at most
    16 pairs per open row and per chunk of one block wait, O(r + a).

    Fallbacks compute every pair of a plain block, O(rows * a * M) time:
    any NaN or infinite input, for the whole call; a squared norm near
    overflow, for the rows the seeds leave open; and any block
    keeping more than 16 candidates per reference row (near-ties).
    """
    a = real_array(getattr(approximation, "points", approximation))
    r = real_array(getattr(reference, "points", reference))
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


def _optimal_distance(y: np.ndarray, spec: ProblemSpec, phi=None) -> np.ndarray:
    """Pareto-optimal distance parts (B, S) at meta-variables y (B, M-1).

    ROBUST_MINIMIZER on robust landscapes, which need no angle; on deceptive
    ones the valley centers at phi, the angle of y's position point, which
    the position stage gives here unless the caller passes it.
    """
    s = spec.distance_vars
    if spec.g_landscape != "deceptive":
        return np.full((y.shape[0], s), ROBUST_MINIMIZER)
    if phi is None:
        _, phi = _position_stage(y, spec)
    return valley_center(phi[:, None], np.arange(1, s + 1, dtype=float))


def front_sample(spec: ProblemSpec, resolution: int) -> FrontSample:
    """Sample the known Pareto front at the optimal g.

    g* is the landscape's g at one optimal distance part, as it does not
    depend on the angle: 0 on deceptive landscapes and S * 1.9e-4 on robust
    ones, so the Pareto set attains every front.  The points come from the
    evaluator's objective stage at g*, dissimilarity included.  Grid
    resolution counts points per meta-variable axis (total points for the
    low-discrepancy regime are resolution cubed).  Constraint-violating
    points are dropped first (for the front without them, pass
    dataclasses.replace(spec, constraints=())), then the dominance filter
    runs on the final points; an empty result is legitimate, not an error.
    Dissimilarity is increasing in every component, but its rounding can
    merge components closer together than about 1e-16, so the filter runs
    after it.
    """
    resolution = _count(resolution, "resolution", 2)
    m = spec.objectives
    targets = _set_targets(m, _front_targets(m, resolution))
    f_p, phi = _position_stage(targets, spec)
    g = _landscape_g(_optimal_distance(targets[:1], spec, phi[:1]), phi[:1], spec)
    _, pts = _objective_stage(np.full_like(phi, g[0]), f_p, phi, spec)
    if spec.constraints:
        _, viol = constraint_table(f_p, spec.constraints)
        mask = row_all(viol == 0.0)
        pts, f_p, phi = pts[mask], f_p[mask], phi[mask]
    keep = dominance_mask(pts)
    return FrontSample(points=pts[keep], position_points=f_p[keep], phis=phi[keep])


def pareto_set_sample(spec: ProblemSpec, n: int) -> SetSample:
    """n decision vectors that are distance-optimal (g = g*) at every target.

    Where the front drops an angle, because a constraint excludes it or the
    radial profile leaves it dominated, the row is not Pareto-optimal.  The
    Pareto set is the rows that evaluate_arrays(vectors, spec).feasible
    keeps, then those whose objectives pass dominance_mask.

    Position parts are realized from the meta-variable targets; distance
    parts sit at the landscape optimum, which depends on the angle of the
    realized position point for the deceptive landscape (per-variable valley
    centers) and is the constant brittle minimizer for the robust one.  On a
    deceptive landscape the angle is recomputed from the realized position
    through the evaluator's position stage, so the evaluator sees the
    distance variables exactly on target; a robust one needs no angle.
    """
    n = _count(n, "n", 1)
    targets = _set_targets(spec.objectives, n)
    q, t = spec.meta_q, spec.meta_t
    x_p = realize_position(targets, q, t)
    y = meta_variables(x_p, q, t)
    residuals = row_max(np.abs(y - targets))
    return SetSample(vectors=np.concatenate([x_p, _optimal_distance(y, spec)], axis=1),
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
    base = evaluate(x, spec)
    worst, mean = _perturbed(x, base.position_point, base.distance_phi, base.objectives,
                             radius, samples, spec, seed)
    return PerturbReport(worst=worst, mean=mean, base_objectives=base.objectives,
                         radius=float(radius), samples=int(samples), seed=int(seed))


def _check_perturbation(radius: float, samples: int) -> None:
    """Reject a perturbation radius or sample count before any row is evaluated."""
    top = float(np.finfo(float).max) / 2
    if not 0 < radius <= top:
        raise ValueError(f"perturbation radius must lie in (0, {top!r}], got {radius}")
    _count(samples, "samples", 1)


def _perturbed(x, f_p, phi, f_0, radius: float, samples: int, spec: ProblemSpec,
               seed: int) -> tuple[float, float]:
    """perturb_experiment's worst and mean displacement around one evaluated row x.

    f_p, phi and f_0 are x's position point, distance angle and objectives
    as the evaluator gave them; radius and samples have passed
    _check_perturbation.
    """
    x_d = real_array(x)[spec.position_dim:]
    n = int(samples)
    s = spec.distance_vars
    step = min(n, max(1, _PERTURB_BLOCK // s))
    rng = np.random.default_rng(seed)
    # Every sample shares the position part, so only g and the objective stage
    # run per sample.  phi is a filled column, not a broadcast view, so the
    # ufuncs that read it directly see the layout a full batch gives them.
    f_p = np.broadcast_to(np.asarray(f_p), (step, spec.objectives))
    phi = np.full(step, phi)
    f_0 = np.asarray(f_0)
    disp = np.empty(n)
    for lo in range(0, n, step):
        b = min(step, n - lo)
        delta = rng.uniform(-radius, radius, size=(b, s))
        g = _landscape_g(np.clip(x_d + delta, 0.0, 1.0), phi[:b], spec)
        _, f = _objective_stage(g, f_p[:b], phi[:b], spec)
        moved = f - f_0
        disp[lo:lo + b] = np.sqrt(row_sum(moved * moved))
    return float(disp.max()), float(disp.mean())
