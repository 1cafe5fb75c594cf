"""Ewens and generalized Ewens measures on permutations.

The measure weights a permutation by prod_i theta_i^(C_i), normalized by
the partition function h_n = (1/n!) sum_pi prod theta_i^(C_i(pi)).  The
table of h_m values solves the recursion

    m h_m = sum_{k=1}^{m} theta_k h_{m-k},

a standard exponential-formula identity, as a divide-and-conquer online
convolution: FFT across blocks, and inside each block of 256 entries one
lower-triangular solve (BLAS dtrsv) of (diag(m) - Toeplitz(theta)) h = the
terms of earlier blocks.  A block whose h spans more than the float range
is solved in halves, each against its own log scale, down to single
entries; an h_m that still cannot be held raises ValueError.  The table is
validated against the definitional sum by exhaustive enumeration for small
n, and against the direct O(n^2) recursion, in floats and in the log
domain, in the tests.

Generalized Ewens sampling removes, round by round, the cycle containing
the smallest remaining element, which has length k with probability
theta_k h_{m-k} / (m h_m).  Ewens(theta) draws need no table: the Feller
coupling jumps from one success to the next, one round per cycle.  Either
way one round serves every draw of a batch at once, and both are validated
against enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations
from typing import NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CycleWeights:
    """Per-length cycle weights theta_1..theta_n (finite, nonnegative, some positive)."""

    n: int
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if len(t) != self.n:
            raise ValueError("need exactly n weights")
        if not np.all(np.isfinite(t)) or np.any(t < 0) or not np.any(t > 0):
            raise ValueError("weights must be finite and nonnegative with at least one positive")
        object.__setattr__(self, "theta", t)

    def log_theta(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.theta)


def constant_weights(n: int, theta: float) -> CycleWeights:
    if theta <= 0:
        raise ValueError("theta must be positive")
    return CycleWeights(n=n, theta=np.full(n, float(theta)))


def poly_weights(gamma: float, n: int) -> CycleWeights:
    """theta_i = Gamma(gamma + i + 1)/i! = (1 + o(1)) i^gamma, in log-gamma form."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    from scipy.special import gammaln  # vector log-gamma; here, so importing the CLI does not load scipy

    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore"):  # a theta_i past the float range is rejected by CycleWeights
        return CycleWeights(n=n, theta=np.exp(gammaln(gamma + i + 1.0) - gammaln(i + 1.0)))


class CycleLengths(NamedTuple):
    """Cycle lengths of a batch of draws, flat and row-major: lengths[j] is
    a cycle of draw rows[j], and each draw's cycle containing its smallest
    element comes first."""

    rows: np.ndarray
    lengths: np.ndarray


@dataclass(frozen=True)
class PartitionFunctionTable:
    """log h_0..log h_n for given cycle weights (log domain, so h far past
    the float range is held)."""

    weights: CycleWeights
    log_h: np.ndarray

    @property
    def n(self) -> int:
        return len(self.log_h) - 1


# Blocks of _LEAF entries are solved as one triangular system; longer ones
# pass their terms on in pieces of at most _PIECE entries, one FFT of twice
# that each.  The accumulator of their terms is rescaled by 1/_WINDOW whenever
# a solved h in it passes a ceiling of at most _WINDOW (see partition_function).
_LEAF, _PIECE = 256, 1 << 14
_WINDOW = 1e280


def _solve_leaf(a: np.ndarray, r: np.ndarray, c: float, lo: int) -> np.ndarray:
    """log h of a h = r e^c, a lower triangular, row 0 being h_lo.

    r is divided by its largest entry first.  Where the solution holds a
    value that is not finite or above _WINDOW, the rows are solved again as
    two halves, the first half's terms added to the second half's
    right-hand side against the larger of their two log scales.

    Raises:
        ValueError: a single h_m is still not finite.
    """
    from scipy.linalg.blas import dtrsv  # here, so importing the CLI does not load scipy.linalg

    top = r.max()
    if 0 < top < math.inf:
        r, c = r / top, c + math.log(top)
    h = dtrsv(a, r, lower=1)
    if np.all(np.isfinite(h)) and h.max() <= _WINDOW:
        with np.errstate(divide="ignore"):
            return np.log(h) + c
    if len(r) == 1:
        raise ValueError(f"h_{lo} of the partition function cannot be held in floating point: the cycle weights grow too fast")
    k = len(r) // 2
    first = _solve_leaf(a[:k, :k], r[:k], c, lo)
    rest, top = r[k:], first.max()
    if top > -math.inf:
        both = max(c, top)
        rest = rest * math.exp(c - both) - a[k:, :k] @ np.exp(first - top) * math.exp(top - both)
        c = both
    return np.concatenate((first, _solve_leaf(a[k:, k:], rest, c, lo + k)))


def partition_function(w: CycleWeights) -> PartitionFunctionTable:
    """Build h_0..h_n from the recursion as an online convolution in
    O(n log^2 n) (van der Hoeven, Relax, but don't be too lazy, J. Symb.
    Comput. 2002).

    h is solved _LEAF entries at a time on top of an accumulator acc of the
    terms theta_k h_i of earlier blocks: the leaf's equations are
    (D - T) h = acc, D = diag(m) and T the Toeplitz matrix of
    theta_1..theta_(_LEAF - 1) below the diagonal, built once, so each leaf
    is one BLAS triangular solve (dtrsv) after the diagonal is overwritten.
    The right-hand side is divided by its largest entry before the solve;
    where the solution still passes 1e280 or is not finite, the leaf is
    solved in halves, down to single entries (see _solve_leaf).  Where a
    block [mid - half, mid) of half = 2^j _LEAF entries completes (mid an
    odd multiple of half), its terms for [mid, mid + half) are added by
    FFT, so every term lands before its h_m is solved.  The accumulator
    lives in a floating window, rescaled by 1e-280 whenever a solved h
    passes its ceiling in it (the recursion is linear, so a uniform rescale
    is invisible); the leaves' logs are taken against the cumulative scale.
    The ceiling is 1e280 or, if lower, the float maximum / ((n + 1) theta_max)
    with theta_max the largest of 1 and the theta_k: an entry of the
    accumulator sums at most n + 1 terms theta_k h_i, so it cannot overflow.
    An FFT is tilted, a_i e^(-tau i) and b_k e^(-tau k), by half the
    growth rate of h, so its roundoff scales with the terms that dominate
    each h_m, not the largest far ones; outputs within its roundoff bound
    are zero, and zero terms stay exact zeros in the solve, so an h_m that
    no cycle type reaches stays exactly 0.

    Raises:
        ValueError: an h_m that some cycle type reaches cannot be held
            (a sum of its terms theta_k h_i passes the float range).
    """
    n = w.n
    size = min(_LEAF, n + 1)
    theta = np.concatenate(([0.0], w.theta[: size - 1]))
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    mat = np.asfortranarray(-theta[np.maximum(lag, 0)])  # -theta_(i-j) below the diagonal
    diag = mat.reshape(-1, order="F")[:: size + 1]  # a view: D is written here per leaf
    acc = np.zeros(_LEAF << (n // _LEAF).bit_length())  # terms theta_k h_{m-k} of completed blocks
    log_h = np.full(n + 1, -math.inf)
    scale = 0.0  # log of the cumulative rescale factor taken OUT of acc
    ceiling = min(math.log(_WINDOW), math.log(np.finfo(float).max / (n + 1) / max(w.theta.max(), 1.0)))
    for lo in range(0, n + 1, _LEAF):
        hi = min(lo + _LEAF, n + 1)
        r = acc[lo:hi].copy()
        diag[:] = np.arange(lo, lo + size)
        if lo == 0:
            r[0] = diag[0] = 1.0  # h_0 = 1
        log_h[lo:hi] = _solve_leaf(mat[: hi - lo, : hi - lo], r, scale, lo)
        while log_h[lo:hi].max() - scale > ceiling:
            acc[hi:] /= _WINDOW
            scale += math.log(_WINDOW)
        mid = lo + _LEAF
        if mid > n:
            break
        half = mid & -mid
        la = log_h[mid - half : mid]
        with np.errstate(invalid="ignore"):
            slope = (la[-half // 4 :].max() - la[-half // 2 : -half // 4].max()) / (half // 4)
        tau = 0.5 * slope if 0 < slope < math.inf else 0.0
        step = min(half, _PIECE)
        for p in range(mid - half, mid, step):
            for q in range(mid, min(mid + half, n + 1), step):
                # h_i theta_k, i in [p, p + step), m = i + k in [q, q + step): with
                # a_(i-p) = h_i and b_j = theta_(k0+j), k0 = q - p - step + 1, the
                # lag i - p + j = m - q + step - 1 lies in [step - 1, 2 step - 1),
                # where a cyclic length of 2 step does not alias
                k0 = q - p - step + 1
                a = log_h[p : p + step] - tau * np.arange(step)
                with np.errstate(divide="ignore"):
                    b = np.log(w.theta[k0 - 1 : k0 + 2 * step - 2])
                b -= tau * np.arange(len(b))
                sa, sb = a.max(), b.max()
                if sa == -math.inf or sb == -math.inf:
                    continue
                a, b = np.exp(a - sa), np.exp(b - sb)
                c = np.fft.irfft(np.fft.rfft(a, 2 * step) * np.fft.rfft(b, 2 * step), 2 * step)[step - 1 : 2 * step - 1]
                c[c <= 4 * _EPS * math.log2(2 * step) * math.sqrt(np.dot(a, a) * np.dot(b, b))] = 0.0
                with np.errstate(divide="ignore", over="ignore"):
                    acc[q : q + step] += np.exp(np.log(c) + tau * np.arange(step - 1, 2 * step - 1) + (sa + sb - scale))
    return PartitionFunctionTable(weights=w, log_h=log_h)


def first_cycle_pmf(table: PartitionFunctionTable, m: int) -> np.ndarray:
    """P(cycle containing the smallest of m remaining elements has length k),
    k = 1..m: theta_k h_{m-k} / (m h_m)."""
    w = table.weights
    ks = np.arange(1, m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = (
            w.log_theta()[ks - 1]
            + table.log_h[m - ks]
            - table.log_h[m]
            - math.log(m)
        )
    p = np.exp(logp)
    p[~np.isfinite(p)] = 0.0
    return p


# The first-cycle scan: chunks of lengths start this wide and double, and
# one step evaluates at most _STEP_CAP probabilities over the draws it scans.
_FIRST_CHUNK = 128
_STEP_CAP = 1 << 16


def _first_cycle_lengths(log_theta: np.ndarray, log_h: np.ndarray, m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw, the smallest k with sum_{j<=k} theta_j h_{m-j} / (m h_m) >= u.

    The cumulative sums of all draws are scanned together, one chunk of
    lengths per step, and a draw leaves the scan at its k, so the work
    tracks the cycle lengths rather than m.  Where roundoff leaves the
    total short of u, the cycle takes the rest: k = m.
    """
    n = len(log_theta)
    k = m.copy()
    base = log_h[m] + np.log(m)
    acc = np.zeros(len(m))
    scan = np.arange(len(m))
    lo, width = 0, _FIRST_CHUNK
    while len(scan):
        step = max(1, min(width, _STEP_CAP // len(scan)))
        ks = np.arange(lo + 1, lo + step + 1)
        ms = m[scan]
        rest = ms[:, None] - ks
        past_m = rest < 0
        np.maximum(rest, 0, out=rest)
        # c = log theta_k + log h_{m-k} - base, then its exp and running sum,
        # built in one buffer: the scan's memory is two arrays of one step
        c = log_h[rest]
        c += log_theta[np.minimum(ks, n) - 1]
        with np.errstate(invalid="ignore"):
            c -= base[scan, None]
        np.exp(c, out=c)
        c[past_m] = 0.0
        np.cumsum(c, axis=1, out=c)
        c += acc[scan, None]
        j = np.count_nonzero(c < u[scan, None], axis=1)  # searchsorted(c, u, side="left") per row
        hit = j < step
        k[scan[hit]] = lo + 1 + j[hit]
        acc[scan] = c[:, -1]
        scan = scan[~hit & (ms > lo + step)]
        lo += step
        width *= 2
    return k


def _draw_by_rounds(n: int, size: int, rng: np.random.Generator, next_cycle) -> CycleLengths:
    """`size` draws on n elements, one cycle per unfinished draw per round:
    next_cycle(m, u) is the length of the cycle each draw with m elements
    left removes, given one uniform per draw.  Each draw's cycles are
    listed in the order they were removed."""
    active = np.arange(size)
    m = np.full(size, n, dtype=np.int64)
    rows, lengths = [active[:0]], [m[:0]]  # empty heads, so size = 0 concatenates
    while len(active):
        k = next_cycle(m, rng.random(len(active)))
        rows.append(active)
        lengths.append(k)
        m -= k
        active, m = active[m > 0], m[m > 0]
    # each round's rows are sorted, so a stable sort keeps every draw's
    # cycles in the order they were drawn
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    return CycleLengths(rows[order], np.concatenate(lengths)[order])


def sample_cycle_types(
    w: CycleWeights, table: PartitionFunctionTable, rng: np.random.Generator, size: int
) -> CycleLengths:
    """`size` draws from the generalized Ewens measure, as cycle lengths.

    Each round removes from every unfinished draw the cycle containing its
    smallest remaining element, which of m remaining elements has length k
    with probability theta_k h_{m-k} / (m h_m) (Arratia, Barbour & Tavare,
    Logarithmic Combinatorial Structures, 2003).
    """
    if table.n < w.n:
        raise ValueError("partition table shorter than n")
    log_theta = w.log_theta()
    return _draw_by_rounds(w.n, size, rng, lambda m, u: _first_cycle_lengths(log_theta, table.log_h, m, u))


def ewens_cycle_lengths(n: int, theta: float, rng: np.random.Generator, size: int) -> CycleLengths:
    """Cycle lengths of `size` Ewens(theta) draws via the Feller coupling.

    Independent xi_i ~ Bernoulli(theta/(theta + i - 1)), i = 1..n, and a
    forced success at n+1: the spacings between successes have the Ewens
    cycle-count law, the last one being the cycle of the smallest element
    (Arratia, Barbour & Tavare, Logarithmic Combinatorial Structures, 2003).
    No indicator is drawn: from a success at s the next one is the first
    j > s whose survival prod_{l=s+1..j} (l-1)/(theta+l-1) falls below a
    uniform, or n+1, found by one search per round over all draws.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    # -log of the survival from 1 to j = 1..n, increasing
    neg_l = np.concatenate(([0.0], np.cumsum(np.log1p(theta / np.arange(1, n)))))

    def spacing(m, u):  # from the success at s = n + 1 - m to the next one
        s = n + 1 - m
        with np.errstate(divide="ignore"):
            return np.searchsorted(neg_l, neg_l[s - 1] - np.log(u), side="right") + 1 - s

    rows, lengths = _draw_by_rounds(n, size, rng, spacing)
    # reversed, each draw lists the cycle of its smallest element first;
    # the draws are exchangeable, so relabelling row r as size - 1 - r
    # changes no law
    return CycleLengths(size - 1 - rows[::-1], lengths[::-1])


def exact_mean_cycle_count(table: PartitionFunctionTable) -> float:
    """E C(pi) = sum_k (theta_k / k) h_{n-k}/h_n = sum_k P(L_1 = k) n / k,
    exact from the table."""
    n = table.n
    return float(np.sum(first_cycle_pmf(table, n) * n / np.arange(1, n + 1)))


# ---------------------------------------------------------------------------
# Exhaustive small-n oracles
# ---------------------------------------------------------------------------


def _partitions(n: int, max_part: int | None = None):
    """Yield integer partitions of n as nonincreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _class_size_log(n: int, counts: dict[int, int]) -> float:
    # log of the conjugacy class size n!/prod(i^C_i C_i!), an exact integer
    size = math.factorial(n)
    for i, c in counts.items():
        size //= i**c * math.factorial(c)
    return math.log(size)


@dataclass(frozen=True)
class ExactSnDistribution:
    """Exact laws under the generalized Ewens measure on S_n.

    type_probs: probability of each cycle type (partition of n).
    l1_pmf / typ_pmf: law of the cycle containing element 1, and of a
    size-biased cycle; they agree for any conjugation-invariant measure.
    """

    n: int
    type_probs: dict[tuple[int, ...], float]
    l1_pmf: np.ndarray
    typ_pmf: np.ndarray

    def cycle_count_pmf(self) -> np.ndarray:
        out = np.zeros(self.n + 1)
        for part, p in self.type_probs.items():
            out[len(part)] += p
        return out


def enumerate_Sn(n: int, w: CycleWeights, max_n: int = 20) -> ExactSnDistribution:
    """Exact distribution by iterating partitions with class sizes.

    The size-biased cycle pmf uses P(pick length k | type) = k C_k / n.
    The L_1 pmf is computed the same way here; for an independent route
    see enumerate_Sn_by_permutations, which walks all n! permutations.
    """
    if n > max_n:
        raise ValueError(f"n={n} too large for exact enumeration (max {max_n})")
    if w.n < n:
        raise ValueError("weights shorter than n")
    with np.errstate(divide="ignore"):
        log_theta = np.log(w.theta)
    logs = []
    parts = []
    for part in _partitions(n):
        counts: dict[int, int] = {}
        for piece in part:
            counts[piece] = counts.get(piece, 0) + 1
        lw = _class_size_log(n, counts)
        for i, c in counts.items():
            lw += c * log_theta[i - 1]
        parts.append(part)
        logs.append(lw)
    logs_arr = np.array(logs)
    finite = np.isfinite(logs_arr)
    mx = logs_arr[finite].max()
    probs = np.where(finite, np.exp(logs_arr - mx, where=finite, out=np.zeros_like(logs_arr)), 0.0)
    probs /= probs.sum()
    type_probs = {part: float(p) for part, p in zip(parts, probs) if p > 0}
    l1 = np.zeros(n + 1)
    for part, p in type_probs.items():
        for piece in set(part):
            l1[piece] += p * piece * part.count(piece) / n
    return ExactSnDistribution(n=n, type_probs=type_probs, l1_pmf=l1, typ_pmf=l1.copy())


def enumerate_Sn_by_permutations(n: int, w: CycleWeights, max_n: int = 8) -> ExactSnDistribution:
    """Exact distribution by walking all n! permutations.

    Independent of the partition/class-size route; L_1 is read off as the
    actual cycle containing element 0, the size-biased pmf from the
    definition k C_k / n per permutation.
    """
    if n > max_n:
        raise ValueError(f"n={n} too large for permutation enumeration (max {max_n})")
    theta = w.theta
    type_mass: dict[tuple[int, ...], float] = {}
    l1 = np.zeros(n + 1)
    typ = np.zeros(n + 1)
    total = 0.0
    for pm in iter_permutations(range(n)):
        seen = [False] * n
        lens = []
        l1_len = 0
        weight = 1.0
        for i in range(n):
            if seen[i]:
                continue
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = pm[j]
                ln += 1
            lens.append(ln)
            weight *= theta[ln - 1]
            if i == 0:
                l1_len = ln
        total += weight
        key = tuple(sorted(lens, reverse=True))
        type_mass[key] = type_mass.get(key, 0.0) + weight
        l1[l1_len] += weight
        for ln in set(lens):
            typ[ln] += weight * ln * lens.count(ln) / n
    if total <= 0:
        raise ValueError("all permutations have zero weight")
    type_probs = {k: v / total for k, v in type_mass.items() if v > 0}
    return ExactSnDistribution(n=n, type_probs=type_probs, l1_pmf=l1 / total, typ_pmf=typ / total)
