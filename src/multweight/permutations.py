"""Ewens and generalized Ewens measures on permutations.

The measure weights a permutation by prod_i theta_i^(C_i), normalized by
the partition function h_n = (1/n!) sum_pi prod theta_i^(C_i(pi)).  The
table of h_m values is built from the recursion

    m h_m = sum_{k=1}^{m} theta_k h_{m-k},

a standard exponential-formula identity, validated here against the
definitional sum by exhaustive enumeration for small n.

Sampling is sequential: the cycle containing the smallest remaining
element has length k with probability theta_k h_{m-k} / (m h_m); the rule
is likewise validated against enumeration before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class CycleWeights:
    """Per-length cycle weights theta_1..theta_n (nonnegative, some positive)."""

    n: int
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if len(t) != self.n:
            raise ValueError("need exactly n weights")
        if np.any(t < 0) or not np.any(t > 0):
            raise ValueError("weights must be nonnegative with at least one positive")
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
    i = np.arange(1, n + 1, dtype=float)
    return CycleWeights(n=n, theta=np.exp(gammaln(gamma + i + 1.0) - gammaln(i + 1.0)))


@dataclass(frozen=True)
class CycleType:
    """Cycle lengths of one permutation, sorted nonincreasing.

    first_length, when present, is the length of the cycle containing the
    smallest element (the distinguished-element cycle the samplers draw
    first); it is not part of the multiset identity.
    """

    lengths: tuple[int, ...]
    first_length: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths, reverse=True)))

    @property
    def n(self) -> int:
        return sum(self.lengths)

    @property
    def num_cycles(self) -> int:
        return len(self.lengths)

    def count_of(self, i: int) -> int:
        return sum(1 for l in self.lengths if l == i)

    def longest(self) -> int:
        return self.lengths[0]


@dataclass(frozen=True)
class PartitionFunctionTable:
    """log h_0..log h_n for given cycle weights (log domain throughout,
    so polynomially growing weights cannot overflow)."""

    weights: CycleWeights
    log_h: np.ndarray

    @property
    def n(self) -> int:
        return len(self.log_h) - 1

    def h(self, m: int) -> float:
        return math.exp(self.log_h[m])


def partition_function(w: CycleWeights) -> PartitionFunctionTable:
    """Build h_0..h_n via the convolution recursion.

    The running array is kept in a floating window (rescaled uniformly by
    1e-280 whenever the head grows past 1e280; the recursion is linear in
    h so a uniform rescale is invisible) and per-index logs are captured
    at computation time.
    """
    n = w.n
    theta_rev = np.ascontiguousarray(w.theta[::-1])
    h = np.zeros(n + 1)
    h[0] = 1.0
    log_h = np.zeros(n + 1)
    scale = 0.0  # log of the cumulative rescale factor taken OUT of h
    for m in range(1, n + 1):
        v = float(np.dot(theta_rev[n - m : n], h[:m])) / m
        if v > 1e280:
            h[:m] *= 1e-280
            v *= 1e-280
            scale += math.log(1e280)
        h[m] = v
        log_h[m] = (math.log(v) if v > 0 else -math.inf) + scale
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


def sample_cycle_type(
    w: CycleWeights,
    table: PartitionFunctionTable,
    rng: np.random.Generator,
    chunk: int = 2048,
) -> CycleType:
    """One draw from the generalized Ewens measure (as a cycle type).

    Sequentially removes the cycle containing the smallest remaining
    element.  The first-cycle probabilities are scanned in chunks with an
    early exit, so the expected work per cycle tracks the typical cycle
    length rather than m.
    """
    if table.n < w.n:
        raise ValueError("partition table shorter than n")
    log_theta = w.log_theta()
    log_h = table.log_h
    lengths: list[int] = []
    m = w.n
    while m > 0:
        u = rng.random()
        base = log_h[m] + math.log(m)
        acc = 0.0
        k = None
        k0 = 0
        while k0 < m:
            hi = min(k0 + chunk, m)
            ks = np.arange(k0 + 1, hi + 1)
            probs = np.exp(log_theta[ks - 1] + log_h[m - ks] - base)
            c = np.cumsum(probs) + acc
            j = int(np.searchsorted(c, u, side="left"))
            if j < len(c):
                k = int(ks[j])
                break
            acc = float(c[-1])
            k0 = hi
        if k is None:
            k = m  # cumulative roundoff fell short of u; mass belongs to the tail
        lengths.append(k)
        m -= k
    return CycleType(lengths=tuple(lengths), first_length=lengths[0])


def sample_cycle_types_batch(
    w: CycleWeights,
    table: PartitionFunctionTable,
    rng: np.random.Generator,
    size: int,
    as_counts: bool = False,
):
    """Vectorized batch of draws, grouped by remaining size m.

    Meant for small n with large sample counts (distribution tests); the
    per-m first-cycle CDFs are precomputed once.  With as_counts=True the
    return value is (counts, first) where counts[i, l] is the number of
    l-cycles in draw i and first[i] the first-cycle length; otherwise a
    list of CycleType objects.
    """
    n = w.n
    cdfs = [None] * (n + 1)
    for m in range(1, n + 1):
        cdfs[m] = np.cumsum(first_cycle_pmf(table, m))
    remaining = np.full(size, n, dtype=np.int64)
    first = np.zeros(size, dtype=np.int64)
    counts = np.zeros((size, n + 1), dtype=np.int16)
    active = np.arange(size)
    first_round = True
    while len(active):
        ms = remaining[active]
        for m in np.unique(ms):
            sel = active[ms == m]
            u = rng.random(len(sel))
            ks = np.searchsorted(cdfs[m], u, side="left") + 1
            ks = np.minimum(ks, m)
            counts[sel, ks] += 1
            remaining[sel] -= ks
            if first_round:
                first[sel] = ks
        first_round = False
        active = active[remaining[active] > 0]
    if as_counts:
        return counts, first
    out = []
    for i in range(size):
        lens = []
        for length in range(1, n + 1):
            lens.extend([length] * int(counts[i, length]))
        out.append(CycleType(lengths=tuple(lens), first_length=int(first[i])))
    return out


def ewens_crp(n: int, theta: float, rng: np.random.Generator) -> CycleType:
    """Ewens(theta) draw via the Chinese-restaurant construction.

    Element i starts a new cycle with probability theta/(theta + i - 1),
    otherwise it joins the cycle of a uniformly chosen earlier element.
    first_length tracks the cycle containing element 1.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    sizes = [1]
    cycle_of = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        if rng.random() < theta / (theta + i):
            cycle_of[i] = len(sizes)
            sizes.append(1)
        else:
            j = int(rng.integers(0, i))
            c = int(cycle_of[j])
            cycle_of[i] = c
            sizes[c] += 1
    return CycleType(lengths=tuple(sizes), first_length=sizes[0])


def ewens_cycle_count_samples(
    n: int, theta: float, rng: np.random.Generator, size: int, chunk_cols: int = 2**22
) -> np.ndarray:
    """C(pi) under Ewens(theta), sampled as a sum of independent Bernoullis.

    In the CRP the new-cycle indicators at steps i = 1..n are independent
    Bernoulli(theta/(theta + i - 1)); their sum is the cycle count.
    """
    ps = theta / (theta + np.arange(n, dtype=float))
    out = np.zeros(size, dtype=np.int64)
    start = 0
    cols = max(1, chunk_cols // max(size, 1))
    while start < n:
        end = min(start + cols, n)
        out += (rng.random((size, end - start)) < ps[start:end]).sum(axis=1)
        start = end
    return out


def feller_cycle_samples(
    n: int, theta: float, rng: np.random.Generator, size: int
) -> list[np.ndarray]:
    """Batch of Ewens(theta) cycle-length multisets via the Feller coupling.

    Independent xi_i ~ Bernoulli(theta/(theta + i - 1)) for i = 1..n with a
    forced success appended at n+1; the spacings between successes have
    exactly the Ewens cycle-count law.  Returns one length array per draw
    (no distinguished element).
    """
    ps = theta / (theta + np.arange(n, dtype=float))
    out = []
    chunk = max(1, (1 << 24) // n)
    done = 0
    while done < size:
        m = min(chunk, size - done)
        xi = rng.random((m, n)) < ps
        xi[:, 0] = True
        for row in xi:
            pos = np.nonzero(row)[0]
            lens = np.diff(np.concatenate([pos, [n]]))
            out.append(lens)
        done += m
    return out


def exact_mean_cycle_count(table: PartitionFunctionTable) -> float:
    """E C(pi) = sum_j (theta_j / j) h_{n-j}/h_n, exact from the table."""
    w = table.weights
    n = w.n
    js = np.arange(1, n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.exp(
            w.log_theta()[js - 1] - np.log(js) + table.log_h[n - js] - table.log_h[n]
        )
    terms[~np.isfinite(terms)] = 0.0
    return float(np.sum(terms))


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
    # conjugacy class size n!/prod(i^C_i C_i!)
    out = gammaln(n + 1)
    for i, c in counts.items():
        out -= c * math.log(i) + gammaln(c + 1)
    return float(out)


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
