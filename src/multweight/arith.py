"""Prime sieving and factorization infrastructure.

Everything here is built once and then read-only: the tables are plain
numpy arrays, immutable by convention after construction, and safe to
share across threads without synchronization.

The smallest-prime-factor (spf) table is the workhorse: it factors any
n <= limit in O(log n) divisions, which is what makes exact full-range
scans of factorization statistics affordable up to 10^7-10^8.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# spf entries are int32: 4 bytes per entry, so the default ceiling of
# 10^8 entries costs ~400 MB.  Override with the environment variable
# below (an integer number of entries).
DEFAULT_MAX_SIEVE = 10**8
MAX_SIEVE_ENV = "MULTWEIGHT_MAX_SIEVE"


class CapacityError(Exception):
    """Requested sieve exceeds the configured memory budget."""


def sieve_budget() -> int:
    raw = os.environ.get(MAX_SIEVE_ENV)
    if raw is None:
        return DEFAULT_MAX_SIEVE
    return int(float(raw))


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for 2 <= n <= limit.

    Attributes:
        limit: largest indexable n.
        spf: int32 array of length limit+1; spf[n] is the smallest prime
            dividing n (spf[p] = p exactly when p is prime; entries 0 and
            1 are unused).
    """

    limit: int
    spf: np.ndarray

    def primes(self) -> np.ndarray:
        """All primes <= limit, increasing (p is prime iff spf[p] = p)."""
        n = np.arange(2, self.limit + 1, dtype=self.spf.dtype)
        return (np.nonzero(self.spf[2:] == n)[0] + 2).astype(np.int64)


@dataclass(frozen=True)
class FactorProfile:
    """Prime factorization of one integer.

    factors is a tuple of (prime, multiplicity) pairs with strictly
    increasing primes; n = 1 has an empty tuple.
    """

    n: int
    factors: tuple[tuple[int, int], ...]


def build_spf(x: int) -> SpfTable:
    """Sieve the smallest prime factor of every n <= x.

    Eratosthenes-style: primes are visited in increasing order and mark
    only entries not already claimed by a smaller prime, so each
    composite ends up with its smallest prime factor.

    Raises:
        CapacityError: x exceeds the configured entry budget.
        ValueError: x < 2.
    """
    if x < 2:
        raise ValueError(f"sieve limit must be >= 2, got {x}")
    if x > sieve_budget():
        raise CapacityError(
            f"sieve limit {x} exceeds entry budget {sieve_budget()} "
            f"(4 bytes/entry; raise {MAX_SIEVE_ENV} to override)"
        )
    spf = np.zeros(x + 1, dtype=np.int32)
    for p in range(2, math.isqrt(x) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    # remaining zeros (beyond index 1) are the primes not touched above
    rem = spf == 0
    rem[:2] = False
    idx = np.nonzero(rem)[0]
    spf[idx] = idx
    return SpfTable(limit=x, spf=spf)


def factorize(n: int, t: SpfTable) -> FactorProfile:
    """Factor n by repeated division by spf[n]; n = 1 gives no factors."""
    if n < 1 or n > t.limit:
        raise ValueError(f"n={n} outside table range [1, {t.limit}]")
    spf = t.spf
    factors = []
    m = n
    while m > 1:
        p = int(spf[m])
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        factors.append((p, k))
    return FactorProfile(n=n, factors=tuple(factors))


def factor_matrix(ns: np.ndarray, t: SpfTable) -> np.ndarray:
    """The prime factors of every n in ns at once: row i holds those of ns[i]
    with multiplicity, nondecreasing, then 1s up to the largest Omega (int64).
    Each round divides the unfinished n by their spf: at most log2 n rounds.
    """
    rem = np.asarray(ns, dtype=np.int64)
    if rem.size and (rem.min() < 1 or rem.max() > t.limit):
        raise ValueError(f"n outside table range [1, {t.limit}]")
    out = np.ones((len(rem), int(rem.max(initial=1)).bit_length() - 1), dtype=np.int64)
    idx = np.flatnonzero(rem > 1)
    rem, j = rem[idx], 0
    while len(idx):
        out[idx, j] = p = t.spf[rem]
        rem //= p
        idx, rem, j = idx[rem > 1], rem[rem > 1], j + 1
    return out[:, :j]


def primes_in(lo: int, hi: int, t: SpfTable) -> np.ndarray:
    """Primes p with lo <= p <= hi, increasing."""
    if hi > t.limit:
        raise ValueError(f"interval end {hi} beyond table limit {t.limit}")
    lo = max(lo, 2)
    if lo > hi:
        return np.array([], dtype=np.int64)
    n = np.arange(lo, hi + 1, dtype=t.spf.dtype)
    return (np.nonzero(t.spf[lo : hi + 1] == n)[0] + lo).astype(np.int64)


def primes_upto(x: int) -> np.ndarray:
    """Primes <= x via a plain boolean Eratosthenes sieve.

    Independent of SpfTable (1 byte/entry), intended for the prime-sum
    machinery where only the primes themselves are needed.
    """
    if x < 2:
        return np.array([], dtype=np.int64)
    if x > sieve_budget():
        raise CapacityError(f"sieve limit {x} exceeds entry budget {sieve_budget()}")
    is_p = np.ones(x + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.nonzero(is_p)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# Dense factorization-statistic tables.
#
# These are vectorized equivalents of mapping factorize() over 1..limit,
# used for exact distribution scans.  Tests cross-check them against the
# per-n FactorProfile route.
# ---------------------------------------------------------------------------


def _split_at_root(x: int, t: SpfTable) -> tuple[list[np.ndarray], np.ndarray]:
    """(levels, cof) for n <= x: levels[k-1] holds the primes p <= sqrt(x)
    with p^k <= x, increasing; cof[n] (int32, cof[0] = 0) is 1 or the one
    prime factor of n above sqrt(x), as no n <= x has two.
    """
    if x > t.limit:
        raise ValueError(f"x={x} beyond sieve limit {t.limit}")
    ps = primes_in(2, math.isqrt(x), t)
    levels = [ps]
    while len(ps := ps[ps ** (len(levels) + 1) <= x]):
        levels.append(ps)
    cof = np.arange(x + 1, dtype=np.int32)
    for k, ps in enumerate(levels, 1):
        for p in ps.tolist():
            cof[p**k :: p**k] //= p
    return levels, cof


def big_omega_table(t: SpfTable) -> np.ndarray:
    """Omega(n) (prime factors with multiplicity) for n = 0..limit, int8."""
    levels, cof = _split_at_root(t.limit, t)
    om = np.zeros(t.limit + 1, dtype=np.int8)
    for k, ps in enumerate(levels, 1):
        for p in ps.tolist():
            om[p**k :: p**k] += 1
    om += cof > 1
    return om


def omega_table(t: SpfTable) -> np.ndarray:
    """omega(n) (distinct prime factors) for n = 0..limit, int8."""
    levels, cof = _split_at_root(t.limit, t)
    om = np.zeros(t.limit + 1, dtype=np.int8)
    for p in levels[0].tolist():
        om[p::p] += 1
    om += cof > 1
    return om


def require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")


def nu_p_table(x: int, p: int) -> np.ndarray:
    """nu_p(n) for n = 0..x and a prime p, int8; needs no sieve."""
    require_prime(p)
    nu = np.zeros(x + 1, dtype=np.int8)
    pk = p
    while pk <= x:
        nu[pk::pk] += 1
        if pk > x // p:
            break
        pk *= p
    return nu


def largest_prime_table(t: SpfTable) -> np.ndarray:
    """p_1(n), the largest prime factor, for n = 0..limit (entry 1 is 1).

    Ascending overwrite by the primes <= sqrt(limit) leaves the largest of
    them that divides n; a cofactor above 1 exceeds them all.
    """
    levels, cof = _split_at_root(t.limit, t)
    lpf = np.zeros(t.limit + 1, dtype=np.int32)
    lpf[1] = 1
    for p in levels[0].tolist():
        lpf[p::p] = p
    return np.maximum(lpf, cof, out=lpf)
