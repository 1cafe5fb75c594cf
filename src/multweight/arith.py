"""Prime sieving and factorization infrastructure.

Everything here is built once and then read-only: the tables are plain
numpy arrays, immutable by convention after construction, and safe to
share across threads without synchronization.

The dense tables of the exact scans rest on one fact: n <= x has at most
one prime factor above sqrt(x).  largest_prime_table makes the one walk
over the prime powers of the primes <= sqrt(x); Omega, omega and the
weight tables read that prime off its p_1 table, where p_1(n) > sqrt(x).
The smallest-prime-factor (spf) table is kept for factoring integers one
by one or a draw array at once, in O(log n) divisions each.
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


def primes_upto(x: int) -> np.ndarray:
    """Primes <= x, increasing, via a plain boolean Eratosthenes sieve (1 byte/entry)."""
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
# These are vectorized equivalents of mapping factorize() over 1..x, used
# for exact distribution scans.  All but nu_p read a p_1 table, with x its
# length - 1, so a prefix p1[:y+1] gives the tables at y.  Tests cross-check
# them against the per-n FactorProfile route.
# ---------------------------------------------------------------------------


def largest_prime_table(x: int) -> np.ndarray:
    """p_1(n), the largest prime factor, for n = 0..x (p_1(1) = 1), int32.

    Dividing every n by the prime powers p^k <= x of the primes p <= sqrt(x)
    leaves a cofactor that is 1 or the one prime factor of n above sqrt(x);
    ascending overwrite by those primes leaves the largest of them dividing
    n, and the cofactor exceeds them all.

    Raises:
        CapacityError: x exceeds the configured entry budget.
    """
    if x > sieve_budget():
        raise CapacityError(
            f"table limit {x} exceeds entry budget {sieve_budget()} "
            f"(4 bytes/entry; raise {MAX_SIEVE_ENV} to override)"
        )
    cof = np.arange(x + 1, dtype=np.int32)
    lpf = np.zeros(x + 1, dtype=np.int32)
    lpf[1:2] = 1
    for p in primes_upto(math.isqrt(x)).tolist():
        lpf[p::p] = p
        pk = p
        while pk <= x:
            cof[pk::pk] //= p
            pk *= p
    return np.maximum(lpf, cof, out=lpf)


def root_prime_powers(p1: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """(levels, big) for the p_1 table of n <= x: levels[k-1] holds the primes
    p <= sqrt(x) with p^k <= x, increasing; big[n] says that p_1(n) is the one
    prime factor of n above sqrt(x)."""
    x = len(p1) - 1
    ps = primes_upto(math.isqrt(x))
    levels = [ps]
    while len(ps := ps[ps ** (len(levels) + 1) <= x]):
        levels.append(ps)
    return levels, p1 > math.isqrt(x)


def big_omega_table(p1: np.ndarray) -> np.ndarray:
    """Omega(n) (prime factors with multiplicity) for n = 0..len(p1) - 1, int8."""
    levels, big = root_prime_powers(p1)
    om = big.astype(np.int8)
    for k, ps in enumerate(levels, 1):
        for p in ps.tolist():
            om[p**k :: p**k] += 1
    return om


def omega_table(p1: np.ndarray) -> np.ndarray:
    """omega(n) (distinct prime factors) for n = 0..len(p1) - 1, int8."""
    levels, big = root_prime_powers(p1)
    om = big.astype(np.int8)
    for p in levels[0].tolist():
        om[p::p] += 1
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
