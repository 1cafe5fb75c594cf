"""Prime sieving and factorization infrastructure.

Everything here is built once and then read-only: the tables are plain
numpy arrays, immutable by convention after construction, and safe to
share across threads without synchronization.

The dense tables of the exact scans rest on one fact: n <= x has at most
one prime factor above sqrt(x).  p_1, Omega, omega, nu_p and the weight
tables share one walk (_blocks) over the prime powers of the primes <= sqrt(x),
block by block of n <= x; all but p_1 and nu_p read the larger prime off p_1.
A draw array is factored from the same p_1 table, in O(log n) divisions
per draw.  The smallest-prime-factor (spf) sieve is the independent oracle:
it factors integers one by one for the tests and the brute-force case c01.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# p_1 and spf entries are int32: 4 bytes per entry, so the default ceiling
# of 10^8 entries costs ~400 MB per table.  Override with the environment
# variable below (a positive number of entries).
DEFAULT_MAX_SIEVE = 10**8
MAX_SIEVE_ENV = "MULTWEIGHT_MAX_SIEVE"


class CapacityError(Exception):
    """Requested sieve exceeds the configured memory budget."""


def _check_budget(x: int) -> None:
    """Raise CapacityError if a table of n <= x exceeds the entry budget, and
    ValueError if the budget set in the environment is not a positive finite number."""
    raw = os.environ.get(MAX_SIEVE_ENV, DEFAULT_MAX_SIEVE)
    try:
        budget = float(raw)
    except ValueError:
        budget = math.nan
    if not 0 < budget < math.inf:
        raise ValueError(f"{MAX_SIEVE_ENV}={raw!r} is not a positive finite number of entries")
    if x > budget:
        raise CapacityError(f"limit {x} exceeds entry budget {int(budget)}; raise {MAX_SIEVE_ENV} to override")


@dataclass(frozen=True)
class FactorProfile:
    """Prime factorization of one integer.

    factors is a tuple of (prime, multiplicity) pairs with strictly
    increasing primes; n = 1 has an empty tuple.
    """

    n: int
    factors: tuple[tuple[int, int], ...]


def build_spf(x: int) -> np.ndarray:
    """spf(n), the smallest prime factor, for n = 0..x, int32 (spf[p] = p
    exactly when p is prime; entries 0 and 1 are unused).

    Eratosthenes-style: primes are visited in increasing order and mark
    only entries not already claimed by a smaller prime, so each
    composite ends up with its smallest prime factor.

    Raises:
        CapacityError: x exceeds the configured entry budget.
        ValueError: x < 2.
    """
    if x < 2:
        raise ValueError(f"sieve limit must be >= 2, got {x}")
    _check_budget(x)
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
    return spf


def factorize(n: int, spf: np.ndarray) -> FactorProfile:
    """Factor n by repeated division by spf[n]; n = 1 gives no factors."""
    if n < 1 or n > len(spf) - 1:
        raise ValueError(f"n={n} outside table range [1, {len(spf) - 1}]")
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


def factor_matrix(ns: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """The prime factors of every n in ns at once, from the p_1 table of n <= x,
    x = len(p1) - 1: row i holds 1s up to the largest Omega, then the primes
    of ns[i] with multiplicity, nondecreasing (int64).  Each round divides the
    unfinished n by their p_1 and writes the next column leftwards: at most
    log2 n rounds.
    """
    rem = np.asarray(ns, dtype=np.int64)
    if rem.size and (rem.min() < 1 or rem.max() > len(p1) - 1):
        raise ValueError(f"n outside table range [1, {len(p1) - 1}]")
    out = np.ones((len(rem), int(rem.max(initial=1)).bit_length() - 1), dtype=np.int64)
    idx = np.flatnonzero(rem > 1)
    rem, j = rem[idx], out.shape[1]
    while len(idx):
        j -= 1
        out[idx, j] = p = p1[rem]
        rem //= p
        idx, rem = idx[rem > 1], rem[rem > 1]
    return out[:, j:]


def primes_upto(x: int) -> np.ndarray:
    """Primes <= x, increasing, via a plain boolean Eratosthenes sieve (1 byte/entry)."""
    if x < 2:
        return np.array([], dtype=np.int64)
    _check_budget(x)
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
# them against the per-n FactorProfile route and the dense walk they replaced.
# ---------------------------------------------------------------------------

BLOCK = 1 << 18  # entries per block of n <= x: a prime power's strided writes stay in cache
COUNT_BLOCK = 8 * BLOCK  # int8 entries per block of a count table: the bytes of one float64 block


def _root_levels(x: int) -> list[np.ndarray]:
    """levels[k-1]: the primes p <= sqrt(x) with p^k <= x, increasing."""
    levels = [ps := primes_upto(math.isqrt(x))]
    while len(ps := ps[ps ** (len(levels) + 1) <= x]):
        levels.append(ps)
    return levels


def _blocks(x: int, levels: list[np.ndarray], tags: list[list] | None = None, size: int = BLOCK):
    """Yield (start, stop, walks) for the blocks [start, stop) of `size` entries of n = 1..x.

    walks[k-1] lists (tag, p^k, o) for the primes p of levels[k-1] with a multiple
    of p^k in the block, block[o::p^k]; the tag is p, or the entry of tags[k-1].
    """
    pks = [(ps**k).tolist() for k, ps in enumerate(levels, 1)]
    tags = [ps.tolist() for ps in levels] if tags is None else tags
    for start in range(1, x + 1, size):
        n = min(size, x + 1 - start)
        yield start, start + n, [[(t, q, o) for t, q in zip(*lv) if (o := -start % q) < n] for lv in zip(tags, pks)]


def largest_prime_table(x: int) -> np.ndarray:
    """p_1(n), the largest prime factor, for n = 0..x (p_1(1) = 1), int32.

    Block by block, the multiples of each prime power p^k <= x, p <= sqrt(x),
    are multiplied by p: that builds the sqrt(x)-smooth part s of each n, and
    n // s is 1 or the one prime factor of n above sqrt(x).  It exceeds the
    primes p | n, of which an ascending overwrite leaves the largest.

    Raises:
        CapacityError: x exceeds the configured entry budget.
    """
    _check_budget(x)
    lpf = np.zeros(x + 1, dtype=np.int32)
    for start, stop, walks in _blocks(x, _root_levels(x)):
        out, sm = lpf[start:stop], np.ones(stop - start, dtype=np.int32)
        for p, _, o in walks[0]:
            out[o::p] = p
        for walk in walks:
            for p, pk, o in walk:
                sm[o::pk] *= p
        np.maximum(out, np.arange(start, stop, dtype=np.int32) // sm, out=out)
    return lpf


def big_omega_table(p1: np.ndarray) -> np.ndarray:
    """Omega(n) (prime factors with multiplicity) for n = 0..len(p1) - 1, int8."""
    return _count_table(len(p1) - 1, _root_levels(len(p1) - 1), p1)


def omega_table(p1: np.ndarray) -> np.ndarray:
    """omega(n) (distinct prime factors) for n = 0..len(p1) - 1, int8."""
    return _count_table(len(p1) - 1, _root_levels(len(p1) - 1)[:1], p1)


def _count_table(x: int, levels: list[np.ndarray], p1: np.ndarray | None = None) -> np.ndarray:
    """For n = 0..x, int8: 1 per p^k | n of the levels, plus 1 where p_1(n) > sqrt(x) if p1 is given."""
    om = np.zeros(x + 1, dtype=np.int8)
    for start, stop, walks in _blocks(x, levels, size=COUNT_BLOCK):
        out = om[start:stop]
        if p1 is not None:
            np.greater(p1[start:stop], math.isqrt(x), out=out)
        for walk in walks:
            for _, pk, o in walk:
                out[o::pk] += 1
    return om


def require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")


def nu_p_table(x: int, p: int) -> np.ndarray:
    """nu_p(n) for n = 0..x and a prime p, int8; needs no sieve."""
    require_prime(p)
    k = 0
    while p ** (k + 1) <= x:
        k += 1
    return _count_table(x, [np.array([p])] * k)
