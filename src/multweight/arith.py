"""Prime sieving and factorization infrastructure.

Everything here is built once and then read-only: the tables are plain
numpy arrays, immutable by convention after construction, and safe to
share across threads without synchronization.

The exact scans rest on one fact: n <= x has at most one prime factor
above sqrt(x).  One walk (Walk) visits n <= x block by block over the prime
powers of the primes <= sqrt(x); a block multiplies out the sqrt(x)-smooth
part sm of its n, and n // sm is 1 or that larger prime.  Each block gives
p_1, Omega, omega and nu_p (and, in weights, alpha): every exact law, sum
and mean reduces the blocks as they come.  The dense tables copy them into
one array: p_1 for the draws (from which weights sums alpha into its prefix
sum), and Omega, omega and nu_p as the tests' oracles.  A draw array is
factored from the same p_1 table, in O(log n) divisions per draw.  The
smallest-prime-factor (spf) sieve is the independent oracle: it factors
integers one by one for the tests and the brute-force case c01.
"""

from __future__ import annotations

import functools
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
# The walk over n <= x, and the dense tables copied from it.  Tests
# cross-check them against the per-n FactorProfile route and the dense walk
# they replaced.
# ---------------------------------------------------------------------------

BLOCK = 1 << 18  # entries per block of n <= x: a prime power's strided writes stay in cache
COUNT_BLOCK = 8 * BLOCK  # int8 entries per block of a count table: the bytes of one float64 block


class Walk:
    """The blocks of n = 1..x, each over the prime powers of the primes <= sqrt(x).

    levels[k-1] holds the primes p <= sqrt(x) with p^k <= x.  n <= x is its
    sqrt(x)-smooth part sm times a cofactor n // sm that is 1 or the one
    prime factor of n above sqrt(x), which is then p_1(n).  A block
    multiplies out sm when it is first asked for that prime, or reads it
    off p1 where a p_1 table of n <= x is given.  Entering a walk checks
    the entry budget.
    """

    def __init__(self, x: int, p1: np.ndarray | None = None, size: int = BLOCK):
        _check_budget(x)
        self.x, self.p1, self.size = x, p1, size
        self.levels = [ps := primes_upto(math.isqrt(x))]
        while len(ps := ps[ps ** (len(self.levels) + 1) <= x]):
            self.levels.append(ps)

    def __iter__(self):
        pks = [list(zip(ps.tolist(), (ps**k).tolist())) for k, ps in enumerate(self.levels, 1)]
        for start in range(1, self.x + 1, self.size):
            n = min(self.size, self.x + 1 - start)
            yield Block(self, start, start + n, [[(p, q, o) for p, q in lv if (o := -start % q) < n] for lv in pks])


class Block:
    """One block [start, stop) of a Walk over n <= x.

    walks[k-1] lists (p, p^k, o) for the primes p of the walk's levels[k-1]
    with a multiple of p^k in the block, at block[o::p^k].
    """

    def __init__(self, walk: Walk, start: int, stop: int, walks: list[list[tuple[int, int, int]]]):
        self.walk, self.start, self.stop, self.walks = walk, start, stop, walks

    @functools.cached_property
    def top(self) -> np.ndarray:
        """int32: the cofactor n // sm, 1 or the prime p_1(n) > sqrt(x); where
        the walk reads a p_1 table, p_1(n), which exceeds sqrt(x) exactly there."""
        walk = self.walk
        if walk.p1 is not None:
            return walk.p1[self.start : self.stop]
        sm = np.ones(self.stop - self.start, dtype=np.int32)
        for walks in self.walks:
            for p, pk, o in walks:
                sm[o::pk] *= p
        top = np.arange(self.start, self.stop, dtype=np.int32)
        top //= sm
        return top

    @functools.cached_property
    def largest_prime(self) -> np.ndarray:
        """p_1(n), int32 (p_1(1) = 1): an ascending overwrite by the primes <= sqrt(x), then the larger one."""
        out = np.zeros(self.stop - self.start, dtype=np.int32)
        for _, p, o in self.walks[0]:
            out[o::p] = p
        return np.maximum(out, self.top, out=out)

    def count(self, levels: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """int8: 1 per p^k | n in the first `levels` levels (all if None), plus 1 per
        prime factor above sqrt(x): Omega(n), or omega(n) at levels=1."""
        out = np.empty(self.stop - self.start, dtype=np.int8) if out is None else out
        np.greater(self.top, math.isqrt(self.walk.x), out=out)
        for walks in self.walks[:levels]:
            for _, pk, o in walks:
                out[o::pk] += 1
        return out

    def nu(self, p: int, out: np.ndarray | None = None) -> np.ndarray:
        """nu_p(n) for a prime p, int8: 1 per p^k <= x dividing n."""
        out = np.zeros(self.stop - self.start, dtype=np.int8) if out is None else out
        pk = p
        while pk <= self.walk.x:
            out[-self.start % pk :: pk] += 1
            pk *= p
        return out


def _fill(walk: Walk, values, dtype) -> np.ndarray:
    """values(block, out) written into each block's slice out of one zeroed array for n = 0..x."""
    out = np.zeros(walk.x + 1, dtype=dtype)
    for b in walk:
        values(b, out[b.start : b.stop])
    return out


def largest_prime_table(x: int) -> np.ndarray:
    """p_1(n), the largest prime factor, for n = 0..x (p_1(1) = 1), int32.

    Raises:
        CapacityError: x exceeds the configured entry budget.
    """
    return _fill(Walk(x), lambda b, out: np.copyto(out, b.largest_prime), np.int32)


def big_omega_table(p1: np.ndarray) -> np.ndarray:
    """Omega(n) (prime factors with multiplicity) for n = 0..len(p1) - 1, int8."""
    return _fill(Walk(len(p1) - 1, p1, COUNT_BLOCK), lambda b, out: b.count(None, out), np.int8)


def omega_table(p1: np.ndarray) -> np.ndarray:
    """omega(n) (distinct prime factors) for n = 0..len(p1) - 1, int8."""
    return _fill(Walk(len(p1) - 1, p1, COUNT_BLOCK), lambda b, out: b.count(1, out), np.int8)


def require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")


def nu_p_table(x: int, p: int) -> np.ndarray:
    """nu_p(n) for n = 0..x and a prime p, int8; reads no cofactor."""
    require_prime(p)
    return _fill(Walk(x, size=COUNT_BLOCK), lambda b, out: b.nu(p, out), np.int8)
