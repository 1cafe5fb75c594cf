"""Prime sieving and factorization infrastructure.

Everything here is built once and then read-only: the tables are plain
numpy arrays, immutable by convention after construction, and safe to
share across threads without synchronization.

The exact scans rest on one fact: n <= x has at most one prime factor
above sqrt(x).  One walk (Walk) visits n <= x block by block over the prime
powers of the primes <= sqrt(x); a block multiplies out the sqrt(x)-smooth
part sm of its n, and n // sm is 1 or that larger prime.  Each block gives
p_1, Omega and omega (and, in weights, alpha) and nu_p_table nu_p, each by
one strided loop (strided): every exact law, sum and mean reduces the blocks
as they come, and the draws copy p_1 and the prefix sum of alpha into their
two dense tables from one walk (weights.build_weight_table).  A draw n is
factored from that p_1 table by p = p_1(n), n //= p: fully (factor_matrix)
or to its k largest primes (sampling.spectrum).  The smallest-prime-factor
(spf) sieve is the independent oracle: it factors integers one by one for
the tests and the brute-force case c01.
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


SEGMENT = 1 << 20  # entries per segment of the prime sieve


def prime_segments(x: int):
    """The primes <= x, increasing, one int64 array per segment [k SEGMENT, (k+1) SEGMENT)
    of n = 0..x, k = 0, 1, ...: a boolean sieve of the segment struck out by the
    primes <= sqrt(x) only (Bays & Hudson 1977), so O(sqrt(x) + SEGMENT) memory at
    any x.  Calling it checks the entry budget."""
    _check_budget(x)
    small = primes_upto(math.isqrt(x)).tolist() if x >= 4 else []

    def segment(lo: int, hi: int) -> np.ndarray:
        is_p = np.ones(hi - lo, dtype=bool)
        is_p[: 2 if lo == 0 else 0] = False
        for p in small:
            is_p[max(p * p, lo + -lo % p) - lo :: p] = False
        out = np.flatnonzero(is_p)
        out += lo
        return out

    return (segment(lo, min(lo + SEGMENT, x + 1)) for lo in range(0, x + 1, SEGMENT))


def primes_upto(x: int) -> np.ndarray:
    """Primes <= x, increasing, int64: the segments of prime_segments joined."""
    return np.concatenate([np.empty(0, dtype=np.int64), *prime_segments(x)])


# ---------------------------------------------------------------------------
# The walk over n <= x.  Tests cross-check its blocks against the per-n
# FactorProfile route and the dense walk they replaced.
# ---------------------------------------------------------------------------

BLOCK = 1 << 18  # entries per block of n <= x: a prime power's strided writes stay in cache


class Walk:
    """The blocks of n = 1..x, each over the prime powers of the primes <= sqrt(x).

    levels[k-1] holds the primes p <= sqrt(x) with p^k <= x, and powers[k-1]
    the pairs (p^k, p) of those primes, listed once per walk.  n <= x is its
    sqrt(x)-smooth part sm times a cofactor n // sm that is 1 or the one
    prime factor of n above sqrt(x), which is then p_1(n).  A block
    multiplies out sm when it is first asked for that prime.  Entering a
    walk checks the entry budget.
    """

    def __init__(self, x: int):
        _check_budget(x)
        self.x = x
        self.levels = [ps := primes_upto(math.isqrt(x))]
        while len(ps := ps[ps ** (len(self.levels) + 1) <= x]):
            self.levels.append(ps)
        self.powers = [list(zip((ps**k).tolist(), ps.tolist())) for k, ps in enumerate(self.levels, 1)]

    def __iter__(self):
        for start in range(1, self.x + 1, BLOCK):
            yield Block(self, start, min(start + BLOCK, self.x + 1))


def strided(out: np.ndarray, start: int, ufunc: np.ufunc, pairs) -> np.ndarray:
    """For each (q, v) of pairs, in order, out[n - start] = ufunc(out[n - start], v)
    at every n in [start, start + len(out)) that q divides; returns out.  Every
    table of a walk's blocks is built by this one loop."""
    for q, v in pairs:
        if (o := -start % q) < len(out):
            view = out[o::q]
            ufunc(view, v, out=view)
    return out


class Block:
    """One block [start, stop) of a Walk over n <= x; its tables are strided
    passes over the walk's powers."""

    def __init__(self, walk: Walk, start: int, stop: int):
        self.walk, self.start, self.stop = walk, start, stop

    @functools.cached_property
    def top(self) -> np.ndarray:
        """int32: the cofactor n // sm, 1 or the prime p_1(n) > sqrt(x)."""
        sm = np.ones(self.stop - self.start, dtype=np.int32)
        for powers in self.walk.powers:
            strided(sm, self.start, np.multiply, powers)
        top = np.arange(self.start, self.stop, dtype=np.int32)
        top //= sm
        return top

    @functools.cached_property
    def largest_prime(self) -> np.ndarray:
        """p_1(n), int32 (p_1(1) = 1): the largest prime <= sqrt(x) dividing n (the
        primes come in ascending order), then the larger one."""
        out = strided(np.zeros(self.stop - self.start, dtype=np.int32), self.start, np.maximum, self.walk.powers[0])
        return np.maximum(out, self.top, out=out)

    def count(self, levels: int | None = None) -> np.ndarray:
        """int8: 1 per p^k | n in the first `levels` levels (all if None), plus 1 per
        prime factor above sqrt(x): Omega(n), or omega(n) at levels=1."""
        out = np.greater(self.top, math.isqrt(self.walk.x), out=np.empty(self.stop - self.start, dtype=np.int8))
        for powers in self.walk.powers[:levels]:
            strided(out, self.start, np.add, ((q, 1) for q, _ in powers))
        return out


def require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")


def nu_p_table(x: int, p: int, start: int, stop: int) -> np.ndarray:
    """nu_p(n) for start <= n < stop (start >= 1) and a prime p, int8: 1 per p^k <= x
    dividing n.  It needs no cofactor, so a block of a Walk over n <= x passes only its edges."""
    require_prime(p)
    pairs = [(pk, 1) for k in range(1, x.bit_length() + 1) if (pk := p**k) <= x]
    return strided(np.zeros(stop - start, dtype=np.int8), start, np.add, pairs)
