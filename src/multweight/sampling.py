"""Sampling from the weighted measure and exact distribution extraction.

The measure puts mass alpha(n)/S(x) on each n <= x.  Sampling inverts the
prefix-sum CDF by binary search: exact, O(log x) per draw, no rejection
tuning.  Wherever a full scan over n <= x is affordable, exact pmfs are
preferred to Monte Carlo so acceptance checks carry no sampling noise: a
law is the alpha-mass of each value of a statistic, added up along the
walk over n <= x (experiments.scan), normalized here.

Per-draw statistics run on many draws at once: the log-prime spectrum by
lookups in the p_1 table, the size-biased prime on the draws' factor matrix.

RNG contract: callers pass a numpy Generator (numpy.random.default_rng;
PCG64 is seedable and splittable via spawn).  All experiments record their
seeds; sample paths are then reproducible bit-for-bit on a fixed platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import EwensRegime, MultiplicativeWeight


@dataclass(frozen=True)
class ExactPmf:
    """A discrete law as sorted (value, probability) atoms.

    The atoms and tail_mass must add to 1 within 1e-12; tail_mass is the
    truncation deficit of a truncated limit law, 0 for an exact law.
    """

    values: np.ndarray
    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if len(v) != len(p):
            raise ValueError("values and probs length mismatch")
        if np.any(p < -1e-15):
            raise ValueError("negative probability atom")
        if not np.all(np.diff(v) > 0):
            raise ValueError("values must be strictly increasing")
        total = float(np.sum(p)) + self.tail_mass
        if not abs(total - 1.0) <= 1e-12:  # so a NaN or inf atom or tail fails too
            raise ValueError(f"total mass {total} differs from 1 beyond 1e-12")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def prob_of(self, value: float) -> float:
        i = np.searchsorted(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            return float(self.probs[i])
        return 0.0

    def affine(self, shift: float, scale: float) -> "ExactPmf":
        """The law of (V - shift)/scale."""
        return ExactPmf((self.values - shift) / scale, self.probs, self.tail_mass)


DRAW_CHUNK = 1 << 16  # draws per chunk of the sampler: its working memory


class WeightedIntegerSampler:
    """Draws integers with probability alpha(n)/S(x) by inverse CDF on the
    prefix sum S(0..x) of weights.build_weight_table.

    Holds only read access to the prefix; independent instances with
    independent generators may run concurrently.
    """

    def __init__(self, prefix: np.ndarray, rng: np.random.Generator):
        if prefix[-1] <= 0:
            raise ValueError("degenerate table: S(x) <= 0")
        self.prefix = prefix
        self.rng = rng

    def sample(self, size: int) -> np.ndarray:
        """An int64 array of `size` draws, drawn DRAW_CHUNK at a time.

        The uniforms are taken chunk after chunk from one stream, so the draws
        and the generator's later state are those of one rng.random(size).
        """
        prefix = self.prefix
        n = np.empty(size, dtype=np.int64)
        for i in range(0, size, DRAW_CHUNK):
            # map U[0,1) to (0, S] so u = 0 cannot select the empty prefix[0]
            u = (1.0 - self.rng.random(min(DRAW_CHUNK, size - i))) * prefix[-1]
            # sorted keys make the binary searches walk the table in order
            order = np.argsort(u)
            n[i + order] = np.searchsorted(prefix, u[order], side="left")
        return n


def exact_pmf_from_mass(mass: np.ndarray, atoms: np.ndarray | None = None) -> ExactPmf:
    """The law with mass[i] (unnormalized, nonnegative) on atoms[i], by default
    on i; zero masses are dropped, indexed once with no mask of len(mass)."""
    keep = np.flatnonzero(mass)
    atoms = keep if atoms is None else atoms[keep]
    return ExactPmf(atoms.astype(float), mass[keep] / mass.sum())


def spectrum(draws: np.ndarray, p1: np.ndarray, x: int, k: int) -> np.ndarray:
    """The k largest log p_j(n)/log x of each draw n, read by k lookups in the
    p_1 table of n <= len(p1) - 1: p = p_1(rem), then rem //= p.  Nonincreasing,
    and 0 beyond Omega(n), since a finished draw reads p_1(1) = 1."""
    rem = np.array(draws, dtype=np.int64)
    if rem.size and (rem.min() < 1 or rem.max() > len(p1) - 1):
        raise ValueError(f"n outside table range [1, {len(p1) - 1}]")
    out = np.empty((len(rem), k))
    for j in range(k):
        p = p1[rem]
        out[:, j] = np.log(p)
        rem //= p
    out /= math.log(x)
    return out


def size_biased_prime(primes: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One prime p of each row's n, drawn with probability nu_p(n) log p / log n
    (the integer analogue of the cycle containing a distinguished element), and its log.

    The rows of a factor matrix (`arith.factor_matrix`) are read in order.
    Each n > 1 takes one uniform u and picks the first prime factor, counted
    with multiplicity, whose share of the running sum of log p exceeds u;
    n = 1 takes none and gives 0, log 0.
    """
    logs = np.log(primes)  # the padding 1s add 0
    live = np.flatnonzero(logs.any(axis=1))
    cdf = np.cumsum(logs[live], axis=1)
    cdf /= cdf[:, -1:]  # its last entry is 1, above every uniform
    pick = (cdf <= rng.random(len(live))[:, None]).sum(axis=1)
    out, out_logs = np.zeros(len(primes), dtype=np.int64), np.zeros(len(primes))
    out[live], out_logs[live] = primes[live, pick], logs[live, pick]
    return out, out_logs


def nu_p_limit_pmf(w: MultiplicativeWeight, p: int) -> ExactPmf:
    """Limit law of nu_p(N_x): P(X_p = k) proportional to alpha(p^k)/p^(k(d+1)),
    with d the Ewens regime's (0 in the poly regime).

    Truncated at k = 64; the (geometrically estimated) tail mass must be
    below 1e-12 and is recorded on the result.  Divergent normalizing
    series are rejected.
    """
    kmax = 64
    reg = w.regime
    d = reg.d if isinstance(reg, EwensRegime) else 0.0
    # as euler_constant forms them: alpha(p^k) alone can pass the float range
    arr = np.array([1.0] + [w.normalized_prime_power_values(np.array([p]), k, d)[0] for k in range(1, kmax + 1)])
    # geometric tail estimate from the last two nonzero terms
    nz = np.nonzero(arr)[0]
    tail = 0.0
    if len(nz) >= 2 and nz[-1] == kmax:
        q = arr[nz[-1]] / arr[nz[-2]] if nz[-1] - nz[-2] == 1 else 0.0
        if q >= 1.0:
            raise ValueError(f"normalizing series for p={p} does not converge")
        tail = arr[-1] * q / (1.0 - q) if q > 0 else 0.0
    total = float(arr.sum()) + tail
    probs = arr / total
    tail_mass = tail / total
    if tail_mass >= 1e-12:
        raise ValueError(
            f"truncation at kmax={kmax} leaves tail mass {tail_mass:.2e} >= 1e-12"
        )
    keep = probs > 0
    keep[0] = True
    return ExactPmf(np.nonzero(keep)[0].astype(float), probs[keep], tail_mass=tail_mass)
