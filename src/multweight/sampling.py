"""Sampling from the weighted measure and exact distribution extraction.

The measure puts mass alpha(n)/S(x) on each n <= x.  Sampling inverts the
prefix-sum CDF by binary search: exact, O(log x) per draw, no rejection
tuning.  Wherever a full scan over n <= x is affordable, exact pmfs are
preferred to Monte Carlo so acceptance checks carry no sampling noise: a
law is the alpha-mass of each value of a statistic, added up along the
walk over n <= x (experiments.scan), normalized here.

Per-draw statistics (log-prime spectrum, size-biased prime) are computed
for all draws at once from their factor matrix, bit for bit as per draw.

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

    Total mass must be 1 within 1e-12 unless `partial` is set (used for
    truncated limit laws, where tail_mass records the truncation deficit).
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
        """An int64 array of `size` draws."""
        prefix = self.prefix
        # map U[0,1) to (0, S] so u = 0 cannot select the empty prefix[0]
        u = (1.0 - self.rng.random(size)) * prefix[-1]
        # sorted keys make the binary searches walk the table in order
        order = np.argsort(u)
        n = np.empty(len(u), dtype=np.int64)
        n[order] = np.searchsorted(prefix, u[order], side="left")
        return n


def exact_pmf_from_mass(mass: np.ndarray, atoms: np.ndarray | None = None) -> ExactPmf:
    """The law with mass[i] (unnormalized) on atoms[i], by default on i."""
    keep = mass > 0
    atoms = np.flatnonzero(keep) if atoms is None else atoms[keep]
    return ExactPmf(atoms.astype(float), mass[keep] / mass.sum())


def joint_pmf_from_mass(mass: np.ndarray, kb: int) -> dict[tuple[int, int], float]:
    """The joint law with mass[a kb + b] (unnormalized) on (a, b), as a dict;
    mass is first padded with zeros to whole rows of kb."""
    mass = np.concatenate([mass, np.zeros(-len(mass) % kb)])
    mass = mass / mass.sum()
    out = {}
    for code, m in enumerate(mass):
        if m > 0:
            out[(code // kb, code % kb)] = float(m)
    return out


def prime_logs(a: np.ndarray) -> np.ndarray:
    """math.log of every entry of an integer array, one call per distinct
    value (np.log differs from it in the last bit for some); 0 below 2."""
    out = np.zeros(np.shape(a))
    big = a > 1
    uniq, inv = np.unique(a[big], return_inverse=True)
    out[big] = np.array([math.log(v) for v in uniq.tolist()])[inv]
    return out


def spectrum(primes: np.ndarray, x: int, k: int) -> np.ndarray:
    """The k largest log p_i(n)/log x of each row's n, read backwards from its
    factor matrix (`arith.factor_matrix`, whose rows end in the primes in
    nondecreasing order): nonincreasing, 0 beyond Omega(n)."""
    top = prime_logs(primes)[:, ::-1][:, :k] / math.log(x)
    return np.pad(top, ((0, 0), (0, k - top.shape[1])))


def size_biased_prime(primes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One prime p of each row's n, drawn with probability nu_p(n) log p / log n
    (the integer analogue of the cycle containing a distinguished element).

    The rows of a factor matrix are read in order.  Each n > 1 takes one
    uniform, and its draw is that of rng.choice over its distinct primes with
    weights nu_p log p, bit for bit; n = 1 takes none and gives 0.
    """
    starts, ends = primes > 1, primes > 1
    starts[:, 1:] &= primes[:, 1:] != primes[:, :-1]
    ends[:, :-1] &= primes[:, :-1] != primes[:, 1:]
    # one (start, end) pair per run of equal primes, both in row-major order
    r, c = np.nonzero(starts)
    j = np.cumsum(starts, axis=1)[r, c] - 1
    nd = starts.sum(axis=1)
    P = np.zeros((len(primes), nd.max(initial=0)), dtype=np.int64)
    W = np.zeros(P.shape)
    P[r, j] = primes[r, c]
    W[r, j] = (np.nonzero(ends)[1] - c + 1) * prime_logs(P[r, j])
    # rng.choice's rule: p = w / w.sum(), summed as numpy sums the row's d
    # weights; cdf = cumsum(p) / its last entry; the first index with cdf > u
    total = np.ones(len(P))
    for d in range(1, P.shape[1] + 1):
        total[nd == d] = W[nd == d, :d].sum(axis=1)
    live = np.flatnonzero(nd)
    cdf = np.cumsum(W[live] / total[live, None], axis=1)
    cdf /= cdf[:, -1:]
    out = np.zeros(len(P), dtype=np.int64)
    out[live] = P[live, (cdf <= rng.random(len(live))[:, None]).sum(axis=1)]
    return out


def nu_p_limit_pmf(
    w: MultiplicativeWeight,
    p: int,
    d: float | None = None,
    kmax: int = 64,
) -> ExactPmf:
    """Limit law of nu_p(N_x): P(X_p = k) proportional to alpha(p^k)/p^(k(d+1)).

    Truncated at kmax; the (geometrically estimated) tail mass must be
    below 1e-12 and is recorded on the result.  Divergent normalizing
    series are rejected.
    """
    if d is None:
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
