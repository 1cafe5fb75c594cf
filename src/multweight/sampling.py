"""Sampling from the weighted measure and exact distribution extraction.

The measure puts mass alpha(n)/S(x) on each n <= x.  Sampling inverts the
prefix-sum CDF by binary search: exact, O(log x) per draw, no rejection
tuning.  Wherever a full scan over n <= x is affordable, exact pmfs are
preferred to Monte Carlo so acceptance checks carry no sampling noise.

RNG contract: callers pass a numpy Generator (numpy.random.default_rng;
PCG64 is seedable and splittable via spawn).  All experiments record their
seeds; sample paths are then reproducible bit-for-bit on a fixed platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .arith import FactorProfile
from .weights import EwensRegime, MultiplicativeWeight, WeightTable


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
        if abs(total - 1.0) > 1e-12:
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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["value", "probability"])
            for v, p in zip(self.values, self.probs):
                wr.writerow([repr(float(v)), repr(float(p))])


class WeightedIntegerSampler:
    """Draws integers with probability alpha(n)/S(x) by inverse CDF.

    Holds only read access to the table; independent instances with
    independent generators may run concurrently.
    """

    def __init__(self, table: WeightTable, rng: np.random.Generator):
        if table.S <= 0:
            raise ValueError("degenerate table: S(x) <= 0")
        self.table = table
        self.rng = rng

    def sample(self, size: int | None = None):
        """One integer (size=None) or an int64 array of draws."""
        prefix = self.table.prefix
        # map U[0,1) to (0, S] so u = 0 cannot select the empty prefix[0]
        u = (1.0 - self.rng.random(size)) * prefix[-1]
        n = np.searchsorted(prefix, u, side="left")
        return n if size is not None else int(n)


def exact_pmf_from_values(table: WeightTable, values: np.ndarray) -> ExactPmf:
    """Exact law of a statistic given its per-n value array (index 0 unused).

    Nonnegative integer values are binned directly; other values are
    first ranked with np.unique.
    """
    if len(values) != table.x + 1:
        raise ValueError("values array must cover 0..x")
    v = np.asarray(values[1:])
    w = table.alpha[1:]
    if np.issubdtype(v.dtype, np.integer) and v.min() >= 0:
        mass = np.bincount(v, weights=w)
        uniq = np.arange(len(mass))
    else:
        uniq, inv = np.unique(v, return_inverse=True)
        mass = np.bincount(inv, weights=w, minlength=len(uniq))
    total = mass.sum()
    keep = mass > 0
    return ExactPmf(uniq[keep].astype(float), mass[keep] / total)


def joint_pmf_from_values(
    table: WeightTable, a: np.ndarray, b: np.ndarray
) -> dict[tuple[int, int], float]:
    """Exact joint law of two small-integer statistics as a dict."""
    av = np.asarray(a[1:], dtype=np.int64)
    bv = np.asarray(b[1:], dtype=np.int64)
    kb = int(bv.max()) + 1
    mass = np.bincount(av * kb + bv, weights=table.alpha[1:], minlength=(int(av.max()) + 1) * kb)
    mass = mass / mass.sum()
    out = {}
    for code, m in enumerate(mass):
        if m > 0:
            out[(code // kb, code % kb)] = float(m)
    return out


def size_biased_prime(profile: FactorProfile, rng: np.random.Generator) -> int:
    """A prime p of n drawn with probability nu_p(n) log p / log n.

    This is the integer analogue of picking the cycle containing a
    distinguished element: a size-biased choice among the log-prime parts.
    """
    if profile.n < 2:
        raise ValueError("n = 1 has no prime factor to sample")
    ps = [p for p, _ in profile.factors]
    wts = np.array([k * math.log(p) for p, k in profile.factors])
    i = rng.choice(len(ps), p=wts / wts.sum())
    return ps[i]


@dataclass(frozen=True)
class LogPrimeSpectrum:
    """Nonincreasing log p_i(n)/log x, one entry per prime factor with
    multiplicity; entries beyond Omega(n) are 0 by the p_k(m) = 1 convention.
    """

    n: int
    x: int
    ratios: np.ndarray

    def ratio(self, k: int) -> float:
        """k-th largest ratio (1-based); 0 beyond Omega(n)."""
        if k < 1:
            raise ValueError("k is 1-based")
        if k > len(self.ratios):
            return 0.0
        return float(self.ratios[k - 1])


def spectrum(profile: FactorProfile, x: int) -> LogPrimeSpectrum:
    if profile.n > x:
        raise ValueError("n beyond x")
    logs = []
    for p, k in profile.factors:
        logs.extend([math.log(p)] * k)
    logs.sort(reverse=True)
    ratios = np.array(logs) / math.log(x) if logs else np.array([])
    return LogPrimeSpectrum(n=profile.n, x=x, ratios=ratios)


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
    terms = [1.0]
    for k in range(1, kmax + 1):
        t = w.value(p, k) / float(p) ** (k * (d + 1))
        terms.append(t)
    arr = np.array(terms)
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
