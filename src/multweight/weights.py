"""Multiplicative weight functions and dense weight tables.

A weight alpha is multiplicative (alpha(1) = 1, alpha(nm) = alpha(n)alpha(m)
for coprime n, m) and therefore determined by its values on prime powers.
Two parameter regimes are tracked:

* Ewens(theta, d, r): the mean value of alpha(p) log p / p^d over p <= x
  is theta * x up to lower order, and alpha(p^k)/p^(dk) = O(r^k) with
  1 <= r < sqrt(2).
* Poly(K, gamma): alpha(p) = K log^gamma p up to O(log^-2 p), with a
  summable tail over k >= 2.

The dense table of alpha(n) for n <= x is sieved by multiplying the
prime-power ratios of the primes up to sqrt(x), and alpha at the one larger
prime factor n may have, into an all-ones array, O(x log log x) total work;
per-n factorization is kept as the independent brute-force route for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .arith import CapacityError, SpfTable, _split_at_root, factorize, primes_in, sieve_budget


@dataclass(frozen=True)
class EwensRegime:
    theta: float
    d: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.d <= -1:
            raise ValueError("d must exceed -1")
        if not (1.0 <= self.r < math.sqrt(2)):
            raise ValueError("r must lie in [1, sqrt(2))")


@dataclass(frozen=True)
class PolyRegime:
    K: float
    gamma: float

    def __post_init__(self):
        if self.K <= 0 or self.gamma <= 0:
            raise ValueError("K and gamma must be positive")


Regime = EwensRegime | PolyRegime


@dataclass(frozen=True)
class MultiplicativeWeight:
    """A multiplicative weight given by its values on prime powers.

    prime_power_value(p, k) returns alpha(p^k) for k >= 1 (alpha(1) = 1 by
    convention).  vec_prime_power_value, when present, evaluates alpha(p^k)
    on a whole array of primes at fixed k; the builtins provide it so that
    table sieving and Euler products stay vectorized.
    log_vec_prime_power_value supplies log alpha(p^k) where the plain value
    can overflow (power and sigma with large z*k); Euler-product code uses
    it to form alpha(p^k)/p^(k(d+1)) without ever leaving the finite range.
    """

    name: str
    prime_power_value: Callable[[int, int], float]
    regime: Regime
    vec_prime_power_value: Callable[[np.ndarray, int], np.ndarray] | None = None
    log_vec_prime_power_value: Callable[[np.ndarray, int], np.ndarray] | None = None

    def value(self, p: int, k: int) -> float:
        if k == 0:
            return 1.0
        return float(self.prime_power_value(p, k))

    def values_on_primes(self, ps: np.ndarray, k: int = 1) -> np.ndarray:
        if k == 0:
            return np.ones(len(ps))
        if self.vec_prime_power_value is not None:
            return np.asarray(self.vec_prime_power_value(ps, k), dtype=float)
        return np.array([self.prime_power_value(int(p), k) for p in ps], dtype=float)

    def normalized_prime_power_values(self, ps: np.ndarray, k: int, d: float) -> np.ndarray:
        """alpha(p^k)/p^(k(d+1)) for a prime array, overflow-safe."""
        logp = np.log(ps.astype(float))
        if self.log_vec_prime_power_value is not None:
            return np.exp(self.log_vec_prime_power_value(ps, k) - k * (d + 1.0) * logp)
        return self.values_on_primes(ps, k) * np.exp(-k * (d + 1.0) * logp)

    def ewens(self) -> EwensRegime:
        if not isinstance(self.regime, EwensRegime):
            raise ValueError(f"weight {self.name!r} is not in the Ewens regime")
        return self.regime

    def poly(self) -> PolyRegime:
        if not isinstance(self.regime, PolyRegime):
            raise ValueError(f"weight {self.name!r} is not in the Poly regime")
        return self.regime


def _divisor_value(k_param: float, i: int) -> float:
    # C(i + k - 1, i) for real k, via log-gamma to survive large i
    return math.exp(gammaln(i + k_param) - gammaln(k_param) - gammaln(i + 1))


def builtin_weight(kind: str, **params) -> MultiplicativeWeight:
    """Construct one of the catalog weights.

    Kinds and parameters:
        theta_omega(theta)    alpha(n) = theta^omega(n)           Ewens(theta, 0)
        divisor(k)            alpha(p^i) = C(i+k-1, i), real k>0  Ewens(k, 0)
        powerfree(k)          k-powerfree indicator, int k >= 2   Ewens(1, 0)
        euler_ratio           phi(n)/n                            Ewens(1, 0)
        sigma(z)              sum of z-th powers of divisors      Ewens(1, max(z,0))
        power(z)              n^z, z > -1                         Ewens(1, z)
        poly_log(K, gamma)    alpha(p) = K log^gamma p, 0 at k>=2 Poly(K, gamma)

    poly_log accepts an optional tail=(p, k) -> value callable for k >= 2
    (robustness experiments); the default zero tail is the simplest choice
    compatible with the summability condition on higher prime powers.
    """
    if kind == "theta_omega":
        theta = float(params.pop("theta"))
        _no_extra(kind, params)
        if theta <= 0:
            raise ValueError("theta_omega requires theta > 0")
        return MultiplicativeWeight(
            name=f"theta_omega({theta:g})",
            prime_power_value=lambda p, k, t=theta: t,
            regime=EwensRegime(theta=theta, d=0.0, r=1.0),
            vec_prime_power_value=lambda ps, k, t=theta: np.full(len(ps), t),
        )
    if kind == "divisor":
        kk = float(params.pop("k"))
        _no_extra(kind, params)
        if kk <= 0:
            raise ValueError("divisor requires k > 0")
        return MultiplicativeWeight(
            name=f"divisor({kk:g})",
            prime_power_value=lambda p, i, c=kk: _divisor_value(c, i),
            regime=EwensRegime(theta=kk, d=0.0, r=1.0),
            vec_prime_power_value=lambda ps, i, c=kk: np.full(len(ps), _divisor_value(c, i)),
        )
    if kind == "powerfree":
        k = float(params.pop("k"))
        _no_extra(kind, params)
        if not k.is_integer() or k < 2:
            raise ValueError(f"powerfree requires an integer k >= 2, got {k:g}")
        kk = int(k)
        return MultiplicativeWeight(
            name=f"powerfree({kk})",
            prime_power_value=lambda p, i, c=kk: 1.0 if i < c else 0.0,
            regime=EwensRegime(theta=1.0, d=0.0, r=1.0),
            vec_prime_power_value=lambda ps, i, c=kk: np.full(len(ps), 1.0 if i < c else 0.0),
        )
    if kind == "euler_ratio":
        _no_extra(kind, params)
        return MultiplicativeWeight(
            name="euler_ratio",
            prime_power_value=lambda p, k: 1.0 - 1.0 / p,
            regime=EwensRegime(theta=1.0, d=0.0, r=1.0),
            vec_prime_power_value=lambda ps, k: 1.0 - 1.0 / ps.astype(float),
        )
    if kind == "sigma":
        z = float(params.pop("z"))
        _no_extra(kind, params)

        def sig(p, k, zz=z):
            # sum_{j<=k} p^(jz)
            return float(np.sum(np.float_power(float(p), zz * np.arange(k + 1))))

        def sig_log(ps, k, zz=z):
            from scipy.special import logsumexp

            logp = np.log(ps.astype(float))
            return logsumexp(zz * np.arange(k + 1)[None, :] * logp[:, None], axis=1)

        return MultiplicativeWeight(
            name=f"sigma({z:g})",
            prime_power_value=sig,
            regime=EwensRegime(theta=1.0, d=max(z, 0.0), r=1.0),
            vec_prime_power_value=lambda ps, k, zz=z: np.sum(
                np.float_power(ps.astype(float)[:, None], zz * np.arange(k + 1)[None, :]),
                axis=1,
            ),
            log_vec_prime_power_value=sig_log,
        )
    if kind == "power":
        z = float(params.pop("z"))
        _no_extra(kind, params)
        if z <= -1:
            raise ValueError("power requires z > -1")
        return MultiplicativeWeight(
            name=f"power({z:g})",
            prime_power_value=lambda p, k, zz=z: float(p) ** (zz * k),
            regime=EwensRegime(theta=1.0, d=z, r=1.0),
            vec_prime_power_value=lambda ps, k, zz=z: np.float_power(ps.astype(float), zz * k),
            log_vec_prime_power_value=lambda ps, k, zz=z: zz * k * np.log(ps.astype(float)),
        )
    if kind == "poly_log":
        K = float(params.pop("K"))
        gamma = float(params.pop("gamma"))
        tail = params.pop("tail", None)
        _no_extra(kind, params)

        def ppv(p, k, KK=K, g=gamma, t=tail):
            if k == 1:
                return KK * math.log(p) ** g
            return 0.0 if t is None else float(t(p, k))

        def vec(ps, k, KK=K, g=gamma, t=tail):
            if k == 1:
                return KK * np.log(ps.astype(float)) ** g
            if t is None:
                return np.zeros(len(ps))
            return np.array([t(int(p), k) for p in ps], dtype=float)

        return MultiplicativeWeight(
            name=f"poly_log(K={K:g},gamma={gamma:g})",
            prime_power_value=ppv,
            regime=PolyRegime(K=K, gamma=gamma),
            vec_prime_power_value=vec,
        )
    raise ValueError(f"unknown weight kind {kind!r}")


def _no_extra(kind: str, params: dict):
    if params:
        raise ValueError(f"unexpected parameters for {kind}: {sorted(params)}")


CATALOG: tuple[tuple[str, dict], ...] = (
    ("theta_omega", {"theta": 2.0}),
    ("divisor", {"k": 2.0}),
    ("powerfree", {"k": 2}),
    ("euler_ratio", {}),
    ("sigma", {"z": 1.0}),
    ("power", {"z": 0.5}),
    ("poly_log", {"K": 1.0, "gamma": 1.0}),
)


def catalog_weights() -> list[MultiplicativeWeight]:
    """One representative instance of every builtin kind."""
    return [builtin_weight(kind, **p) for kind, p in CATALOG]


@dataclass(frozen=True)
class WeightTable:
    """Dense alpha(n) for 1 <= n <= x with prefix sums.

    alpha[0] is unused (0); prefix[n] = S(n) = sum_{m<=n} alpha(m) with
    prefix[0] = 0.  Immutable after construction; concurrent reads are safe.
    """

    x: int
    alpha: np.ndarray
    prefix: np.ndarray

    @property
    def S(self) -> float:
        return float(self.prefix[-1])

    def S_at(self, y: int) -> float:
        return float(self.prefix[y])

    def prob(self, n: int) -> float:
        return float(self.alpha[n]) / self.S


_CHUNK = 1 << 20


def _compensated_cumsum(a: np.ndarray, chunk: int = _CHUNK) -> np.ndarray:
    """Cumulative sum with exactly-accumulated chunk offsets.

    Plain cumsum drifts like n*eps in the worst case; summing chunk totals
    with math.fsum keeps the relative error of S(x) near 1e-15 even at
    x = 10^8.
    """
    out = np.empty(len(a))
    offset_terms: list[float] = []
    for start in range(0, len(a), chunk):
        end = min(start + chunk, len(a))
        np.cumsum(a[start:end], out=out[start:end])
        base = math.fsum(offset_terms)
        if base != 0.0:
            out[start:end] += base
        offset_terms.append(float(np.sum(a[start:end])))
    return out


def build_weight_table(w: MultiplicativeWeight, x: int, spf: SpfTable) -> WeightTable:
    """Sieve alpha(n) for all n <= x.

    n <= x is a product of prime powers p^k, p <= sqrt(x), and a cofactor
    q that is 1 or a prime (arith._split_at_root).  The multiples of each
    p^k are multiplied by alpha(p^k)/alpha(p^(k-1)), and each n by alpha(q),
    in the order k = 1, q, k >= 2 with p increasing.  Weights where
    alpha(p^j) = 0 but alpha(p^k) != 0 for some k > j cannot be sieved this
    way and are rejected (no catalog weight does that).
    """
    if x > sieve_budget():
        raise CapacityError(f"table limit {x} exceeds entry budget {sieve_budget()}")
    levels, cof = _split_at_root(x, spf)
    alpha = np.ones(x + 1)
    alpha[0] = 0.0
    prev = np.ones(len(levels[0]))
    for k, ps in enumerate(levels, 1):
        cur = _nonnegative(w, w.values_on_primes(ps, k))
        prev = prev[: len(ps)]
        bad = (prev == 0.0) & (cur != 0.0)
        if np.any(bad):
            raise ValueError(
                f"{w.name}: alpha(p^{k - 1}) = 0 but alpha(p^{k}) != 0 at p={int(ps[bad][0])}; "
                "ratio sieving requires monotone-vanishing prime-power values"
            )
        ratio = np.divide(cur, prev, out=np.ones_like(cur), where=prev != 0.0)
        for p, r in zip(ps.tolist(), ratio.tolist()):
            if r != 1.0:
                alpha[p**k :: p**k] *= r
        if k == 1:
            for start in range(0, x + 1, _CHUNK):
                hit = np.nonzero(cof[start : start + _CHUNK] > 1)[0] + start
                alpha[hit] *= _nonnegative(w, w.values_on_primes(cof[hit].astype(np.int64), 1))
        prev = cur
    prefix = np.empty(x + 1)
    prefix[0] = 0.0
    prefix[1:] = _compensated_cumsum(alpha[1:])
    if prefix[-1] <= 0:
        raise ValueError(f"degenerate table: S({x}) = {prefix[-1]}")
    return WeightTable(x=x, alpha=alpha, prefix=prefix)


def _nonnegative(w: MultiplicativeWeight, values: np.ndarray) -> np.ndarray:
    if np.any(values < 0):
        raise ValueError(f"negative weight value from {w.name}")
    return values


def evaluate_weight(w: MultiplicativeWeight, n: int, spf: SpfTable) -> float:
    """alpha(n) by direct factorization; the brute-force route for oracles."""
    out = 1.0
    for p, k in factorize(n, spf).factors:
        out *= w.value(p, k)
    return out


def condition_I_residuals(
    w: MultiplicativeWeight,
    checkpoints: Sequence[int],
    spf: SpfTable,
    d: float | None = None,
) -> list[tuple[int, float]]:
    """Residuals sum_{p<=x} alpha(p) log p / p^d - theta*x at each checkpoint.

    The caller judges the decay; the hypothesis only promises o(x) decay of
    the residual relative to x.
    """
    reg = w.ewens()
    if d is None:
        d = reg.d
    cps = sorted(int(c) for c in checkpoints)
    if cps and cps[-1] > spf.limit:
        raise ValueError("checkpoint beyond sieve range")
    ps = primes_in(2, cps[-1], spf) if cps else np.array([], dtype=np.int64)
    pf = ps.astype(float)
    terms = w.values_on_primes(ps, 1) * np.log(pf) / pf**d
    csum = np.concatenate([[0.0], np.cumsum(terms)])
    out = []
    for c in cps:
        idx = int(np.searchsorted(ps, c, side="right"))
        out.append((c, float(csum[idx]) - reg.theta * c))
    return out


def prime_weighted_sum(
    w: MultiplicativeWeight,
    g: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    spf: SpfTable,
    d: float | None = None,
) -> float:
    """sum over primes p in [a, b] of alpha(p) g(p) / p^d.

    g must accept a float numpy array.  Empty intervals give 0.
    """
    if d is None:
        reg = w.regime
        d = reg.d if isinstance(reg, EwensRegime) else 0.0
    a, b = interval
    lo = max(2, math.ceil(a))
    hi = math.floor(b)
    if hi < lo:
        return 0.0
    ps = primes_in(lo, hi, spf)
    if len(ps) == 0:
        return 0.0
    pf = ps.astype(float)
    vals = w.values_on_primes(ps, 1) * np.asarray(g(pf), dtype=float) / pf**d
    return float(math.fsum(vals.tolist()) if len(vals) < 100000 else np.sum(vals))


def condition_II_margin(
    w: MultiplicativeWeight, p_max: int = 10**4, k_max: int = 30
) -> float:
    """Largest alpha(p^k) / (p^(dk) r^k) over p <= p_max, k <= k_max.

    A finite-grid spot check of the growth condition on prime powers; a
    bounded return value is evidence, not proof, that the declared (d, r)
    are admissible.
    """
    reg = w.ewens()
    from .arith import primes_upto

    worst = 0.0
    for p in primes_upto(p_max):
        p = int(p)
        for k in range(1, k_max + 1):
            denom = float(p) ** (reg.d * k) * reg.r**k
            v = w.value(p, k) / denom
            if v > worst:
                worst = v
    return worst
