"""Multiplicative weight functions and their prefix sums.

A weight alpha is multiplicative (alpha(1) = 1, alpha(nm) = alpha(n)alpha(m)
for coprime n, m) and therefore determined by its values on prime powers.
Each catalog kind defines alpha(p^k) once, as a function on an array of
primes at fixed k, and its parameter names once, in WEIGHT_KINDS; the CLI
reads the same table.  Two parameter regimes are tracked:

* Ewens(theta, d, r): the mean value of alpha(p) log p / p^d over p <= x
  is theta * x up to lower order, and alpha(p^k)/p^(dk) = O(r^k) with
  1 <= r < sqrt(2).
* Poly(K, gamma): alpha(p) = K log^gamma p up to O(log^-2 p), with a
  summable tail over k >= 2.

alpha(n) for n <= x is sieved block by block along arith's walk, by
multiplying the prime-power ratios of the primes up to sqrt(x), and alpha
at the one larger prime factor n may have, into ones, O(x log log x) total
work; per-n factorization is kept as the independent brute-force route for
tests.  The exact scans reduce alpha block by block (AlphaWalk); the draws
read the one dense table, the prefix sum S(y) for y <= x, which is alpha
summed in place (build_weight_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from . import arith
from .arith import factorize, primes_upto


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

    values(ps, k) is the one definition of alpha(p^k), k >= 1, on an array
    of primes; value(p, k) reads it at a single prime (alpha(1) = 1 by
    convention, so value(p, 0) = 1).  log_values, when present, gives
    log alpha(p^k) where the plain value can overflow (power and sigma at
    large z*k); Euler-product code uses it to form alpha(p^k)/p^(k(d+1))
    without ever leaving the finite range.
    """

    name: str
    regime: Regime
    values: Callable[[np.ndarray, int], np.ndarray]
    log_values: Callable[[np.ndarray, int], np.ndarray] | None = None

    def value(self, p: int, k: int) -> float:
        if k == 0:
            return 1.0
        return float(self.values(np.array([p]), k)[0])

    def values_on_primes(self, ps: np.ndarray, k: int) -> np.ndarray:
        return np.asarray(self.values(ps, k), dtype=float)

    def normalized_prime_power_values(self, ps: np.ndarray, k: int, d: float) -> np.ndarray:
        """alpha(p^k)/p^(k(d+1)) for a prime array, overflow-safe."""
        logp = np.log(ps.astype(float))
        if self.log_values is not None:
            return np.exp(self.log_values(ps, k) - k * (d + 1.0) * logp)
        return self.values_on_primes(ps, k) * np.exp(-k * (d + 1.0) * logp)

    def ewens(self) -> EwensRegime:
        if not isinstance(self.regime, EwensRegime):
            raise ValueError(f"weight {self.name!r} is not in the Ewens regime")
        return self.regime

    def poly(self) -> PolyRegime:
        if not isinstance(self.regime, PolyRegime):
            raise ValueError(f"weight {self.name!r} is not in the Poly regime")
        return self.regime


# each weight kind's parameters, in the order of a 'kind:param[:param]' spec
WEIGHT_KINDS: dict[str, tuple[str, ...]] = {
    "theta_omega": ("theta",),
    "divisor": ("k",),
    "powerfree": ("k",),
    "euler_ratio": (),
    "sigma": ("z",),
    "power": ("z",),
    "poly_log": ("K", "gamma"),
}


def builtin_weight(kind: str, **params) -> MultiplicativeWeight:
    """Construct one of the catalog weights; every parameter is a float.

    Kinds (parameters in WEIGHT_KINDS):
        theta_omega           alpha(n) = theta^omega(n)           Ewens(theta, 0)
        divisor               alpha(p^i) = C(i+k-1, i), real k>0  Ewens(k, 0)
        powerfree             k-powerfree indicator, int k >= 2   Ewens(1, 0)
        euler_ratio           phi(n)/n                            Ewens(1, 0)
        sigma                 sum of z-th powers of divisors      Ewens(1, max(z,0))
        power                 n^z, z > -1                         Ewens(1, z)
        poly_log              alpha(p) = K log^gamma p, 0 at k>=2 Poly(K, gamma)

    poly_log's zero values at k >= 2 are the simplest choice compatible
    with the summability condition on higher prime powers; its Euler factor
    at p is then 1 + K log^gamma p / p exactly.
    """
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}; known: {sorted(WEIGHT_KINDS)}")
    names = WEIGHT_KINDS[kind]
    for name in names:
        if name not in params:
            raise ValueError(f"weight {kind} needs parameter {name!r}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise ValueError(f"unexpected parameters for {kind}: {extra}")
    try:
        args = [float(params[name]) for name in names]
    except TypeError as e:
        raise ValueError(f"weight {kind}: {e}") from None
    if kind == "theta_omega":
        (theta,) = args
        if theta <= 0:
            raise ValueError("theta_omega requires theta > 0")
        return MultiplicativeWeight(
            f"theta_omega({theta:g})", EwensRegime(theta=theta), lambda ps, k: np.full(len(ps), theta)
        )
    if kind == "divisor":
        (c,) = args
        if c <= 0:
            raise ValueError("divisor requires k > 0")
        # C(i + c - 1, i) for real c, via log-gamma to survive large i
        return MultiplicativeWeight(
            f"divisor({c:g})",
            EwensRegime(theta=c),
            lambda ps, i: np.full(len(ps), math.exp(gammaln(i + c) - gammaln(c) - gammaln(i + 1))),
        )
    if kind == "powerfree":
        (c,) = args
        if not c.is_integer() or c < 2:
            raise ValueError(f"powerfree requires an integer k >= 2, got {c:g}")
        return MultiplicativeWeight(
            f"powerfree({int(c)})", EwensRegime(theta=1.0), lambda ps, i: np.full(len(ps), 1.0 if i < c else 0.0)
        )
    if kind == "euler_ratio":
        return MultiplicativeWeight("euler_ratio", EwensRegime(theta=1.0), lambda ps, k: 1.0 - 1.0 / ps.astype(float))
    if kind == "sigma":
        (z,) = args
        # sum_{j<=k} p^(jz), and its log
        return MultiplicativeWeight(
            f"sigma({z:g})",
            EwensRegime(theta=1.0, d=max(z, 0.0)),
            lambda ps, k: np.sum(np.float_power(ps.astype(float)[:, None], z * np.arange(k + 1)[None, :]), axis=1),
            lambda ps, k: logsumexp(z * np.arange(k + 1)[None, :] * np.log(ps.astype(float))[:, None], axis=1),
        )
    if kind == "power":
        (z,) = args
        if z <= -1:
            raise ValueError("power requires z > -1")
        return MultiplicativeWeight(
            f"power({z:g})",
            EwensRegime(theta=1.0, d=z),
            lambda ps, k: np.float_power(ps.astype(float), z * k),
            lambda ps, k: z * k * np.log(ps.astype(float)),
        )
    K, gamma = args
    return MultiplicativeWeight(
        f"poly_log(K={K:g},gamma={gamma:g})",
        PolyRegime(K=K, gamma=gamma),
        lambda ps, k: K * np.log(ps.astype(float)) ** gamma if k == 1 else np.zeros(len(ps)),
    )


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


CHUNK = 1 << 20  # S(y) adds whole-chunk totals exactly, by math.fsum


def _fsum(totals: list[float]) -> float:
    try:
        return math.fsum(totals)
    except OverflowError:  # finite chunk totals whose sum passes the float range
        return math.inf


class AlphaWalk:
    """alpha on the blocks of the walk over n <= x (arith.Walk, reading p1 where given).

    n <= x is a product of prime powers p^k, p <= sqrt(x), and a cofactor
    q that is 1 or the prime p_1(n) > sqrt(x).  alpha(b, out) writes alpha
    on block b into out: from ones, the multiples of each p^k are multiplied
    by alpha(p^k)/alpha(p^(k-1)), and each n with a cofactor q > 1 by
    alpha(q), in the order k = 1, q, k >= 2 with p increasing, so every
    alpha(n) is the same product whatever the block size and x.  Weights
    where alpha(p^j) = 0 but alpha(p^k) != 0 for some k > j cannot be sieved
    this way and are rejected (no catalog weight does that).

    Iterating yields (block, alpha on it), written into one CHUNK-entry
    buffer (the walk's blocks nest in chunks): np.sum sees the chunks whose
    totals the prefix sum of build_weight_table adds, and S_at(y) equals its
    entry y for y = 0 and for y in the chunk of the last block yielded.
    Past the float range alpha is inf or NaN, without a warning only under
    the caller's np.errstate.
    """

    def __init__(self, w: MultiplicativeWeight, x: int, p1: np.ndarray | None = None):
        self.w, self.walk, self.ratios = w, arith.Walk(x, p1), []
        prev = np.ones(len(self.walk.levels[0]))
        for k, ps in enumerate(self.walk.levels, 1):
            cur = _nonnegative(w, w.values_on_primes(ps, k))
            prev = prev[: len(ps)]
            bad = (prev == 0.0) & (cur != 0.0)
            if np.any(bad):
                raise ValueError(f"{w.name}: alpha(p^{k - 1}) = 0 but alpha(p^{k}) != 0 at p={int(ps[bad][0])}; "
                                 "ratio sieving requires monotone-vanishing prime-power values")
            ratio = np.divide(cur, prev, out=np.ones_like(cur), where=prev != 0.0)
            self.ratios.append(dict(zip(ps.tolist(), ratio.tolist())))
            prev = cur

    def alpha(self, b: arith.Block, out: np.ndarray) -> np.ndarray:
        hit = np.flatnonzero(b.top > math.isqrt(self.walk.x))  # the whole sqrt(x)-smooth part first
        out.fill(1.0)
        for k, (walks, rs) in enumerate(zip(b.walks, self.ratios)):
            for p, pk, o in walks:
                if rs[p] != 1.0:
                    out[o::pk] *= rs[p]
            if k == 0:
                out[hit] *= _nonnegative(self.w, self.w.values_on_primes(b.top[hit].astype(np.int64), 1))
        return out

    def __iter__(self):
        self.totals, self.chunk = [], np.empty(CHUNK)
        for b in self.walk:
            o = (b.start - 1) % CHUNK
            if o == 0 and b.start > 1:
                self.totals.append(float(np.sum(self.chunk)))
            yield b, self.alpha(b, self.chunk[o : o + b.stop - b.start])

    def S_at(self, y: int) -> float:
        """S(y): the totals of the whole chunks before y's, and y's chunk up to y."""
        part = self.chunk[: y - len(self.totals) * CHUNK]
        return (float(np.cumsum(part)[-1]) if len(part) else 0.0) + _fsum(self.totals)


def check_S(w: MultiplicativeWeight, x: int, S: float) -> None:
    if not 0 < S < math.inf:
        raise ValueError(f"{w.name}: degenerate table: S({x}) = {S} is not positive and finite")


def build_weight_table(w: MultiplicativeWeight, p1: np.ndarray) -> np.ndarray:
    """The prefix sum S(y) = sum_{n<=y} alpha(n), y = 0..x, x = len(p1) - 1, float64 (S(0) = 0).

    alpha from the AlphaWalk that reads p1 is written into the output, then
    each CHUNK-entry chunk of it is replaced, in place, by its cumsum plus
    the math.fsum of the np.sum totals of the chunks before it: a plain
    cumsum drifts like n*eps, this one only within a chunk, whatever x.
    Raises ValueError where S(x) is not positive and finite.
    """
    x, totals = len(p1) - 1, []
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range, S(x) below is inf or NaN
        walk = AlphaWalk(w, x, p1)
        prefix = arith._fill(walk.walk, walk.alpha, float)
        for start in range(1, x + 1, CHUNK):
            chunk = prefix[start : start + CHUNK]
            total = float(np.sum(chunk))
            np.cumsum(chunk, out=chunk)
            if totals:
                chunk += _fsum(totals)
            totals.append(total)
        check_S(w, x, prefix[-1])
    return prefix


def _nonnegative(w: MultiplicativeWeight, values: np.ndarray) -> np.ndarray:
    if np.any(values < 0):
        raise ValueError(f"negative weight value from {w.name}")
    return values


def evaluate_weight(w: MultiplicativeWeight, n: int, spf: np.ndarray) -> float:
    """alpha(n) by direct factorization with an arith.build_spf table; the brute-force route for oracles."""
    out = 1.0
    for p, k in factorize(n, spf).factors:
        out *= w.value(p, k)
    return out


def condition_I_residuals(
    w: MultiplicativeWeight,
    checkpoints: Sequence[int],
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
    ps = primes_upto(max(cps, default=0))
    pf = ps.astype(float)
    terms = w.values_on_primes(ps, 1) * np.log(pf) / pf**d
    csum = np.concatenate([[0.0], np.cumsum(terms)])
    out = []
    for c in cps:
        idx = int(np.searchsorted(ps, c, side="right"))
        out.append((c, float(csum[idx]) - reg.theta * c))
    return out


def condition_II_margin(
    w: MultiplicativeWeight, p_max: int = 10**4, k_max: int = 30
) -> float:
    """Largest alpha(p^k) / (p^(dk) r^k) over p <= p_max, k <= k_max.

    A finite-grid spot check of the growth condition on prime powers; a
    bounded return value is evidence, not proof, that the declared (d, r)
    are admissible.
    """
    reg = w.ewens()
    ps = primes_upto(p_max)
    pf = ps.astype(float)
    worst = 0.0
    for k in range(1, k_max + 1):
        # float_power, not **: numpy's sqrt shortcut for ** 0.5 differs from pow
        denom = np.float_power(pf, reg.d * k) * reg.r**k
        worst = float(np.fmax.reduce(w.values_on_primes(ps, k) / denom, initial=worst))
    return worst
