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
work; where alpha(p) is one number at every prime (prime_value), that
factor costs one multiply by it, or none where it is 1.  Per-n
factorization is kept as the independent brute-force route for tests.  The
exact scans reduce alpha block by block (AlphaWalk); the draws read two
dense tables from one walk (build_weight_table): p_1, from which they are
factored, and the prefix sum S(y) for y <= x, alpha summed in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    without ever leaving the finite range.  prime_value, when present, is
    alpha(p), one number at every prime, from which values(ps, 1) is built
    (_at_every_prime); AlphaWalk cannot see it in a values function, and
    rejects a prime_value that values(ps, 1) does not return.
    """

    name: str
    regime: Regime
    values: Callable[[np.ndarray, int], np.ndarray]
    log_values: Callable[[np.ndarray, int], np.ndarray] | None = None
    prime_value: float | None = None

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


def _multiset_count(c: float, i: int) -> float:
    """C(i + c - 1, i) by C_j = C_(j-1) (j + c - 1)/j: exact for integer c."""
    out = 1.0
    for j in range(1, i + 1):
        out = out * (c + (j - 1)) / j
    return out


def _log_sum_exp(a: np.ndarray) -> np.ndarray:
    """log sum_j exp(a[:, j]) with each row's largest terms held out of the
    sum, as scipy.special.logsumexp forms it: log1p(rest/m) + log m + max."""
    top = a.max(axis=1, keepdims=True)
    is_top = a == top
    m = is_top.sum(axis=1).astype(float)
    rest = np.where(is_top, 0.0, np.exp(a - top)).sum(axis=1)
    return np.log1p(rest / m) + np.log(m) + top[:, 0]


def _at_every_prime(name: str, regime: Regime, at_k: Callable[[int], float],
                    log_values: Callable[[np.ndarray, int], np.ndarray] | None = None) -> MultiplicativeWeight:
    """The weight alpha(p^k) = at_k(k), one number at every prime p for each k."""
    return MultiplicativeWeight(name, regime, lambda ps, k: np.full(len(ps), at_k(k)), log_values, at_k(1))


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
    for name, v in zip(names, args):  # NaN passes every check of the form v <= 0
        if not math.isfinite(v):
            raise ValueError(f"weight {kind} requires a finite {name}, got {v:g}")
    if kind == "theta_omega":
        (theta,) = args
        if theta <= 0:
            raise ValueError("theta_omega requires theta > 0")
        return _at_every_prime(f"theta_omega({theta:g})", EwensRegime(theta=theta), lambda k: theta)
    if kind == "divisor":
        (c,) = args
        if c <= 0:
            raise ValueError("divisor requires k > 0")
        return _at_every_prime(f"divisor({c:g})", EwensRegime(theta=c), lambda i: _multiset_count(c, i))
    if kind == "powerfree":
        (c,) = args
        if not c.is_integer() or c < 2:
            raise ValueError(f"powerfree requires an integer k >= 2, got {c:g}")
        return _at_every_prime(f"powerfree({int(c)})", EwensRegime(theta=1.0), lambda i: 1.0 if i < c else 0.0)
    if kind == "euler_ratio":
        return MultiplicativeWeight("euler_ratio", EwensRegime(theta=1.0), lambda ps, k: 1.0 - 1.0 / ps.astype(float))
    if kind == "sigma":
        (z,) = args
        # sum_{j<=k} p^(jz), and its log
        return MultiplicativeWeight(
            f"sigma({z:g})",
            EwensRegime(theta=1.0, d=max(z, 0.0)),
            lambda ps, k: np.sum(np.float_power(ps.astype(float)[:, None], z * np.arange(k + 1)[None, :]), axis=1),
            lambda ps, k: _log_sum_exp(z * np.arange(k + 1)[None, :] * np.log(ps.astype(float))[:, None]),
        )
    if kind == "power":
        (z,) = args
        if z <= -1:
            raise ValueError("power requires z > -1")
        name, regime = f"power({z:g})", EwensRegime(theta=1.0, d=z)
        logs = lambda ps, k: z * k * np.log(ps.astype(float))
        if z == 0:
            return _at_every_prime(name, regime, lambda k: 1.0, logs)
        return MultiplicativeWeight(name, regime, lambda ps, k: np.float_power(ps.astype(float), z * k), logs)
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
PIECE = 1 << 16  # entries of the cofactor step's temporaries at a time


def _fsum(totals: list[float]) -> float:
    try:
        return math.fsum(totals)
    except OverflowError:  # finite chunk totals whose sum passes the float range
        return math.inf


def chunk_total(sums: list[float]) -> float:
    """np.sum of a CHUNK-entry float64 chunk from the np.sum of each of its
    BLOCK-entry blocks, in order.  numpy sums a contiguous array pairwise
    (Higham, SIAM J. Sci. Comput. 14, 1993), halving it through BLOCK
    entries, so the chunk's total is the pairwise tree of its block sums."""
    if len(sums) == 1:
        return sums[0]
    half = len(sums) // 2
    return chunk_total(sums[:half]) + chunk_total(sums[half:])


class AlphaWalk:
    """alpha on the blocks of the walk over n <= x (arith.Walk), and S(y) at
    the read points y in ys and x.

    n <= x is a product of prime powers p^k, p <= sqrt(x), and a cofactor
    q that is 1 or the prime p_1(n) > sqrt(x).  alpha(b, out) writes alpha
    on block b into out: from ones, the multiples of each p^k are multiplied
    by alpha(p^k)/alpha(p^(k-1)), and each n with a cofactor q > 1 by
    alpha(q), in the order k = 1, q, k >= 2 with p increasing, so every
    alpha(n) is the same product whatever the block size and x.  Only the
    ratios other than 1, listed once per walk, are multiplied, and alpha(q)
    is c = w.prime_value where there is one: no Block.top at c = 1, and no
    per-n values.  The cofactor step takes the block PIECE entries at a
    time, so it holds no index array or gathered copy of the block.
    Weights where alpha(p^j) = 0 but alpha(p^k) != 0 for some k > j cannot
    be sieved this way and are rejected (no catalog weight does that).

    Iterating yields (block, alpha on it), written into one
    BLOCK-entry buffer; the walk's blocks nest in CHUNK-entry chunks.  It
    takes each block's np.sum as the block passes, and each whole chunk's
    total from them (chunk_total), the np.sum that build_weight_table adds.
    S(y) is the math.fsum of the totals of the chunks before y's plus the
    cumsum of y's chunk up to y, as the dense prefix sums it: in a chunk that
    holds a read point, the running sum is carried through each block up to
    the last read point by one in-place cumsum, once the block's alpha has
    been used (so alpha on a block is valid until the next is asked for).
    S maps each read point, and 0, to S(y) once the walk has passed it.
    That buffer and the block's own tables are all a walk holds.  Past the
    float range alpha is inf or NaN, without a warning only under the
    caller's np.errstate.
    """

    def __init__(self, w: MultiplicativeWeight, x: int, ys: Sequence[int] = ()):
        self.w, self.walk, self.ratios = w, arith.Walk(x), []
        self.reads = sorted({*ys, x})
        c = w.prime_value  # stands in for alpha(q) at every cofactor, so it must be values(ps, 1)
        if c is not None and np.any(_nonnegative(w, w.values_on_primes(np.array([2, 3]), 1)) != c):
            raise ValueError(f"{w.name}: prime_value {c:g} is not its alpha(p) at p = 2 and 3")
        prev = np.ones(len(self.walk.levels[0]))
        for k, ps in enumerate(self.walk.levels, 1):
            cur = _nonnegative(w, w.values_on_primes(ps, k))
            prev = prev[: len(ps)]
            bad = (prev == 0.0) & (cur != 0.0)
            if np.any(bad):
                raise ValueError(f"{w.name}: alpha(p^{k - 1}) = 0 but alpha(p^{k}) != 0 at p={int(ps[bad][0])}; "
                                 "ratio sieving requires monotone-vanishing prime-power values")
            ratio = np.divide(cur, prev, out=np.ones_like(cur), where=prev != 0.0)
            moved = ratio != 1.0
            self.ratios.append(list(zip((ps[moved] ** k).tolist(), ratio[moved].tolist())))
            prev = cur

    def alpha(self, b: arith.Block, out: np.ndarray) -> np.ndarray:
        c = self.w.prime_value
        out.fill(1.0)
        for k, ratios in enumerate(self.ratios):
            arith.strided(out, b.start, np.multiply, ratios)
            if k == 0 and c != 1.0:  # the hits' indices PIECE entries at a time, not the block's
                root = math.isqrt(self.walk.x)
                for i in range(0, len(out), PIECE):
                    top, part = b.top[i : i + PIECE], out[i : i + PIECE]
                    hit = np.flatnonzero(top > root)
                    part[hit] *= _nonnegative(self.w, self.w.values_on_primes(top[hit], 1)) if c is None else c
        return out

    def __iter__(self):
        self.S, self.totals = {0: 0.0}, []
        buf, sums, run = np.empty(arith.BLOCK), [], 0.0
        whole = self.walk.x // CHUNK  # the chunks that end by x; the last, partial one needs no total
        for b in self.walk:
            chunk = (b.start - 1) // CHUNK
            a = self.alpha(b, buf[: b.stop - b.start])
            if chunk < whole:
                sums.append(float(np.sum(a)))
            reads = [y for y in self.reads if b.start <= y <= (chunk + 1) * CHUNK]
            yield b, a
            if reads:  # S(y) in this chunk: carry the running sum through the block
                if b.start > chunk * CHUNK + 1:
                    a[0] += run
                run = float(np.cumsum(a, out=a)[-1])
                self.S.update((y, float(a[y - b.start]) + _fsum(self.totals)) for y in reads if y < b.stop)
            if len(sums) == CHUNK // arith.BLOCK:
                self.totals.append(chunk_total(sums))
                sums = []


def check_S(w: MultiplicativeWeight, x: int, S: float) -> None:
    if not 0 < S < math.inf:
        raise ValueError(f"{w.name}: degenerate table: S({x}) = {S} is not positive and finite")


class Mass:
    """The alpha-mass of each value of one law, added in n order (np.add.at).

    `mass` runs up to the largest value met.  Its array grows to fit that
    value, and once the value passes CHUNK, to x + 1 at once, so a law whose
    values grow block by block (p_1) is not copied at each block.
    """

    def __init__(self, x: int):
        self.x, self.array, self.top = x, np.zeros(1), 1

    def add(self, v: np.ndarray, a: np.ndarray) -> None:
        if len(v):
            self.top = max(self.top, int(v.max()) + 1)
            if self.top > len(self.array):
                grown = np.zeros(self.top if self.top <= CHUNK else max(self.top, self.x + 1))
                grown[: len(self.array)] = self.array
                self.array = grown
            np.add.at(self.array, v, a)

    @property
    def mass(self) -> np.ndarray:
        return self.array[: self.top]


@dataclass(frozen=True)
class DrawTables:
    """The dense tables of the draws over n <= x, from one walk.

    p1[n] is p_1(n), the largest prime factor, int32 (p1[0] = 0, p1[1] = 1);
    prefix[y] is S(y) = sum_{n<=y} alpha(n), float64 (S(0) = 0).  Slices
    p1[:y + 1] and prefix[:y + 1] are the tables at y.  mass, where the walk
    binned a law, is its alpha-mass over n <= x (Mass).
    """

    p1: np.ndarray
    prefix: np.ndarray
    mass: np.ndarray | None = None


def build_weight_table(w: MultiplicativeWeight, x: int, law: Callable | None = None) -> DrawTables:
    """p_1 and the prefix sum S(y), y = 0..x, of one walk over n <= x, and the
    mass of law, a statistic's values on a block (experiments.statistic), if given.

    Each block's alpha and p_1 are written into the outputs, then each
    CHUNK-entry chunk of alpha is replaced, in place, by its cumsum plus the
    math.fsum of the totals of the chunks before it, each the chunk_total of
    its blocks' np.sum, as AlphaWalk takes them: a plain cumsum
    drifts like n*eps, this one only within a chunk, whatever x.
    Raises ValueError where S(x) is not positive and finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range, S(x) below is inf or NaN
        walk = AlphaWalk(w, x)  # checks the entry budget and the weight before the outputs are allocated
        p1, prefix, totals = np.zeros(x + 1, dtype=np.int32), np.zeros(x + 1), []
        mass = None if law is None else Mass(x)
        for b in walk.walk:  # alpha first, so the block's p_1 is allocated after alpha's temporaries are freed
            a = walk.alpha(b, prefix[b.start : b.stop])
            if mass is not None:
                mass.add(law(b), a)  # binned in n order before the cumsum, as a scan bins it
            p1[b.start : b.stop] = b.largest_prime
        for start in range(1, x + 1, CHUNK):
            chunk = prefix[start : start + CHUNK]
            sums = [float(np.sum(chunk[i : i + arith.BLOCK])) for i in range(0, len(chunk), arith.BLOCK)]
            np.cumsum(chunk, out=chunk)
            if totals:
                chunk += _fsum(totals)
            totals.append(chunk_total(sums))
        check_S(w, x, prefix[-1])
    return DrawTables(p1, prefix, None if mass is None else mass.mass)


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


def condition_I_residuals(w: MultiplicativeWeight, checkpoints: Sequence[int]) -> list[tuple[int, float]]:
    """Residuals sum_{p<=x} alpha(p) log p / p^d - theta*x at each checkpoint, in the order given.

    The sum runs over the segments of arith.prime_segments: each segment's
    cumsum starts from the sum before it, so every partial sum is the float
    of one cumsum over all primes, and a checkpoint is read as its segment
    passes.  The caller judges the decay; the hypothesis only promises o(x)
    decay of the residual relative to x.
    """
    reg = w.ewens()
    cps = [int(c) for c in checkpoints]
    todo = sorted(range(len(cps)), key=lambda i: -cps[i])  # the smallest checkpoint last
    out, carry = [0.0] * len(cps), 0.0
    for k, ps in enumerate(arith.prime_segments(max(cps, default=0)), 1):
        pf = ps.astype(float)
        csum = np.cumsum(np.concatenate([[carry], w.values_on_primes(ps, 1) * np.log(pf) / pf**reg.d]))
        while todo and cps[todo[-1]] < k * arith.SEGMENT:
            i = todo.pop()
            out[i] = float(csum[np.searchsorted(ps, cps[i], side="right")]) - reg.theta * cps[i]
        carry = csum[-1]
    return list(zip(cps, out))


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
