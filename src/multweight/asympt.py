"""Explicit predictor formulas for partition sums and typical-prime laws.

Ewens regime: S(x) ~ A_alpha x^(d+1) (log x)^(theta-1) with the
Euler-product constant

    A_alpha = (d+1)^-1 Gamma(theta)^-1 prod_p (sum_i alpha(p^i)/p^(i(d+1))) (1 - 1/p)^theta.

Poly regime: the Dirichlet-series exponent G(s) = sum_p log^gamma p / p^s,
the saddle point sigma solving K G'(sigma) = -log x, and

    S(x)/x ~ A_alpha exp(B (log x)^(gamma/(gamma+1))) / (log x)^((gamma+2)/(2(gamma+1))),
    B = (1 + 1/gamma) (K Gamma(gamma+1))^(1/(gamma+1)).

The absolute constant folded into A_alpha for the poly regime is not
computable from its defining formula here, so poly predictions are only
meaningful in ratios across x values, where it cancels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import primes_upto
from .limitlaws import incomplete_gamma
from .weights import MultiplicativeWeight, PolyRegime


@dataclass(frozen=True)
class EwensAsymptotic:
    theta: float
    d: float
    A_alpha: float
    prime_cutoff: int
    tail_estimate: float  # magnitude of the log-product tail beyond the cutoff


@functools.lru_cache(maxsize=4)
def _prime_cache(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= cutoff, as floats, and their logs, shared across G evaluations."""
    primes = primes_upto(int(cutoff)).astype(float)
    return primes, np.log(primes)


def euler_constant(w: MultiplicativeWeight, cutoff: int = 10**6) -> EwensAsymptotic:
    """Truncated Euler-product constant of the Ewens-regime mean value law.

    Accumulated in log domain; each prime's series over prime powers is
    summed until its term falls below 1e-18, and only the primes not yet
    there are evaluated at the next k.  The recorded tail
    estimate is the contribution of the top half of the prime range, a
    practical proxy for the (logarithmic) truncation error.
    """
    reg = w.ewens()
    ps, _ = _prime_cache(cutoff)
    ips = ps.astype(np.int64)
    series = np.ones(len(ps))
    live = np.arange(len(ps))  # the primes whose last term was >= 1e-18
    k = 1
    while live.size:
        if k > 512:
            raise ValueError("prime-power series did not converge by k=512")
        term = w.normalized_prime_power_values(ips[live], k, reg.d)
        if not np.all(np.isfinite(term)):
            raise ValueError(f"{w.name}: non-finite prime-power series term at k={k}")
        series[live] += term
        live = live[term >= 1e-18]
        k += 1
    if np.any(series <= 0) or not np.all(np.isfinite(series)):
        raise ValueError("degenerate Euler factor; series diverged or weight invalid")
    logs = np.log(series) + reg.theta * np.log1p(-1.0 / ps)
    total = float(np.sum(logs))
    half = float(np.sum(logs[ps > cutoff / 2]))
    A = math.exp(total - math.lgamma(reg.theta)) / (reg.d + 1.0)
    return EwensAsymptotic(
        theta=reg.theta, d=reg.d, A_alpha=A, prime_cutoff=cutoff, tail_estimate=abs(half)
    )


def predict_S_ewens(a: EwensAsymptotic, x: float) -> float:
    """A_alpha x^(d+1) (log x)^(theta-1)."""
    if x < 2:
        raise ValueError("x must be >= 2")
    return a.A_alpha * x ** (a.d + 1.0) * math.log(x) ** (a.theta - 1.0)


def upper_gamma(a: float, y: float) -> float:
    """The upper incomplete gamma function Gamma(a, y) = Gamma(a) Q(a, y), a > 0 and y > 0,
    with Q from `limitlaws.incomplete_gamma`."""
    return math.gamma(a) * float(incomplete_gamma(a, y)[1])


def G_eval(gamma: float, s: float, k: int = 0, prime_cutoff: int = 10**6) -> float:
    """G^(k)(s) = (-1)^k sum_p log^(gamma+k) p / p^s over primes <= prime_cutoff plus a density tail.

    The tail integral substitutes u = log t:
    integral_T^inf u^(g-1) e^(-(s-1)u) du = Gamma(g, (s-1) log T) / (s-1)^g
    with g = gamma + k and Gamma(., .) the upper incomplete gamma.  Its
    own error is a PNT-size fraction of the estimate.
    """
    if s <= 1.0:
        raise ValueError("G(s) requires s > 1")
    if not 0 <= k <= 3:
        raise ValueError("derivative order must be 0..3")
    g = gamma + k
    primes, logs = _prime_cache(prime_cutoff)
    truncated = float(np.sum(logs**g / primes**s))
    L = math.log(prime_cutoff)
    tail = upper_gamma(g, (s - 1.0) * L) / (s - 1.0) ** g
    sign = -1.0 if k % 2 else 1.0
    return sign * (truncated + tail)


def _rate(K: float, gamma: float) -> float:
    """(K Gamma(gamma+1))^(1/(gamma+1)), the scale of sigma - 1, B and the gamma law."""
    return (K * math.exp(math.lgamma(gamma + 1.0))) ** (1.0 / (gamma + 1.0))


def B_constant(K: float, gamma: float) -> float:
    """B = (1 + 1/gamma) (K Gamma(gamma+1))^(1/(gamma+1))."""
    return (1.0 + 1.0 / gamma) * _rate(K, gamma)


def sigma_leading_order(K: float, gamma: float, x: float) -> float:
    """(K Gamma(gamma+1))^(1/(gamma+1)) (log x)^(-1/(gamma+1)), the leading order of sigma - 1."""
    return _rate(K, gamma) * math.log(x) ** (-1.0 / (gamma + 1.0))


def poly_euler_factor(K: float, gamma: float, prime_cutoff: int) -> float:
    """prod_p (sum_k alpha(p^k)/p^k) / exp(K log^gamma p / p) to the cutoff
    for the poly weight alpha(p) = K log^gamma p, zero at k >= 2, whose
    Euler factor at p is 1 + K log^gamma p / p.
    """
    primes, logs = _prime_cache(prime_cutoff)
    u = K * logs**gamma / primes
    return float(math.exp(np.sum(np.log1p(u) - u)))


def solve_saddle(K: float, gamma: float, x: float, prime_cutoff: int = 10**6) -> tuple[float, float]:
    """(sigma, |K G'(sigma) + log x|): the root of K G'(sigma) = -log x by bisection in (1, 2].

    G' is strictly increasing there (each summand is), so bracketing is
    monotone-safe; bisection runs to 1e-13 in sigma, far below the 1e-9
    residual contract.
    """
    if x < 3:
        raise ValueError("x must be >= 3")
    logx = math.log(x)

    def f(s: float) -> float:
        return K * G_eval(gamma, s, k=1, prime_cutoff=prime_cutoff) + logx

    lo, hi = 1.0 + 1e-14, 2.0
    if f(hi) < 0:
        raise ValueError("saddle not bracketed in (1, 2]; increase prime_cutoff")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-13:
            break
    sigma = 0.5 * (lo + hi)
    return sigma, abs(f(sigma))


def predict_S_poly(K: float, gamma: float, x: float, prime_cutoff: int = 10**6) -> float:
    """Poly-regime partition-sum predictor, up to one absolute constant.

    x * euler_factor * exp(B (log x)^(gamma/(gamma+1))) / (log x)^((gamma+2)/(2(gamma+1))).
    Use ratios of exact/predicted across x values so the missing absolute
    constant cancels.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    L = math.log(x)
    return (
        x
        * poly_euler_factor(K, gamma, prime_cutoff)
        * math.exp(B_constant(K, gamma) * L ** (gamma / (gamma + 1.0)))
        * L ** (-(gamma + 2.0) / (2.0 * (gamma + 1.0)))
    )


def predict_mean_omega_poly(K: float, gamma: float, x: float) -> float:
    """(log x)^(gamma/(gamma+1)) (K Gamma(gamma)/gamma^gamma)^(1/(gamma+1))."""
    PolyRegime(K=K, gamma=gamma)  # validate parameters
    return math.log(x) ** (gamma / (gamma + 1.0)) * (
        K * math.exp(math.lgamma(gamma)) / gamma**gamma
    ) ** (1.0 / (gamma + 1.0))


def gamma_law_params(K: float, gamma: float) -> tuple[float, float]:
    """Limit law of log P_1(N_x)/(log x)^(1/(gamma+1)): gamma distribution
    with shape gamma+1 and rate (K Gamma(gamma+1))^(1/(gamma+1))."""
    PolyRegime(K=K, gamma=gamma)
    return gamma + 1.0, _rate(K, gamma)
