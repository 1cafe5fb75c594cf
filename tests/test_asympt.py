import importlib.util
import inspect
import math
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest

from multweight import arith, asympt
from multweight.weights import EwensRegime, builtin_weight, catalog_weights


def test_euler_constant_uniform_is_one():
    a = asympt.euler_constant(builtin_weight("power", z=0.0), cutoff=10**5)
    assert a.A_alpha == pytest.approx(1.0, abs=1e-12)


def test_euler_constant_powerfree_product():
    a = asympt.euler_constant(builtin_weight("powerfree", k=2), cutoff=10**6)
    ps = arith.primes_upto(10**6).astype(float)
    oracle = float(np.exp(np.sum(np.log1p(-1.0 / ps**2))))
    assert a.A_alpha == pytest.approx(oracle, abs=1e-12)
    assert a.A_alpha == pytest.approx(6.0 / math.pi**2, abs=1e-6)


def test_euler_constant_power_weight():
    for z in (0.5, 1.0):
        a = asympt.euler_constant(builtin_weight("power", z=z), cutoff=10**5)
        assert a.A_alpha == pytest.approx(1.0 / (z + 1.0), abs=1e-10)


def test_euler_constant_monotone_convergent_in_cutoff():
    # direction depends on whether the per-prime factor exceeds 1; for
    # theta_omega(2) it is (1+2/(p-1))(1-1/p)^2 = 1 - 1/p^2 < 1
    for kind, params in (("theta_omega", {"theta": 2.0}), ("divisor", {"k": 2.0}),
                         ("powerfree", {"k": 2}), ("euler_ratio", {}), ("sigma", {"z": 1.0})):
        w = builtin_weight(kind, **params)
        vals = [asympt.euler_constant(w, cutoff=c).A_alpha for c in (10**4, 10**5, 10**6)]
        diffs = [vals[1] - vals[0], vals[2] - vals[1]]
        if all(abs(d) < 1e-10 for d in diffs):
            continue  # constant to rounding (divisor: the factor is exactly 1)
        assert diffs[0] * diffs[1] >= 0, kind  # one direction
        assert abs(diffs[1]) <= abs(diffs[0]), kind  # converging


def euler_constant_every_prime(w, cutoff):
    # oracle: the loop that evaluated every prime at each k until the
    # largest term of all fell below 1e-18; returns (A_alpha, tail_estimate)
    reg = w.ewens()
    ps = arith.primes_upto(cutoff).astype(float)
    series = np.ones(len(ps))
    k = 1
    while True:
        term = w.normalized_prime_power_values(ps.astype(np.int64), k, reg.d)
        series += term
        if float(term.max(initial=0.0)) < 1e-18:
            break
        k += 1
    logs = np.log(series) + reg.theta * np.log1p(-1.0 / ps)
    A = math.exp(float(np.sum(logs)) - math.lgamma(reg.theta)) / (reg.d + 1.0)
    return A, abs(float(np.sum(logs[ps > cutoff / 2])))


@pytest.mark.parametrize("w", [w for w in catalog_weights() if isinstance(w.regime, EwensRegime)]
                         + [builtin_weight("power", z=0.0), builtin_weight("divisor", k=0.5),
                            builtin_weight("sigma", z=-0.5)], ids=lambda w: w.name)
def test_euler_constant_matches_every_prime_oracle(w):
    # each prime stops at its own last term >= 1e-18; the later terms of the
    # others are below half an ulp of their factor, so nothing moves
    for cutoff in (10**4, 10**5):
        a = asympt.euler_constant(w, cutoff=cutoff)
        assert (a.A_alpha, a.tail_estimate) == euler_constant_every_prime(w, cutoff)


def test_predict_S_ewens_uniform():
    a = asympt.euler_constant(builtin_weight("power", z=0.0), cutoff=10**5)
    assert asympt.predict_S_ewens(a, 10**6) == pytest.approx(10**6, rel=1e-12)


def test_predict_S_ewens_powerfree_magnitude():
    a = asympt.euler_constant(builtin_weight("powerfree", k=2), cutoff=10**6)
    assert asympt.predict_S_ewens(a, 10**6) == pytest.approx(607927.1, abs=1.0)


def test_predict_scale_consistency():
    # prediction / x^(d+1) depends on x only through log x
    a = asympt.euler_constant(builtin_weight("sigma", z=1.0), cutoff=10**4)
    x1, x2 = 10**4, 10**6
    r1 = asympt.predict_S_ewens(a, x1) / x1 ** (a.d + 1)
    r2 = asympt.predict_S_ewens(a, x2) / x2 ** (a.d + 1)
    assert r1 == pytest.approx(r2 * (math.log(x1) / math.log(x2)) ** (a.theta - 1), rel=1e-12)


def upper_gamma_closed_form(a, y):
    # Gamma(n, y) = (n-1)! e^-y sum_{k<n} y^k/k!, Gamma(1/2, y) = sqrt(pi) erfc(sqrt y),
    # Gamma(3/2, y) = sqrt(y) e^-y + Gamma(1/2, y)/2
    if a == 0.5:
        return math.sqrt(math.pi) * math.erfc(math.sqrt(y))
    if a == 1.5:
        return math.sqrt(y) * math.exp(-y) + 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(y))
    n = int(a)
    return math.factorial(n - 1) * math.exp(-y) * math.fsum(y**k / math.factorial(k) for k in range(n))


def _both_sides_of_a_plus_1(a):
    # the series serves y < a + 1, the continued fraction y >= a + 1
    return (0.05, 0.3, (a + 1.0) / 2, a + 0.5, a + 0.99, a + 1.0, a + 1.5, a + 4.0, 3 * a + 10.0, 60.0)


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0])
def test_upper_gamma_matches_scipy(a):
    from scipy.special import gamma, gammaincc

    for y in _both_sides_of_a_plus_1(a):
        assert asympt.upper_gamma(a, y) == pytest.approx(gamma(a) * gammaincc(a, y), rel=1e-14, abs=0), y


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_upper_gamma_matches_closed_forms(a):
    # a = 1/2 is checked here only: scipy's gammaincc(0.5, y) is 2e-14 off
    # erfc near y = 1
    for y in _both_sides_of_a_plus_1(a):
        assert asympt.upper_gamma(a, y) == pytest.approx(upper_gamma_closed_form(a, y), rel=1e-14, abs=0), y


def test_G_eval_reference_value():
    # oracle: direct summation to 1e8 plus the density tail gives 0.4930911094
    g = asympt.G_eval(1.0, 2.0, k=0, prime_cutoff=10**6)
    assert g == pytest.approx(0.4930911094, abs=1e-6)


def test_G_eval_sign_alternation():
    for k in range(4):
        g = asympt.G_eval(1.0, 1.5, k=k, prime_cutoff=10**5)
        assert math.copysign(1.0, g) == (-1.0) ** k


def test_G_eval_requires_s_above_one():
    with pytest.raises(ValueError):
        asympt.G_eval(1.0, 1.0, k=0)


def test_G_near_one_leading_term():
    # (s-1)^(gamma+k) |G^(k)(s)| approaches Gamma(gamma+k) as s -> 1+
    from scipy.special import gamma as G

    for gamma, k in ((1.0, 0), (1.0, 1), (2.0, 1)):
        gaps = []
        for sm1 in (0.1, 0.05, 0.025):
            v = asympt.G_eval(gamma, 1.0 + sm1, k=k, prime_cutoff=10**6)
            gaps.append(abs(sm1 ** (gamma + k) * abs(v) / G(gamma + k) - 1.0))
        assert gaps[2] < gaps[1] < gaps[0]  # converging is the pass criterion
        assert gaps[2] < 0.05


def test_G_prime_strictly_increasing():
    vals = [asympt.G_eval(1.0, s, k=1, prime_cutoff=10**5) for s in np.linspace(1.05, 2.0, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_solve_saddle_residual_and_leading():
    sigma, residual = asympt.solve_saddle(1.0, 1.0, 10**6, prime_cutoff=10**5)
    assert residual <= 1e-9
    assert asympt.sigma_leading_order(1.0, 1.0, 10**6) == pytest.approx(math.log(10**6) ** -0.5, rel=1e-12)
    assert 1.0 < sigma < 2.0


def test_solve_saddle_trend():
    gaps = []
    for x in (1e4, 1e6, 1e8):
        sigma, _ = asympt.solve_saddle(1.0, 1.0, x, prime_cutoff=10**5)
        gaps.append(abs((sigma - 1.0) / asympt.sigma_leading_order(1.0, 1.0, x) - 1.0))
    assert gaps[2] < gaps[1] < gaps[0]


def test_B_constant_and_exponent():
    assert asympt.B_constant(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    # denominator exponent (gamma+2)/(2(gamma+1)) = 3/4 at gamma = 1
    x = 10**5
    base = asympt.predict_S_poly(1.0, 1.0, x, 10**4)
    euler = asympt.poly_euler_factor(1.0, 1.0, 10**4)
    ratio = base / (x * euler * math.exp(asympt.B_constant(1.0, 1.0) * math.log(x) ** 0.5))
    assert ratio == pytest.approx(math.log(x) ** -0.75, rel=1e-12)


def test_poly_constants_are_their_written_out_expressions_bit_for_bit():
    # each function once wrote (K Gamma(gamma+1))^(1/(gamma+1)) out in full,
    # and predict_S_poly read B and the Euler factor from a solved saddle
    cutoff = 10**4
    for K in (0.25, 1.0, 2.0, 3.7):
        for gamma in (0.5, 1.0, 1.5, 2.0, 3.0):
            B = (1.0 + 1.0 / gamma) * (K * math.exp(math.lgamma(gamma + 1.0))) ** (1.0 / (gamma + 1.0))
            rate = (K * math.exp(math.lgamma(gamma + 1.0))) ** (1.0 / (gamma + 1.0))
            assert asympt.B_constant(K, gamma) == B
            assert asympt.gamma_law_params(K, gamma) == (gamma + 1.0, rate)
            euler = asympt.poly_euler_factor(K, gamma, cutoff)
            for x in (10**3, 10**6, 1e9):
                L = math.log(x)
                sigma1 = (K * math.exp(math.lgamma(gamma + 1.0))) ** (1.0 / (gamma + 1.0)) * L ** (
                    -1.0 / (gamma + 1.0)
                )
                S = (
                    x
                    * euler
                    * math.exp(B * L ** (gamma / (gamma + 1.0)))
                    * L ** (-(gamma + 2.0) / (2.0 * (gamma + 1.0)))
                )
                assert asympt.sigma_leading_order(K, gamma, x) == sigma1
                assert asympt.predict_S_poly(K, gamma, x, cutoff) == S


def test_the_benchmark_asympt_layers_name_public_functions():
    # perfbench's asympt.euler and asympt.saddle layers find this route by
    # function name; a renamed function would leave them reading 0
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    public = [name for name, f in vars(asympt).items()
              if inspect.isfunction(f) and f.__module__ == asympt.__name__ and not name.startswith("_")]
    patterns = [p for layer, ps in spans.LAYERS if layer in ("asympt.euler", "asympt.saddle") for p in ps]
    assert len(patterns) == 8
    for pattern in patterns:
        module, name = pattern.split(".", 1)
        assert module == "asympt" and any(fnmatchcase(f, name) for f in public), pattern


def test_predict_S_poly_rejects_x_below_2():
    # log 1 = 0 raised a ZeroDivisionError
    with pytest.raises(ValueError, match="x must be >= 2"):
        asympt.predict_S_poly(1.0, 1.0, 1.0, 10**4)


def test_predict_mean_omega_examples():
    assert asympt.predict_mean_omega_poly(1.0, 1.0, math.exp(16.0)) == pytest.approx(4.0, rel=1e-12)
    a = asympt.predict_mean_omega_poly(1.0, 1.5, 10**5)
    b = asympt.predict_mean_omega_poly(1.0, 1.5, 10**10)  # log x doubles
    assert b / a == pytest.approx(2.0 ** (1.5 / 2.5), rel=1e-9)


def test_gamma_law_params():
    assert asympt.gamma_law_params(1.0, 1.0) == (2.0, 1.0)
    shape, rate = asympt.gamma_law_params(2.0, 1.0)
    assert shape == 2.0
    assert rate == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # limit mean = shape/rate
    assert shape / rate == pytest.approx((1.0 + 1.0) / (2.0 * math.gamma(2.0)) ** 0.5, rel=1e-12)


def test_saddle_rejects_tiny_x():
    with pytest.raises(ValueError):
        asympt.solve_saddle(1.0, 1.0, 2.0)


def test_saddle_reports_non_bracketing():
    # gamma=3 pushes |G'(2)| ~ 6.8 past log 3: the root leaves (1, 2]
    with pytest.raises(ValueError, match="bracket"):
        asympt.solve_saddle(1.0, 3.0, 3.0, prime_cutoff=10**4)


def test_euler_constant_divergence_detected():
    from multweight.weights import EwensRegime, MultiplicativeWeight

    bad = MultiplicativeWeight(
        name="geometric-growth",
        regime=EwensRegime(theta=1.0, d=0.0),
        values=lambda ps, k: np.full(len(ps), 3.0**k),
    )
    with pytest.raises(ValueError):
        asympt.euler_constant(bad, cutoff=10**3)
