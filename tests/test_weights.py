import math

import numpy as np
import pytest

from multweight import arith, weights
from multweight.weights import builtin_weight, catalog_weights


def test_divisor_prime_power_value():
    w = builtin_weight("divisor", k=2.0)
    # d_2(p^3) = C(4, 3) = 4
    assert w.value(7, 3) == pytest.approx(4.0, rel=1e-12)
    assert w.value(3, 1) == pytest.approx(2.0, rel=1e-12)


def test_theta_omega_values():
    w = builtin_weight("theta_omega", theta=2.0)
    for k in range(1, 8):
        assert w.value(5, k) == 2.0


def test_powerfree_values():
    w = builtin_weight("powerfree", k=2)
    assert w.value(3, 1) == 1.0
    assert w.value(3, 2) == 0.0


def test_powerfree_k_must_be_an_integer():
    for k in (2.5, "2.7"):
        with pytest.raises(ValueError, match="integer k"):
            builtin_weight("powerfree", k=k)
    assert builtin_weight("powerfree", k=3.0).name == builtin_weight("powerfree", k="3").name == "powerfree(3)"


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        builtin_weight("theta_omega", theta=-1.0)
    with pytest.raises(ValueError):
        builtin_weight("powerfree", k=1)
    with pytest.raises(ValueError):
        builtin_weight("power", z=-2.0)
    with pytest.raises(ValueError):
        builtin_weight("nope")
    with pytest.raises(ValueError):
        builtin_weight("divisor", k=2.0, extra=1)


def test_regimes():
    assert builtin_weight("theta_omega", theta=3.0).ewens().theta == 3.0
    assert builtin_weight("divisor", k=2.5).ewens().theta == 2.5
    assert builtin_weight("sigma", z=1.0).ewens().d == 1.0
    assert builtin_weight("sigma", z=-1.0).ewens().d == 0.0
    assert builtin_weight("power", z=0.5).ewens().d == 0.5
    p = builtin_weight("poly_log", K=2.0, gamma=1.5).poly()
    assert (p.K, p.gamma) == (2.0, 1.5)
    with pytest.raises(ValueError):
        builtin_weight("poly_log", K=1.0, gamma=1.0).ewens()


def test_table_uniform_prefix(spf_1e4):
    w = builtin_weight("power", z=0.0)
    t = weights.build_weight_table(w, 100, spf_1e4)
    assert t.S_at(100) == 100.0


def test_table_small_sums(spf_1e4):
    t = weights.build_weight_table(builtin_weight("powerfree", k=2), 10, spf_1e4)
    assert t.S_at(10) == 7.0
    t = weights.build_weight_table(builtin_weight("divisor", k=2.0), 10, spf_1e4)
    assert t.S_at(10) == pytest.approx(27.0, rel=1e-12)


def test_table_matches_direct_evaluation(spf_1e4):
    # x = 1e4, and both sides of the squares 4, 9, 25, 49 and 121, where
    # sqrt(x) gains a prime, with the spf limit equal to x and above it
    cases = [(10**4, spf_1e4)]
    for x in (2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122):
        cases += [(x, arith.build_spf(x)), (x, spf_1e4)]
    for x, spf in cases:
        for w in catalog_weights():
            table = weights.build_weight_table(w, x, spf)
            direct = np.array([weights.evaluate_weight(w, n, spf) for n in range(1, x + 1)])
            np.testing.assert_allclose(table.alpha[1:], direct, rtol=1e-12, atol=0)


def test_table_multiplicativity_random_coprime_pairs(spf_1e5, rng):
    x = 10**5
    w = builtin_weight("sigma", z=1.0)
    table = weights.build_weight_table(w, x, spf_1e5)
    done = 0
    while done < 1000:
        a = int(rng.integers(2, 400))
        b = int(rng.integers(2, x // a))
        if math.gcd(a, b) != 1:
            continue
        assert table.alpha[a * b] == pytest.approx(table.alpha[a] * table.alpha[b], rel=1e-9)
        done += 1


def test_prefix_monotone_and_theta1_identity(spf_1e5):
    t = weights.build_weight_table(builtin_weight("theta_omega", theta=1.0), 10**5, spf_1e5)
    assert np.all(np.diff(t.prefix) >= 0)
    assert t.S == float(10**5)  # theta=1 makes alpha identically 1


def test_rejects_non_monotone_vanishing(spf_1e4):
    for values in (
        lambda p, k: 0.0 if k == 1 else 1.0,
        lambda p, k: 0.0 if k <= 2 else 1.0,  # vanishes at k = 1, 2, returns at 3
    ):
        bad = weights.MultiplicativeWeight(
            name="bad",
            prime_power_value=values,
            regime=weights.EwensRegime(theta=1.0),
        )
        with pytest.raises(ValueError, match="monotone"):
            weights.build_weight_table(bad, 100, spf_1e4)


def test_rejects_negative_values_at_large_primes(spf_1e4):
    # negative only at primes above sqrt(100), which the table reaches
    # through the cofactor of n rather than through a prime-power slice
    bad = weights.MultiplicativeWeight(
        name="negative_above_10",
        prime_power_value=lambda p, k: -1.0 if p > 10 else 1.0,
        regime=weights.EwensRegime(theta=1.0),
    )
    with pytest.raises(ValueError, match="negative"):
        weights.build_weight_table(bad, 100, spf_1e4)


def test_condition_I_single_prime(spf_1e4):
    w = builtin_weight("theta_omega", theta=2.0)
    [(x, r)] = weights.condition_I_residuals(w, [2], spf_1e4)
    # sum is alpha(2) log 2 / 2^d with d = 0
    assert r == pytest.approx(2.0 * math.log(2.0) - 2.0 * 2.0, rel=1e-12)


def test_condition_I_linear_in_alpha(spf_1e6):
    base = weights.condition_I_residuals(builtin_weight("power", z=0.0), [10**4, 10**6], spf_1e6)
    twice = weights.condition_I_residuals(builtin_weight("theta_omega", theta=2.0), [10**4, 10**6], spf_1e6)
    for (x1, r1), (x2, r2) in zip(base, twice):
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)


def test_condition_I_oracle_value_1e6(spf_1e6):
    # independent oracle: fsum of log p over trial-sieved primes
    ps = arith.primes_upto(10**6)
    oracle = math.fsum(math.log(int(p)) for p in ps) - 10**6
    [(_, r)] = weights.condition_I_residuals(builtin_weight("power", z=0.0), [10**6], spf_1e6)
    assert r == pytest.approx(oracle, rel=1e-9)
    # magnitude pinned: theta(1e6) - 1e6 = -1515.82...
    assert r == pytest.approx(-1515.825, abs=0.01)


def test_condition_I_requires_ewens(spf_1e4):
    with pytest.raises(ValueError):
        weights.condition_I_residuals(builtin_weight("poly_log", K=1.0, gamma=1.0), [100], spf_1e4)


def test_prime_weighted_sum_basic(spf_1e4):
    w = builtin_weight("power", z=0.0)
    s = weights.prime_weighted_sum(w, lambda t: 1.0 / t, (2, 3), spf_1e4)
    assert s == pytest.approx(1.0 / 2 + 1.0 / 3, rel=1e-12)
    assert weights.prime_weighted_sum(w, lambda t: 1.0 / t, (24, 28), spf_1e4) == 0.0


def test_prime_weighted_sum_loglog_tracking(spf_1e6):
    # sum over [log^2 x, x] of alpha(p)/p tracks theta*(loglog x - loglog log^2 x)
    # with a bounded residual (the pass criterion is boundedness, not a value)
    w = builtin_weight("power", z=0.0)
    residuals = []
    for x in (10**4, 10**5, 10**6):
        lo = math.log(x) ** 2
        s = weights.prime_weighted_sum(w, lambda t: 1.0 / t, (lo, x), spf_1e6, d=0.0)
        target = math.log(math.log(x)) - math.log(math.log(lo))
        residuals.append(abs(s - target))
    assert max(residuals) < 0.5


def test_condition_II_margin_bounded():
    w = builtin_weight("theta_omega", theta=2.0)
    assert weights.condition_II_margin(w, p_max=500, k_max=20) == pytest.approx(2.0)
    w1 = builtin_weight("powerfree", k=2)
    assert weights.condition_II_margin(w1, p_max=500, k_max=20) <= 1.0


def test_compensated_cumsum_matches_fsum(rng):
    a = rng.random(10**5) * 10.0
    cs = weights._compensated_cumsum(a, chunk=1 << 10)
    assert cs[-1] == pytest.approx(math.fsum(a.tolist()), rel=1e-14)
    assert cs[0] == a[0]
