import math

import numpy as np
import pytest

from dense import dense_condition_I_residuals
from multweight import arith, experiments, weights
from multweight.weights import builtin_weight, catalog_weights


def test_divisor_prime_power_value():
    w = builtin_weight("divisor", k=2.0)
    # d_2(p^3) = C(4, 3) = 4
    assert w.value(7, 3) == 4.0
    assert w.value(3, 1) == 2.0
    # C(i + k - 1, i) by the product recurrence is exact for integer k
    for k in (2, 3, 5):
        w = builtin_weight("divisor", k=float(k))
        for i in range(1, 30):
            assert w.value(2, i) == math.comb(i + k - 1, i), (k, i)


def test_divisor_3_mass_at_one_prime_factor_is_three_times_pi():
    # alpha(p) = 3 exactly, so the Omega = 1 mass at 1e4 is 3 pi(1e4) = 3687
    x = 10**4
    w = builtin_weight("divisor", k=3.0)
    ((mass,),) = experiments.scan(w, x, laws=[(experiments.statistic("big_omega", x), [x])])[1]
    assert mass[1] == 3 * 1229


def test_divisor_2_sum_is_the_dirichlet_hyperbola_sum():
    # sum_{n <= x} d(n) = 2 sum_{k <= sqrt x} floor(x/k) - floor(sqrt x)^2
    x = 10**6
    r = math.isqrt(x)
    (S,), _ = experiments.scan(builtin_weight("divisor", k=2.0), x, ys=[x])
    assert S == 2 * sum(x // k for k in range(1, r + 1)) - r * r


def test_sigma_log_values_equal_scipy_logsumexp_bit_for_bit():
    from scipy.special import logsumexp

    ps = np.array([2, 3, 5, 7, 101, 1009, 999983])
    for z in (-2.0, -0.5, 0.0, 0.3, 1.0, 2.5):
        w = builtin_weight("sigma", z=z)
        for k in range(1, 40):
            ref = logsumexp(z * np.arange(k + 1)[None, :] * np.log(ps.astype(float))[:, None], axis=1)
            np.testing.assert_array_equal(w.log_values(ps, k), ref)


def test_theta_omega_values():
    w = builtin_weight("theta_omega", theta=2.0)
    for k in range(1, 8):
        assert w.value(5, k) == 2.0


def test_powerfree_values():
    w = builtin_weight("powerfree", k=2)
    assert w.value(3, 1) == 1.0
    assert w.value(3, 2) == 0.0


def test_hand_values_of_each_kind():
    # each kind's values() is its one definition of alpha(p^k): pin it by hand
    assert builtin_weight("sigma", z=1.0).value(2, 3) == 15.0  # 1 + 2 + 4 + 8
    assert builtin_weight("power", z=0.5).value(3, 2) == 3.0  # 9^(1/2)
    assert builtin_weight("euler_ratio").value(5, 1) == pytest.approx(0.8, rel=1e-15)
    assert builtin_weight("euler_ratio").value(5, 4) == pytest.approx(0.8, rel=1e-15)
    poly = builtin_weight("poly_log", K=2.0, gamma=1.0)
    assert poly.value(7, 1) == pytest.approx(2.0 * math.log(7.0), rel=1e-15)
    assert poly.value(7, 2) == 0.0
    pf3 = builtin_weight("powerfree", k=3)
    assert (pf3.value(11, 2), pf3.value(11, 3), pf3.value(11, 5)) == (1.0, 0.0, 0.0)
    assert builtin_weight("divisor", k=0.5).value(3, 2) == pytest.approx(0.375, rel=1e-14)  # C(1.5, 2)
    assert builtin_weight("theta_omega", theta=2.0).value(3, 0) == 1.0


def test_every_kind_has_a_catalog_entry_and_parses_as_a_spec():
    from multweight import cli

    assert sorted(kind for kind, _ in weights.CATALOG) == sorted(weights.WEIGHT_KINDS)
    for kind, params in weights.CATALOG:
        spec = ":".join([kind, *(str(params[name]) for name in weights.WEIGHT_KINDS[kind])])
        assert cli.parse_weight_spec(spec).name == builtin_weight(kind, **params).name


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
    with pytest.raises(ValueError, match="unexpected parameters"):
        builtin_weight("divisor", k=2.0, extra=1)
    with pytest.raises(ValueError, match="needs parameter 'gamma'"):
        builtin_weight("poly_log", K=1.0)
    with pytest.raises(ValueError, match="weight power"):
        builtin_weight("power", z=[1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [kind for kind, names in weights.WEIGHT_KINDS.items() if names])
def test_non_finite_parameters_are_rejected(kind, bad):
    # NaN passed every check of the form theta <= 0, and the walk ran before S(x) = nan was caught
    good = dict(weights.CATALOG)[kind]
    for name in weights.WEIGHT_KINDS[kind]:
        with pytest.raises(ValueError, match=f"^weight {kind} requires a finite {name}, got "):
            builtin_weight(kind, **{**good, name: bad})


def test_kinds_with_one_value_at_every_prime_carry_it():
    carried = {("theta_omega", 2.0): 2.0, ("divisor", 2.5): 2.5, ("powerfree", 3.0): 1.0, ("power", 0.0): 1.0}
    for (kind, v), c in carried.items():
        w = builtin_weight(kind, **{weights.WEIGHT_KINDS[kind][0]: v})
        assert w.prime_value == c, w.name
        assert w.values_on_primes(np.array([2, 3, 10007]), 1).tolist() == [c] * 3, w.name
    for w in (builtin_weight("power", z=0.5), builtin_weight("sigma", z=0.0), builtin_weight("euler_ratio"),
              builtin_weight("poly_log", K=1.0, gamma=1.0)):
        assert w.prime_value is None, w.name
    # power(0) = 1 on prime powers, as at z = 0 of its formula
    ps = np.array([2, 3, 5, 1009])
    for k in range(1, 8):
        assert builtin_weight("power", z=0.0).values_on_primes(ps, k).tolist() == [1.0] * 4


def test_a_prime_value_its_values_do_not_return_is_rejected():
    # the walk multiplies every cofactor by prime_value where the Euler
    # products and the per-n oracle read values: the two must agree
    theta = builtin_weight("theta_omega", theta=2.0)
    wrong = weights.MultiplicativeWeight("wrong", theta.regime, theta.values, prime_value=3.0)
    with pytest.raises(ValueError, match="prime_value 3 is not its alpha"):
        weights.AlphaWalk(wrong, 100)
    weights.AlphaWalk(weights.MultiplicativeWeight("right", theta.regime, theta.values, prime_value=2.0), 100)


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


def test_table_uniform_prefix():
    w = builtin_weight("power", z=0.0)
    t = weights.build_weight_table(w, 100).prefix
    assert t[100] == 100.0 and t[0] == 0.0


def test_table_small_sums():
    t = weights.build_weight_table(builtin_weight("powerfree", k=2), 10).prefix
    assert t[10] == 7.0
    t = weights.build_weight_table(builtin_weight("divisor", k=2.0), 10).prefix
    assert t[10] == pytest.approx(27.0, rel=1e-12)


def test_table_matches_direct_evaluation(spf_1e4, alpha_of):
    # x = 1e4, and both sides of the squares 4, 9, 25, 49 and 121, where sqrt(x) gains a prime
    for x in (10**4, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122):
        for w in catalog_weights():
            table = weights.build_weight_table(w, x).prefix
            direct = np.array([weights.evaluate_weight(w, n, spf_1e4) for n in range(1, x + 1)])
            assert len(table) == x + 1
            np.testing.assert_allclose(alpha_of(w, x)[1:], direct, rtol=1e-12, atol=0)
            assert table[-1] == pytest.approx(math.fsum(direct.tolist()), rel=1e-12)


def test_table_multiplicativity_random_coprime_pairs(rng, alpha_of):
    x = 10**5
    w = builtin_weight("sigma", z=1.0)
    alpha = alpha_of(w, x)
    done = 0
    while done < 1000:
        a = int(rng.integers(2, 400))
        b = int(rng.integers(2, x // a))
        if math.gcd(a, b) != 1:
            continue
        assert alpha[a * b] == pytest.approx(alpha[a] * alpha[b], rel=1e-9)
        done += 1


def test_prefix_monotone_and_theta1_identity():
    t = weights.build_weight_table(builtin_weight("theta_omega", theta=1.0), 10**5).prefix
    assert np.all(np.diff(t) >= 0)
    assert t[-1] == float(10**5)  # theta=1 makes alpha identically 1


def test_rejects_non_monotone_vanishing():
    for values in (
        lambda ps, k: np.full(len(ps), 0.0 if k == 1 else 1.0),
        lambda ps, k: np.full(len(ps), 0.0 if k <= 2 else 1.0),  # vanishes at k = 1, 2, returns at 3
    ):
        bad = weights.MultiplicativeWeight(name="bad", regime=weights.EwensRegime(theta=1.0), values=values)
        with pytest.raises(ValueError, match="monotone"):
            weights.build_weight_table(bad, 100)


def test_rejects_negative_values_at_large_primes():
    # negative only at primes above sqrt(100), which the table reaches
    # through the cofactor of n rather than through a prime-power slice
    bad = weights.MultiplicativeWeight(
        name="negative_above_10",
        regime=weights.EwensRegime(theta=1.0),
        values=lambda ps, k: np.where(ps > 10, -1.0, 1.0),
    )
    with pytest.raises(ValueError, match="negative"):
        weights.build_weight_table(bad, 100)


def test_condition_I_single_prime():
    w = builtin_weight("theta_omega", theta=2.0)
    [(x, r)] = weights.condition_I_residuals(w, [2])
    # sum is alpha(2) log 2 / 2^d with d = 0
    assert r == pytest.approx(2.0 * math.log(2.0) - 2.0 * 2.0, rel=1e-12)


def test_condition_I_linear_in_alpha():
    base = weights.condition_I_residuals(builtin_weight("power", z=0.0), [10**4, 10**6])
    twice = weights.condition_I_residuals(builtin_weight("theta_omega", theta=2.0), [10**4, 10**6])
    for (x1, r1), (x2, r2) in zip(base, twice):
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)


def test_condition_I_oracle_value_1e6(spf_1e6):
    # independent oracle: fsum of log p over the primes of the spf sieve (spf[p] = p)
    ps = np.flatnonzero(spf_1e6[2:] == np.arange(2, 10**6 + 1)) + 2
    oracle = math.fsum(math.log(int(p)) for p in ps) - 10**6
    [(_, r)] = weights.condition_I_residuals(builtin_weight("power", z=0.0), [10**6])
    assert r == pytest.approx(oracle, rel=1e-9)
    # magnitude pinned: theta(1e6) - 1e6 = -1515.82...
    assert r == pytest.approx(-1515.825, abs=0.01)


CONDITION_I_CHECKPOINTS = (1, 2, arith.SEGMENT - 1, arith.SEGMENT, arith.SEGMENT + 1, 2 * arith.SEGMENT + 5)


@pytest.mark.parametrize("w", [w for w in catalog_weights() if isinstance(w.regime, weights.EwensRegime)],
                         ids=lambda w: w.name)
def test_condition_I_residuals_match_the_one_array_route_bit_for_bit(w):
    # the sum carried across the prime sieve's segments is the one cumsum of
    # all the terms: the same float at each segment edge and past it
    assert weights.condition_I_residuals(w, CONDITION_I_CHECKPOINTS) == dense_condition_I_residuals(
        w, CONDITION_I_CHECKPOINTS)


def test_condition_I_residuals_keep_the_order_given():
    # the checkpoints used to come back sorted, so conditions --x 3,2,2 reported x = 2, 2, 3
    w = builtin_weight("theta_omega", theta=2.0)
    cps = [arith.SEGMENT + 1, 3, 2, 2, arith.SEGMENT + 1, 1]
    by_x = dict(dense_condition_I_residuals(w, cps))
    assert weights.condition_I_residuals(w, cps) == [(c, by_x[c]) for c in cps]


def test_condition_I_requires_ewens():
    with pytest.raises(ValueError):
        weights.condition_I_residuals(builtin_weight("poly_log", K=1.0, gamma=1.0), [100])


def test_condition_II_margin_bounded():
    w = builtin_weight("theta_omega", theta=2.0)
    assert weights.condition_II_margin(w, p_max=500, k_max=20) == pytest.approx(2.0)
    w1 = builtin_weight("powerfree", k=2)
    assert weights.condition_II_margin(w1, p_max=500, k_max=20) <= 1.0


def test_condition_II_margin_matches_per_prime_power_loop():
    ws = catalog_weights() + [builtin_weight("power", z=0.0), builtin_weight("power", z=1.0)]
    for w in ws:
        if not isinstance(w.regime, weights.EwensRegime):
            continue
        reg = w.ewens()
        loop = max(w.value(int(p), k) / (float(p) ** (reg.d * k) * reg.r**k)
                   for p in arith.primes_upto(300) for k in range(1, 13))
        assert weights.condition_II_margin(w, p_max=300, k_max=12) == loop, w.name


CHUNK = weights.CHUNK  # the prefix sum adds the totals of its CHUNK-entry chunks by math.fsum
CHUNK_EDGES = (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 2 * CHUNK + 5)


def test_compensated_cumsum_matches_fsum(alpha_of):
    # the prefix sum at the chunk edges against the exactly rounded sum of
    # alpha: the error is that of one chunk's cumsum (2^20 additions), at
    # most 6.5e-14 here, not one that grows with the number of chunks
    for w in (builtin_weight("euler_ratio"), builtin_weight("power", z=0.5)):
        prefix = weights.build_weight_table(w, 2 * CHUNK + 5).prefix
        alpha = alpha_of(w, 2 * CHUNK + 5)
        for y in CHUNK_EDGES:
            assert prefix[y] == pytest.approx(math.fsum(alpha[1 : y + 1].tolist()), rel=1e-12), (w.name, y)
        assert prefix[0] == 0.0 and prefix[1] == alpha[1] == 1.0


def test_compensated_cumsum_writes_into_out(alpha_of, monkeypatch):
    # built in place: each chunk's cumsum plus the fsum of the earlier chunk
    # totals, bit for bit; at the 2^10-entry chunks of this test there are
    # 98 of them, and for 78 of the partial sums of their totals a plain sum
    # rounds differently from math.fsum
    w = builtin_weight("euler_ratio")
    alpha = alpha_of(w, 10**5)
    monkeypatch.setattr(weights, "CHUNK", 1 << 10)
    prefix = weights.build_weight_table(w, 10**5).prefix
    chunks = np.split(alpha[1:], range(1 << 10, len(alpha) - 1, 1 << 10))
    totals = [float(np.sum(c)) for c in chunks]
    expected = np.concatenate([[0.0], *(np.cumsum(c) + math.fsum(totals[:i]) for i, c in enumerate(chunks))])
    assert prefix.dtype == np.float64 and prefix.tobytes() == expected.tobytes()
