import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from multweight import arith, experiments, sampling, weights
from multweight.weights import builtin_weight


def make_table(kind_params, x, p1):
    """The weight table (prefix sum S(0..x)) of a catalog weight."""
    kind, params = kind_params
    return weights.build_weight_table(builtin_weight(kind, **params), p1[: x + 1])


def bincount_law(alpha, values):
    """Oracle: the exact law of a nonnegative integer statistic, binned over whole tables by np.bincount."""
    return sampling.exact_pmf_from_mass(np.bincount(values[1:], weights=alpha[1:]))


def test_uniform_sampler_chi_square(p1_1e4, rng):
    table = make_table(("power", {"z": 0.0}), 100, p1_1e4)
    s = sampling.WeightedIntegerSampler(table, rng)
    draws = s.sample(10**6)
    counts = np.bincount(draws, minlength=101)[1:]
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_sorted_search_matches_plain_searchsorted(p1_1e4):
    table = make_table(("divisor", {"k": 2.0}), 10**4, p1_1e4)
    draws = sampling.WeightedIntegerSampler(table, np.random.default_rng(3)).sample(10**5)
    u = (1.0 - np.random.default_rng(3).random(10**5)) * table[-1]
    assert np.array_equal(draws, np.searchsorted(table, u, side="left"))


def test_degenerate_single_atom(spf_1e4, rng):
    alpha = np.zeros(101)
    alpha[6] = 3.0
    s = sampling.WeightedIntegerSampler(np.cumsum(alpha), rng)
    assert set(np.unique(s.sample(1000))) == {6}


def test_zero_table_rejected(rng):
    with pytest.raises(ValueError):
        sampling.WeightedIntegerSampler(np.zeros(11), rng)


def test_probability_ratio_theta_omega(p1_1e4, alpha_of):
    alpha = alpha_of(builtin_weight("theta_omega", theta=2.0), p1_1e4[:31])
    assert alpha[2] / alpha[1] == pytest.approx(2.0, rel=1e-14)


def test_cdf_interval_widths_match_alpha(p1_1e4, alpha_of):
    table = make_table(("divisor", {"k": 2.0}), 10**4, p1_1e4)
    widths = np.diff(table)
    alpha = alpha_of(builtin_weight("divisor", k=2.0), p1_1e4)
    np.testing.assert_allclose(widths, alpha[1:], rtol=0, atol=1e-9 * table[-1])


def test_empirical_matches_exact_tv(p1_1e4, rng, alpha_of):
    # 1e6 draws at x = 1e3; TV to the exact law under the sampling measure.
    # The TV noise floor scales with sum_n sqrt(alpha(n)/S), so the 0.01
    # budget needs a weight with concentrated mass; a spread-out law sits
    # at ~0.013 with this many draws (checked loosely below).
    table = make_table(("power", {"z": 6.0}), 10**3, p1_1e4)
    s = sampling.WeightedIntegerSampler(table, rng)
    draws = s.sample(10**6)
    counts = np.bincount(draws, minlength=10**3 + 1)[1:]
    alpha = alpha_of(builtin_weight("power", z=6.0), p1_1e4[: 10**3 + 1])
    tv = 0.5 * np.abs(counts / counts.sum() - alpha[1:] / table[-1]).sum()
    assert tv <= 0.01

    uni = make_table(("power", {"z": 0.0}), 10**3, p1_1e4)
    draws = sampling.WeightedIntegerSampler(uni, rng).sample(10**6)
    counts = np.bincount(draws, minlength=10**3 + 1)[1:]
    alpha = alpha_of(builtin_weight("power", z=0.0), p1_1e4[: 10**3 + 1])
    tv_uni = 0.5 * np.abs(counts / counts.sum() - alpha[1:] / uni[-1]).sum()
    assert tv_uni <= 0.015


def exact_pmf(alpha, statistic, spf):
    """Oracle: the law of statistic(FactorProfile) by factorizing every n <= x, x = len(alpha) - 1."""
    acc = {}
    for n in range(1, len(alpha)):
        a = alpha[n]
        if a == 0.0:
            continue
        v = float(statistic(arith.factorize(n, spf)))
        acc[v] = acc.get(v, 0.0) + a
    vals = np.array(sorted(acc))
    probs = np.array([acc[v] for v in vals])
    return sampling.ExactPmf(vals, probs / probs.sum())


def test_exact_pmf_omega_x4(spf_1e4, p1_1e4, alpha_of):
    pmf = exact_pmf(alpha_of(builtin_weight("power", z=0.0), p1_1e4[:5]), lambda prof: sum(k for _, k in prof.factors), spf_1e4)
    assert pmf.values.tolist() == [0.0, 1.0, 2.0]
    assert pmf.probs.tolist() == [0.25, 0.5, 0.25]


def test_exact_pmf_nu2_x8(spf_1e4, p1_1e4, alpha_of):
    pmf = exact_pmf(alpha_of(builtin_weight("power", z=0.0), p1_1e4[:9]), lambda prof: dict(prof.factors).get(2, 0), spf_1e4)
    assert pmf.values.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert pmf.probs.tolist() == [0.5, 0.25, 0.125, 0.125]


def test_exact_pmf_two_routes_agree(spf_1e4, p1_1e4, alpha_of):
    # the streamed scan against per-n factorization
    x = 2000
    w = builtin_weight("divisor", k=2.0)
    slow = exact_pmf(alpha_of(w, p1_1e4[: x + 1]), lambda prof: sum(k for _, k in prof.factors), spf_1e4)
    fast = experiments.exact_dist(w, x, "big_omega")
    np.testing.assert_allclose(slow.values, fast.values)
    np.testing.assert_allclose(slow.probs, fast.probs, rtol=1e-12)


@pytest.mark.parametrize("kind_params", [("divisor", {"k": 2.0}), ("powerfree", {"k": 2})])
def test_exact_pmf_integer_route_matches_unique_route(p1_1e5, kind_params, alpha_of):
    # small nonnegative integer statistics are binned directly by the scan;
    # as floats they are ranked with np.unique first, and both must give the same atoms
    x = 10**5
    w = builtin_weight(kind_params[0], **kind_params[1])
    alpha = alpha_of(w, p1_1e5)
    statistic_tables = [
        ("big_omega", {}, arith.big_omega_table(p1_1e5)),
        ("nu", {"p": 2}, arith.nu_p_table(x, 2)),
        ("smooth", {"u": 2.0}, (p1_1e5 <= math.sqrt(x)).astype(np.int8)),
    ]
    for name, kw, v in statistic_tables:
        assert v.dtype == np.int8
        fast = experiments.exact_dist(w, x, name, **kw)
        uniq, inv = np.unique(v[1:].astype(float), return_inverse=True)
        slow = sampling.exact_pmf_from_mass(np.bincount(inv, weights=alpha[1:], minlength=len(uniq)), uniq)
        np.testing.assert_array_equal(fast.values, slow.values)
        np.testing.assert_array_equal(fast.probs, slow.probs)


def test_exact_pmf_blocks_match_bincount_bit_for_bit(alpha_of):
    # the scan adds one block of the walk at a time; np.bincount over the
    # whole array is the oracle, at an x that spans ten blocks and three chunks
    x = 5 * 2**19
    p1 = arith.largest_prime_table(x)
    w = builtin_weight("divisor", k=2.0)
    alpha = alpha_of(w, p1)
    for name, kw, v in (("big_omega", {}, arith.big_omega_table(p1)), ("nu", {"p": 2}, arith.nu_p_table(x, 2)),
                        ("smooth", {"u": 2.0}, (p1 <= math.isqrt(x)).astype(np.int8))):
        mass = np.bincount(v[1:], weights=alpha[1:])
        got = experiments.exact_dist(w, x, name, **kw)
        np.testing.assert_array_equal(got.values, np.flatnonzero(mass))
        np.testing.assert_array_equal(got.probs, mass[mass > 0] / mass.sum())


def test_exact_pmf_skips_zero_weight(spf_1e4, p1_1e4, alpha_of):
    pmf = exact_pmf(alpha_of(builtin_weight("powerfree", k=2), p1_1e4[:21]), lambda prof: dict(prof.factors).get(2, 0), spf_1e4)
    assert pmf.values.tolist() == [0.0, 1.0]  # nu_2 >= 2 has zero mass


def test_smoothness_statistic_converges_toward_dickman(p1_1e6, alpha_of):
    # finite-x smoothness probabilities drift toward rho_1(2) = 1 - log 2;
    # the gap at 1e6, ~0.037, is de Bruijn's (1 - gamma)/log x term plus
    # 0.0068 (acceptance case c06 checks against the two-term value)
    rho = 1.0 - math.log(2.0)
    gaps = []
    alpha = alpha_of(builtin_weight("power", z=0.0), p1_1e6)
    for x in (10**4, 10**5, 10**6):
        ind = (p1_1e6[: x + 1] <= math.sqrt(x)).astype(np.int8)
        p = bincount_law(alpha[: x + 1], ind).prob_of(1.0)
        gaps.append(abs(p - rho))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] == pytest.approx(0.0374, abs=0.002)


def test_smooth_probability_matches_large_prime_count():
    # independent oracle for c06: each n <= x has at most one prime factor
    # p > sqrt x, so exactly floor(x/p) multiples of p are not sqrt-smooth
    x = 10**6
    p = experiments.exact_dist(builtin_weight("power", z=0.0), x, "smooth", u=2.0).prob_of(1.0)
    ps = arith.primes_upto(x)
    large = ps[ps > math.sqrt(x)].astype(np.int64)
    oracle = (x - int(np.sum(x // large))) / x
    assert abs(p - oracle) <= 1e-12


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
        return float(self.ratios[k - 1]) if k <= len(self.ratios) else 0.0


def spectrum_oracle(profile, x):
    """Oracle: the spectrum of one factorization, one math.log per prime factor."""
    logs = []
    for p, k in profile.factors:
        logs.extend([math.log(p)] * k)
    logs.sort(reverse=True)
    ratios = np.array(logs) / math.log(x) if logs else np.array([])
    return LogPrimeSpectrum(n=profile.n, x=x, ratios=ratios)


def size_biased_prime_oracle(profile, rng):
    """Oracle: a size-biased prime of one factorization by rng.choice."""
    if profile.n < 2:
        raise ValueError("n = 1 has no prime factor to sample")
    ps = [p for p, _ in profile.factors]
    wts = np.array([k * math.log(p) for p, k in profile.factors])
    return ps[rng.choice(len(ps), p=wts / wts.sum())]


def _draws(p1, n, seed):
    """n draws at x = 1e6 with n = 1 and primes where np.log and math.log
    differ in the last bit (and their multiples) mixed in."""
    table = make_table(("theta_omega", {"theta": 2.0}), 10**6, p1)
    draws = sampling.WeightedIntegerSampler(table, np.random.default_rng(seed)).sample(n)
    draws[::97] = 1
    special = [285343, 2 * 285343, 3 * 287549, 351497, 504631, 664679]
    draws[1::89] = np.resize(special, len(draws[1::89]))
    return draws


def test_prime_logs_are_math_log():
    ps = arith.primes_upto(10**6)
    assert np.array_equal(sampling.prime_logs(ps), np.array([math.log(p) for p in ps.tolist()]))
    assert sampling.prime_logs(np.array([[0, 1, 4]])).tolist() == [[0.0, 0.0, math.log(4)]]


def test_spectrum_matches_oracle_bit_for_bit(spf_1e6, p1_1e6):
    draws = _draws(p1_1e6, 10**4, 11)
    k = 21  # past the largest Omega, 19, so the zero padding is checked too
    batch = sampling.spectrum(arith.factor_matrix(draws, p1_1e6), 10**6, k)
    oracle = [[spectrum_oracle(arith.factorize(int(m), spf_1e6), 10**6).ratio(j) for j in range(1, k + 1)]
              for m in draws]
    assert batch.shape == (10**4, k)
    assert np.array_equal(batch, np.array(oracle))


def test_size_biased_prime_matches_rng_choice_draw_by_draw(spf_1e6, p1_1e6):
    draws = _draws(p1_1e6, 10**4, 12)
    ones = draws == 1
    assert 0 < ones.sum() < len(draws)
    rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
    oracle = [0 if m == 1 else size_biased_prime_oracle(arith.factorize(int(m), spf_1e6), rng_a)
              for m in draws.tolist()]
    batch = sampling.size_biased_prime(arith.factor_matrix(draws, p1_1e6), rng_b)
    assert np.array_equal(batch, np.array(oracle))
    assert rng_a.random() == rng_b.random()  # one uniform per n > 1, none for n = 1


def test_size_biased_prime_matches_rng_choice_with_eight_primes():
    # 9699690 = 2*3*...*19 has eight distinct primes, where numpy sums the
    # weight vector pairwise rather than left to right
    x = 9699690
    spf, p1 = arith.build_spf(x), arith.largest_prime_table(x)
    ns = np.array([x, x // 19 * 16, 2**23, 1, x, 3 * 5 * 7 * 11] * 500)
    rng_a, rng_b = np.random.default_rng(14), np.random.default_rng(14)
    oracle = [0 if m == 1 else size_biased_prime_oracle(arith.factorize(m, spf), rng_a) for m in ns.tolist()]
    assert np.array_equal(sampling.size_biased_prime(arith.factor_matrix(ns, p1), rng_b), np.array(oracle))


def size_biased_primes_of(n, p1, rng, draws=1):
    return sampling.size_biased_prime(arith.factor_matrix(np.full(draws, n), p1), rng)


def test_size_biased_prime_on_prime(p1_1e4, rng):
    assert size_biased_primes_of(97, p1_1e4, rng).tolist() == [97]


def test_size_biased_prime_n6_frequencies(p1_1e4, rng):
    draws = size_biased_primes_of(6, p1_1e4, rng, 20000)
    p2 = np.mean(draws == 2)
    assert p2 == pytest.approx(math.log(2) / math.log(6), abs=0.01)


def test_size_biased_prime_multiplicity_weighting(p1_1e4, rng):
    draws = size_biased_primes_of(12, p1_1e4, rng, 20000)
    assert np.mean(draws == 2) == pytest.approx(2 * math.log(2) / math.log(12), abs=0.01)


def test_size_biased_prime_of_one_is_zero_and_takes_no_uniform(spf_1e4, p1_1e4, rng):
    state = rng.bit_generator.state
    assert size_biased_primes_of(1, p1_1e4, rng, 5).tolist() == [0] * 5
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError):
        size_biased_prime_oracle(arith.factorize(1, spf_1e4), rng)


def spectrum_of(n, x, p1, k=4):
    return sampling.spectrum(arith.factor_matrix(np.array([n]), p1), x, k)[0]


def test_spectrum_examples(p1_1e4):
    expected = np.array([math.log(3), math.log(2), math.log(2), 0.0]) / math.log(12)
    np.testing.assert_allclose(spectrum_of(12, 12, p1_1e4), expected, rtol=1e-14)
    assert spectrum_of(1, 50, p1_1e4).tolist() == [0.0] * 4
    assert spectrum_of(97, 97, p1_1e4).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert spectrum_of(12, 12, p1_1e4, k=2).tolist() == spectrum_of(12, 12, p1_1e4)[:2].tolist()


@given(st.integers(min_value=2, max_value=9999))
def test_spectrum_sums_to_log_ratio(n):
    ratios = spectrum_of(n, 10**4, _table(), k=14)  # Omega(n) <= 13 below 1e4
    assert ratios.sum() == pytest.approx(math.log(n) / math.log(10**4), abs=1e-12)
    assert np.all(np.diff(ratios) <= 1e-15)
    assert np.all((ratios >= 0) & (ratios <= 1))


_T = None


def _table():
    global _T
    if _T is None:
        _T = arith.largest_prime_table(10**4)
    return _T


def test_nu_p_limit_geometric():
    pmf = sampling.nu_p_limit_pmf(builtin_weight("power", z=0.0), 2)
    for k in range(6):
        assert pmf.prob_of(k) == pytest.approx(0.5**(k + 1), rel=1e-12)


def test_nu_p_limit_sigma20_closed_form():
    # sigma_20(2^k)/2^(21k) = sum_{j<=k} 2^(20j)/2^(21k): alpha(2^k) passes the
    # float range at k = 52, where the law used to raise OverflowError
    pmf = sampling.nu_p_limit_pmf(builtin_weight("sigma", z=20.0), 2)
    total = 2 / (1 - Fraction(1, 2**21))
    want = [sum(Fraction(2 ** (20 * j), 2 ** (21 * k)) for j in range(k + 1)) / total for k in range(65)]
    assert pmf.values.tolist() == list(range(65))  # kmax = 64
    for k in range(65):
        assert pmf.prob_of(k) == pytest.approx(float(want[k]), rel=1e-12)
    assert pmf.tail_mass == pytest.approx(float(1 - sum(want)), rel=1e-5)


def test_nu_p_limit_power100_is_geometric():
    pmf = sampling.nu_p_limit_pmf(builtin_weight("power", z=100.0), 3)
    for k in range(40):
        assert pmf.prob_of(k) == pytest.approx(2 / 3**(k + 1), rel=1e-12)


def test_nu_p_limit_powerfree():
    pmf = sampling.nu_p_limit_pmf(builtin_weight("powerfree", k=2), 2)
    assert pmf.prob_of(0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert pmf.prob_of(1) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert pmf.prob_of(2) == 0.0


def test_nu_p_limit_theta_omega_p3():
    pmf = sampling.nu_p_limit_pmf(builtin_weight("theta_omega", theta=2.0), 3)
    assert pmf.prob_of(0) == pytest.approx(0.5, rel=1e-12)


def test_nu_p_limit_divergence_detected():
    bad = weights.MultiplicativeWeight(
        name="diverge",
        regime=weights.EwensRegime(theta=1.0, d=0.0),
        values=lambda ps, k: np.float_power(ps, 2.0 * k),
    )
    with pytest.raises(ValueError):
        sampling.nu_p_limit_pmf(bad, 2)


def test_nu_p_exact_converges_to_limit():
    # powerfree: essentially converged by 1e6; theta_omega: gap shrinks in x
    w = builtin_weight("powerfree", k=2)
    lim = sampling.nu_p_limit_pmf(w, 2)
    exact = experiments.exact_dist(w, 10**6, "nu", p=2)
    for k in range(3):
        assert abs(exact.prob_of(k) - lim.prob_of(k)) <= 0.01

    w2 = builtin_weight("theta_omega", theta=2.0)
    lim2 = sampling.nu_p_limit_pmf(w2, 2)
    gaps = []
    for x in (10**4, 10**5, 10**6):
        e2 = experiments.exact_dist(w2, x, "nu", p=2)
        gaps.append(max(abs(e2.prob_of(k) - lim2.prob_of(k)) for k in range(8)))
    assert gaps[2] < gaps[1] < gaps[0]


def test_joint_pmf_factorizes_at_moderate_x():
    x = 10**6
    values, kb = experiments.joint_nu(x, 2, 3)
    _, ((mass,),) = experiments.scan(builtin_weight("powerfree", k=2), x, laws=[(values, [x])])
    joint = sampling.joint_pmf_from_mass(mass, kb)
    m2, m3 = {}, {}
    for (a, b), p in joint.items():
        m2[a] = m2.get(a, 0.0) + p
        m3[b] = m3.get(b, 0.0) + p
    worst = max(abs(p - m2[a] * m3[b]) for (a, b), p in joint.items())
    assert worst <= 0.01


def test_exact_pmf_total_mass_and_sorting():
    pmf = sampling.ExactPmf(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
    assert pmf.mean() == pytest.approx(1.75)
    with pytest.raises(ValueError):
        sampling.ExactPmf(np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        sampling.ExactPmf(np.array([1.0, 2.0]), np.array([0.5, 0.6]))


@pytest.mark.parametrize("probs", [[math.nan, math.nan], [0.5, math.inf], [1.0, math.nan]])
def test_exact_pmf_rejects_non_finite_probabilities(probs):
    # a NaN total mass used to pass the mass check: |NaN - 1| > 1e-12 is False
    with pytest.raises(ValueError, match="total mass"):
        sampling.ExactPmf(np.array([1.0, 2.0]), np.array(probs))
    with pytest.raises(ValueError, match="total mass"):
        sampling.ExactPmf(np.array([1.0]), np.array([1.0]), tail_mass=math.nan)


def test_exact_pmf_affine():
    pmf = sampling.ExactPmf(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    shifted = pmf.affine(1.0, 2.0)
    assert shifted.values.tolist() == [-0.5, 0.5]
    assert shifted.probs.tolist() == [0.5, 0.5]


def test_sampler_deterministic_given_seed(p1_1e4):
    table = make_table(("divisor", {"k": 2.0}), 500, p1_1e4)
    a = sampling.WeightedIntegerSampler(table, np.random.default_rng(7)).sample(64)
    b = sampling.WeightedIntegerSampler(table, np.random.default_rng(7)).sample(64)
    assert np.array_equal(a, b)
