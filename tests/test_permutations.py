import math
from itertools import permutations as iter_permutations

import numpy as np
import pytest

from multweight import limitlaws, permutations as perm
from multweight.sampling import ExactPmf


def brute_partition_function(theta: np.ndarray, n: int) -> float:
    """Definitional h_n = (1/n!) sum over S_n of prod theta_i^(C_i)."""
    total = 0.0
    for pm in iter_permutations(range(n)):
        seen = [False] * n
        w = 1.0
        for i in range(n):
            if seen[i]:
                continue
            ln, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = pm[j]
                ln += 1
            w *= theta[ln - 1]
        total += w
    return total / math.factorial(n)


def ewens_crp(n: int, theta: float, rng: np.random.Generator) -> list[int]:
    """Ewens(theta) draw via the Chinese-restaurant construction (oracle).

    Element i starts a new cycle with probability theta/(theta + i - 1),
    otherwise it joins the cycle of a uniformly chosen earlier element.
    Returns the cycle lengths, the cycle containing element 1 first.
    """
    sizes = [1]
    cycle_of = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        if rng.random() < theta / (theta + i):
            cycle_of[i] = len(sizes)
            sizes.append(1)
        else:
            c = int(cycle_of[int(rng.integers(0, i))])
            cycle_of[i] = c
            sizes[c] += 1
    return sizes


def sequential_cycle_type(w: perm.CycleWeights, table: perm.PartitionFunctionTable, rng) -> list[int]:
    """One generalized-Ewens draw by the sequential rule (oracle).

    The cycle containing the smallest of m remaining elements has length k
    with probability theta_k h_{m-k} / (m h_m); k is the first index where
    the cumulative sum reaches a uniform u, or m where roundoff leaves the
    sum short of u.  Returns the lengths in the order drawn.
    """
    lengths = []
    m = w.n
    while m > 0:
        cdf = np.cumsum(perm.first_cycle_pmf(table, m))
        k = min(int(np.searchsorted(cdf, rng.random(), side="left")) + 1, m)
        lengths.append(k)
        m -= k
    return lengths


class ConstantRng:
    """A generator stand-in whose every uniform is u."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def split_rows(rows: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """Flat, row-major (rows, lengths) of a cycle sampler as one array per draw."""
    return np.split(lengths, np.flatnonzero(np.diff(rows)) + 1)


def cycle_type_frequencies(rows: np.ndarray, lengths: np.ndarray) -> dict[tuple[int, ...], float]:
    """Empirical law of the cycle type, lengths nonincreasing, over the draws."""
    freq = {}
    for lens in split_rows(rows, lengths):
        key = tuple(sorted(lens.tolist(), reverse=True))
        freq[key] = freq.get(key, 0) + 1
    return {key: c / (rows[-1] + 1) for key, c in freq.items()}


def tv(a: dict, b: dict) -> float:
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def test_partition_function_theta_one():
    t = perm.partition_function(perm.constant_weights(12, 1.0))
    for m in range(13):
        assert math.exp(t.log_h[m]) == pytest.approx(1.0, rel=1e-14)


def test_partition_function_theta_two_n3():
    t = perm.partition_function(perm.constant_weights(3, 2.0))
    assert math.exp(t.log_h[3]) == pytest.approx(4.0, rel=1e-12)  # C(4,3)


def test_partition_function_poly_h2():
    w = perm.poly_weights(1.0, 2)  # theta_i = i+1
    t = perm.partition_function(w)
    assert math.exp(t.log_h[2]) == pytest.approx(3.5, rel=1e-12)


def test_partition_function_matches_enumeration():
    for wts in (
        perm.constant_weights(6, 0.5),
        perm.constant_weights(6, 2.0),
        perm.poly_weights(1.0, 6),
        perm.poly_weights(2.0, 5),
    ):
        t = perm.partition_function(wts)
        brute = brute_partition_function(wts.theta, wts.n)
        assert math.exp(t.log_h[wts.n]) == pytest.approx(brute, rel=1e-11)


def test_partition_function_binomial_identity():
    from scipy.special import gammaln

    for theta in (0.5, 1.0, 2.0):
        t = perm.partition_function(perm.constant_weights(50, theta))
        for m in (1, 10, 25, 50):
            ref = gammaln(m + theta) - gammaln(theta) - gammaln(m + 1)
            assert t.log_h[m] == pytest.approx(ref, abs=1e-11)


def test_partition_function_rescaling_large_poly():
    # h_n overflows double for these weights; the log table must stay finite
    w = perm.poly_weights(1.0, 3000)
    t = perm.partition_function(w)
    assert np.all(np.isfinite(t.log_h[1:]))
    assert np.all(np.diff(t.log_h[1:]) > 0)


def test_cycle_weights_validation():
    with pytest.raises(ValueError):
        perm.CycleWeights(n=3, theta=np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        perm.CycleWeights(n=3, theta=np.array([1.0, -0.5, 0.0]))
    with pytest.raises(ValueError):
        perm.constant_weights(3, 0.0)


def test_poly_weights_examples():
    w1 = perm.poly_weights(1.0, 6)
    np.testing.assert_allclose(w1.theta, np.arange(2, 8), rtol=1e-12)
    w2 = perm.poly_weights(2.0, 5)
    i = np.arange(1, 6)
    np.testing.assert_allclose(w2.theta, (i + 1) * (i + 2), rtol=1e-12)
    w3 = perm.poly_weights(1.5, 1000)
    assert w3.theta[-1] / 1000**1.5 == pytest.approx(1.0, abs=0.01)


def test_first_cycle_pmf_uniform_for_theta_one():
    w = perm.constant_weights(9, 1.0)
    t = perm.partition_function(w)
    for m in (3, 6, 9):
        np.testing.assert_allclose(perm.first_cycle_pmf(t, m), np.full(m, 1.0 / m), rtol=1e-12)


def test_sample_cycle_type_n1():
    w = perm.constant_weights(1, 2.0)
    t = perm.partition_function(w)
    rows, lengths = perm.sample_cycle_types(w, t, np.random.default_rng(0), 3)
    assert rows.tolist() == [0, 1, 2]
    assert lengths.tolist() == [1, 1, 1]


@pytest.mark.parametrize("weights", [perm.constant_weights(3000, 1.0), perm.poly_weights(1.0, 3000)],
                         ids=["theta=1", "poly gamma=1"])
@pytest.mark.parametrize("u", [0.6180339887, 0.9876543211, 0.9993])
def test_sampler_matches_sequential_rule_at_fixed_u(weights, u):
    # with every uniform equal to u and u more than 1e-9 from every partial
    # sum on the path, roundoff cannot separate the two scans; 1000 draws
    # cap the first chunk at 2^16 // 1000 = 65 lengths, so the longer
    # cycles carry their sums across chunks
    t = perm.partition_function(weights)
    want = sequential_cycle_type(weights, t, ConstantRng(u))
    m = weights.n
    for k in want:
        assert np.abs(np.cumsum(perm.first_cycle_pmf(t, m)) - u).min() > 1e-9
        m -= k
    rows, lengths = perm.sample_cycle_types(weights, t, ConstantRng(u), 1000)
    assert max(want) > 65
    for lens in split_rows(rows, lengths):
        assert lens.tolist() == want


@pytest.mark.parametrize("weights", [perm.constant_weights(3000, 1.0), perm.poly_weights(1.0, 3000)],
                         ids=["theta=1", "poly gamma=1"])
def test_sampler_rows_sum_to_n_at_largest_uniform(weights):
    # u = 1 - 2^-53 lies above the rounded total of the first-cycle
    # probabilities, or within an ulp of it: the cycle takes the rest
    t = perm.partition_function(weights)
    rows, lengths = perm.sample_cycle_types(weights, t, ConstantRng(1.0 - 2.0**-53), 50)
    np.testing.assert_array_equal(np.bincount(rows, weights=lengths, minlength=50), np.full(50, weights.n))


def test_sample_cycle_type_carries_across_chunks(rng):
    # at n = 3000, theta = 1 the first cycle is uniform on 1..n, so
    # P(L_1 > 2048) = 952/3000; with 2000 draws the first chunks are 32
    # lengths wide, so most draws carry their sum across several chunks
    n, draws = 3000, 2000
    w = perm.constant_weights(n, 1.0)
    t = perm.partition_function(w)
    rows, lengths = perm.sample_cycle_types(w, t, rng, draws)
    firsts = lengths[np.flatnonzero(np.diff(rows, prepend=-1))]
    p = float(perm.first_cycle_pmf(t, n)[2048:].sum())
    assert p == pytest.approx(952 / 3000, rel=1e-12)
    hit = np.mean(firsts > 2048)
    assert abs(hit - p) <= 5 * math.sqrt(p * (1 - p) / draws)
    c = np.bincount(rows, minlength=draws).astype(float)
    assert abs(c.mean() - perm.exact_mean_cycle_count(t)) <= 5 * c.std() / math.sqrt(draws)


def test_sampler_matches_enumeration_tv(rng):
    n = 6
    for wts in (perm.constant_weights(n, 1.0), perm.poly_weights(1.0, n)):
        t = perm.partition_function(wts)
        exact = perm.enumerate_Sn(n, wts)
        emp = cycle_type_frequencies(*perm.sample_cycle_types(wts, t, rng, 40000))
        assert tv(emp, exact.type_probs) <= 0.02


def test_sequential_and_batch_samplers_agree(rng):
    n = 5
    w = perm.poly_weights(1.0, n)
    t = perm.partition_function(w)
    seq = {}
    for _ in range(20000):
        key = tuple(sorted(sequential_cycle_type(w, t, rng), reverse=True))
        seq[key] = seq.get(key, 0) + 1 / 20000
    assert tv(seq, cycle_type_frequencies(*perm.sample_cycle_types(w, t, rng, 20000))) <= 0.03


def test_first_cycle_is_l1_distribution(rng):
    # the first sampled cycle follows the exact L_1 law
    n = 6
    w = perm.constant_weights(n, 2.0)
    t = perm.partition_function(w)
    exact = perm.enumerate_Sn_by_permutations(n, w)
    rows, lengths = perm.sample_cycle_types(w, t, rng, 50000)
    firsts = lengths[np.flatnonzero(np.diff(rows, prepend=-1))]
    for k in range(1, n + 1):
        assert np.mean(firsts == k) == pytest.approx(exact.l1_pmf[k], abs=0.01)


def test_ewens_crp_cycle_count_pmf(rng):
    # C(pi) under Ewens(1) on S_7: Stirling-number law from enumeration
    n = 7
    exact = perm.enumerate_Sn(n, perm.constant_weights(n, 1.0)).cycle_count_pmf()
    draws = [len(ewens_crp(n, 1.0, rng)) for _ in range(40000)]
    for k in range(1, n + 1):
        assert np.mean(np.array(draws) == k) == pytest.approx(exact[k], abs=0.01)


def test_ewens_crp_mean_cycles_harmonic(rng):
    n = 8
    h_n = sum(1.0 / k for k in range(1, n + 1))
    draws = [len(ewens_crp(n, 1.0, rng)) for _ in range(40000)]
    assert np.mean(draws) == pytest.approx(h_n, abs=0.03)


def test_ewens_large_theta_concentrates(rng):
    draws = [len(ewens_crp(6, 50.0, rng)) for _ in range(2000)]
    assert np.mean(draws) > 5.5  # theta -> inf forces C -> n


def test_ewens_crp_first_length_beta_trend():
    # L_1/n under Ewens(theta), the CRP's first table, approaches
    # Beta(1, theta); the exact KS distance shrinks with n (0.0041 at 60,
    # 0.00042 at 600, far below the ~0.014 noise of a 4000-draw sample)
    theta = 2.0
    kss = []
    for n in (60, 600):
        t = perm.partition_function(perm.constant_weights(n, theta))
        l1 = ExactPmf(np.arange(1, n + 1) / n, perm.first_cycle_pmf(t, n))
        kss.append(limitlaws.ks_distance(l1, lambda u: limitlaws.beta_cdf(1.0, theta, u)))
    assert kss[1] < kss[0]


def test_cycle_count_bernoulli_sampler_matches_crp(rng):
    n, theta = 50, 1.5
    rows, _ = perm.ewens_cycle_lengths(n, theta, rng, 40000)
    a = np.bincount(rows, minlength=40000)
    b = np.array([len(ewens_crp(n, theta, rng)) for _ in range(20000)])
    assert a.mean() == pytest.approx(b.mean(), abs=0.05)
    assert a.std() == pytest.approx(b.std(), abs=0.05)


def test_feller_matches_enumeration(rng):
    n, theta = 6, 1.0
    exact = perm.enumerate_Sn(n, perm.constant_weights(n, theta))
    assert tv(cycle_type_frequencies(*perm.ewens_cycle_lengths(n, theta, rng, 40000)), exact.type_probs) <= 0.02


def test_ewens_cycle_lengths_rows_span_blocks(rng):
    # 2^24 // n = 55 draws per block, so 120 draws take three blocks
    n, size = 300000, 120
    rows, lens = perm.ewens_cycle_lengths(n, 1.5, rng, size)
    assert np.all(np.diff(rows) >= 0) and np.all(lens >= 1)
    np.testing.assert_array_equal(np.bincount(rows, weights=lens, minlength=size), np.full(size, n))


def test_exact_mean_cycle_count_vs_enumeration():
    for wts in (perm.constant_weights(6, 1.0), perm.poly_weights(1.0, 6)):
        t = perm.partition_function(wts)
        exact_dist = perm.enumerate_Sn(6, wts)
        ref = sum(len(part) * p for part, p in exact_dist.type_probs.items())
        assert perm.exact_mean_cycle_count(t) == pytest.approx(ref, rel=1e-11)


def test_enumeration_examples():
    e = perm.enumerate_Sn(3, perm.constant_weights(3, 1.0))
    np.testing.assert_allclose(e.l1_pmf[1:], [1 / 3, 1 / 3, 1 / 3], rtol=1e-12)
    e2 = perm.enumerate_Sn(2, perm.constant_weights(2, 2.0))
    assert e2.type_probs[(1, 1)] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_enumeration_two_routes_match():
    w = perm.poly_weights(1.0, 5)
    a = perm.enumerate_Sn(5, w)
    b = perm.enumerate_Sn_by_permutations(5, w)
    keys = set(a.type_probs) | set(b.type_probs)
    assert all(abs(a.type_probs.get(k, 0) - b.type_probs.get(k, 0)) < 1e-12 for k in keys)
    np.testing.assert_allclose(a.typ_pmf, b.typ_pmf, atol=1e-12)


def test_enumeration_size_limits():
    with pytest.raises(ValueError):
        perm.enumerate_Sn(25, perm.constant_weights(25, 1.0))
    with pytest.raises(ValueError):
        perm.enumerate_Sn_by_permutations(9, perm.constant_weights(9, 1.0))
