import math
from itertools import permutations as iter_permutations

import numpy as np
import pytest
from scipy.special import logsumexp

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


def quadratic_partition_function(w: perm.CycleWeights) -> np.ndarray:
    """log h_0..log h_n by the direct recursion m h_m = sum_k theta_k h_{m-k} (oracle).

    One dot product per m, O(n^2); h is rescaled uniformly by 1e-280
    whenever a value passes 1e280, and each log is taken against the
    cumulative scale.
    """
    n = w.n
    theta_rev = np.ascontiguousarray(w.theta[::-1])
    h = np.zeros(n + 1)
    h[0] = 1.0
    log_h = np.zeros(n + 1)
    scale = 0.0
    for m in range(1, n + 1):
        v = float(np.dot(theta_rev[n - m : n], h[:m])) / m
        if v > 1e280:
            h[:m] *= 1e-280
            v *= 1e-280
            scale += math.log(1e280)
        h[m] = v
        log_h[m] = (math.log(v) if v > 0 else -math.inf) + scale
    return log_h


def log_domain_partition_function(w: perm.CycleWeights) -> np.ndarray:
    """log h_0..log h_n by the direct recursion summed in the log domain (oracle).

    log h_m = logsumexp_k (log theta_k + log h_{m-k}) - log m: no floating
    window, so it holds every h whose log is finite.  O(n^2).
    """
    log_theta = w.log_theta()
    log_h = np.full(w.n + 1, -math.inf)
    log_h[0] = 0.0
    for m in range(1, w.n + 1):
        log_h[m] = logsumexp(log_theta[:m][::-1] + log_h[:m]) - math.log(m)
    return log_h


def feller_indicator_cycle_lengths(n: int, theta: float, rng, size: int) -> perm.CycleLengths:
    """Ewens(theta) cycle lengths from all n Feller indicators per draw (oracle).

    xi_i ~ Bernoulli(theta/(theta + i - 1)), i = 1..n, xi_1 = 1, and a
    forced success at n+1; each draw's spacings are listed in index order,
    so its last one is the cycle containing the smallest element.
    """
    xi = rng.random((size, n)) < theta / (theta + np.arange(n, dtype=float))
    xi[:, 0] = True
    rows, pos = np.nonzero(xi)
    nxt = np.append(pos[1:], n)
    nxt[np.append(rows[1:] != rows[:-1], True)] = n
    return perm.CycleLengths(rows, nxt - pos)


def feller_spacings_at_fixed_u(n: int, theta: float, u: float) -> tuple[list[int], float]:
    """Spacings of the Feller coupling when every uniform is u (oracle).

    From a success at s the next one is the first j > s whose survival
    product prod_{l=s+1..j} (l-1)/(theta+l-1) falls below u, else n+1.
    Also returns the smallest gap |product - u| met on the way.
    """
    spacings, s, gap = [], 1, math.inf
    while s <= n:
        prod, j = 1.0, s + 1
        while j <= n:
            prod *= (j - 1) / (theta + j - 1)
            gap = min(gap, abs(prod - u))
            if prod < u:
                break
            j += 1
        spacings.append(j - s)
        s = j
    return spacings, gap


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
    # h_n passes 1e280 for these weights (first at m = 16474), so the
    # window is rescaled; the log table must stay finite and exact
    w = perm.poly_weights(1.5, 20000)
    t = perm.partition_function(w)
    assert t.log_h[-1] > math.log(1e280)
    assert np.all(np.isfinite(t.log_h[1:]))
    assert np.all(np.diff(t.log_h[1:]) > 0)
    assert np.abs(t.log_h - quadratic_partition_function(w)).max() <= 1e-11


@pytest.mark.parametrize("w", [
    perm.poly_weights(3.0, 2000),
    perm.poly_weights(5.0, 2000),
    perm.constant_weights(2000, 1e3),
    perm.constant_weights(2000, 3e3),
], ids=["poly gamma=3", "poly gamma=5", "theta=1e3", "theta=3e3"])
def test_partition_function_matches_log_domain_oracle(w):
    # the quadratic oracle shares the 1e280 window, so it cannot check where
    # the window fails; at theta = 3e3 log h_256 is about 893, past the
    # float range, so the first leaf is solved in halves
    want = log_domain_partition_function(w)
    assert np.abs(perm.partition_function(w).log_h - want).max() <= 1e-10


@pytest.mark.parametrize("theta", [1e4, 1e6])
def test_partition_function_binomial_identity_past_the_float_range(theta):
    # h_m = C(m + theta - 1, m) ~ theta^m / m!: at theta = 1e6 it passes the
    # float range at m = 53 and reaches e^14426 at m = 2000
    n = 2000
    terms = np.log((theta + np.arange(n)) / np.arange(1, n + 1))
    want = [math.fsum(terms[:m]) for m in range(n + 1)]
    got = perm.partition_function(perm.constant_weights(n, theta)).log_h
    assert got[0] == 0.0
    assert want[-1] > 5000
    assert np.abs(got - want).max() <= 1e-11


@pytest.mark.parametrize("w", [
    perm.poly_weights(10.0, 2000),
    perm.poly_weights(20.0, 2000),
    perm.poly_weights(40.0, 2000),
    perm.constant_weights(600, 1e200),
    perm.constant_weights(600, 1e307),
], ids=["10.0", "20.0", "40.0", "theta=1e200", "theta=1e307"])
def test_partition_function_holds_fast_growing_poly_weights(w):
    # theta_k ~ k^gamma passes 1e33, 1e66 and 1e132 (gamma = 10, 20, 40), and
    # log h_n is about 2.2e4, 7.8e4, 2.1e5, 2.7e5 and 4.2e5: compared relative
    # to log h.  The accumulator's window is set below 1e280 by the largest
    # theta_k, so its terms theta_k h_i stay in the float range: gamma = 40
    # raised at h_768 and theta = 1e200 at h_512 under a fixed 1e280.
    got, want = perm.partition_function(w).log_h, log_domain_partition_function(w)
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= 1e-13 * want[-1]


def step_weights(n: int, k0: int, big: float) -> perm.CycleWeights:
    theta = np.ones(n)
    theta[k0 - 1 :] = big  # theta_k = big for k >= k0
    return perm.CycleWeights(n=n, theta=theta)


def test_partition_function_names_an_h_it_cannot_hold():
    # h_0..h_99 = 1, and the eighteen terms 1e307 h_i, i <= 17, of 117 h_117
    # sum past the float range in the first leaf, though h_117 is about 1.7e306
    w = step_weights(600, 100, 1e307)
    assert np.all(np.isfinite(log_domain_partition_function(w)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="h_117 of the partition function cannot be held"):
        perm.partition_function(w)


def test_cycle_weights_past_the_float_range_are_rejected():
    # theta_k ~ k^100 passes the float range at k = 1206
    with pytest.raises(ValueError, match="finite"):
        perm.poly_weights(100.0, 2000)
    with pytest.raises(ValueError, match="finite"):
        perm.constant_weights(10, math.inf)


def only_even_weights(n: int) -> perm.CycleWeights:
    theta = np.ones(n)
    theta[0::2] = 0.0  # theta_k = 0 for odd k
    return perm.CycleWeights(n=n, theta=theta)


@pytest.mark.parametrize("make", [
    lambda n: perm.constant_weights(n, 0.5),
    lambda n: perm.constant_weights(n, 1.0),
    lambda n: perm.constant_weights(n, 2.0),
    lambda n: perm.poly_weights(1.0, n),
    lambda n: perm.poly_weights(2.0, n),
    only_even_weights,
], ids=["theta=0.5", "theta=1", "theta=2", "poly gamma=1", "poly gamma=2", "only even lengths"])
def test_partition_function_matches_quadratic_oracle(make):
    # at n = 2e4 every block of 512 entries and up passes its terms on by FFT
    w = make(20000)
    got, want = perm.partition_function(w).log_h, quadratic_partition_function(w)
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.abs(got[finite] - want[finite]).max() <= 1e-11


def test_partition_function_split_into_pieces_matches_oracle(monkeypatch):
    # blocks longer than _PIECE pass their terms on in pieces; at the default
    # size that takes n > 32768, so shrink the pieces to cover it here
    monkeypatch.setattr(perm, "_PIECE", 512)
    w = perm.poly_weights(1.5, 20000)
    assert np.abs(perm.partition_function(w).log_h - quadratic_partition_function(w)).max() <= 1e-11


@pytest.mark.parametrize("period", [2, 3])
def test_zero_weights_leave_unreachable_h_exactly_zero(rng, period):
    # theta_k = 0 unless period divides k.  FFT roundoff must not leave
    # h_m > 0 where no cycle type reaches m, or the sampler would draw
    # impossible cycles.  (At period 2 the FFT's roundoff cancels exactly
    # where h_m = 0; at period 3 it does not.)
    n = 20000 - 20000 % period
    theta = np.where(np.arange(1, n + 1) % period == 0, 1.0, 0.0)
    w = perm.CycleWeights(n=n, theta=theta)
    t = perm.partition_function(w)
    reachable = np.arange(n + 1) % period == 0
    assert np.all(t.log_h[~reachable] == -math.inf)
    assert np.all(np.isfinite(t.log_h[reachable]))
    rows, lengths = perm.sample_cycle_types(w, t, rng, 200)
    assert np.all(lengths % period == 0)
    np.testing.assert_array_equal(np.bincount(rows, weights=lengths), np.full(200, n))


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
        kss.append(limitlaws.ks_distance(l1, lambda u: limitlaws.beta_cdf(theta, u)))
    assert kss[1] < kss[0]


def test_cycle_count_bernoulli_sampler_matches_crp(rng):
    n, theta = 50, 1.5
    rows, _ = perm.ewens_cycle_lengths(n, theta, rng, 40000)
    a = np.bincount(rows, minlength=40000)
    b = np.array([len(ewens_crp(n, theta, rng)) for _ in range(20000)])
    assert a.mean() == pytest.approx(b.mean(), abs=0.05)
    assert a.std() == pytest.approx(b.std(), abs=0.05)


def test_feller_matches_enumeration(rng):
    n = 6
    for theta in (0.5, 1.0, 2.0):
        exact = perm.enumerate_Sn(n, perm.constant_weights(n, theta))
        emp = cycle_type_frequencies(*perm.ewens_cycle_lengths(n, theta, rng, 40000))
        assert tv(emp, exact.type_probs) <= 0.02


def test_feller_matches_indicator_oracle(rng):
    # same cycle-type law as drawing every indicator; the oracle lists the
    # cycle of the smallest element last, the sampler first
    n, theta, draws = 6, 1.5, 40000
    fast = perm.ewens_cycle_lengths(n, theta, rng, draws)
    slow = feller_indicator_cycle_lengths(n, theta, rng, draws)
    assert tv(cycle_type_frequencies(*fast), cycle_type_frequencies(*slow)) <= 0.02
    first = fast.lengths[np.flatnonzero(np.diff(fast.rows, prepend=-1))]
    last = slow.lengths[np.append(np.flatnonzero(np.diff(slow.rows)), len(slow.rows) - 1)]
    for k in range(1, n + 1):
        assert np.mean(first == k) == pytest.approx(np.mean(last == k), abs=0.015)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("u", [0.6180339887, 0.2718281828, 0.0173205080])
def test_feller_jumps_match_survival_products_at_fixed_u(theta, u):
    # with every uniform equal to u, each jump is the first j whose survival
    # product falls below u; u is kept 1e-9 away from every product met
    n = 3000
    want, gap = feller_spacings_at_fixed_u(n, theta, u)
    assert gap > 1e-9
    rows, lengths = perm.ewens_cycle_lengths(n, theta, ConstantRng(u), 4)
    for lens in split_rows(rows, lengths):
        assert lens.tolist() == want[::-1]


def test_feller_lists_the_cycle_of_the_smallest_element_first(rng):
    n = 6
    exact = perm.enumerate_Sn(n, perm.constant_weights(n, 1.0))
    rows, lengths = perm.ewens_cycle_lengths(n, 1.0, rng, 40000)
    first = lengths[np.flatnonzero(np.diff(rows, prepend=-1))]
    emp = np.bincount(first, minlength=n + 1) / 40000
    assert 0.5 * np.abs(emp - exact.l1_pmf).sum() <= 0.02
    # at n = 1000, theta = 1, L_1 is uniform on 1..n: mean (n+1)/2, sd n/sqrt(12)
    n, draws = 1000, 20000
    rows, lengths = perm.ewens_cycle_lengths(n, 1.0, rng, draws)
    first = lengths[np.flatnonzero(np.diff(rows, prepend=-1))]
    assert abs(first.mean() - (n + 1) / 2) <= 5 * n / math.sqrt(12 * draws)


def test_ewens_cycle_lengths_rows_sum_to_n(rng):
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


def _cycle_type(sigma):
    """{length: count} of the cycles of a permutation of 0..n-1, as a sorted tuple of pairs."""
    seen, counts = set(), {}
    for start in range(len(sigma)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = sigma[i], length + 1
        if length:
            counts[length] = counts.get(length, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("n", range(2, 9))
def test_class_size_log_is_the_log_of_the_counted_class_size(n):
    # every cycle type counted over all n! permutations; the log of the exact
    # integer, bit for bit (math.lgamma sums of the factorials miss most types)
    sizes = {}
    for sigma in iter_permutations(range(n)):
        key = _cycle_type(sigma)
        sizes[key] = sizes.get(key, 0) + 1
    for key, size in sizes.items():
        assert perm._class_size_log(n, dict(key)) == math.log(size), (n, key)
