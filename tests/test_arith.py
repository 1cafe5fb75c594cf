import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense import joined
from multweight import arith, weights


def is_prime_trial(n: int) -> bool:
    # independent oracle: trial division only
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_spf_small_values():
    spf = arith.build_spf(10)
    assert spf.dtype == np.int32 and len(spf) == 11
    assert spf[2:11].tolist() == [2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_spf_minimal():
    assert arith.build_spf(2)[2] == 2


def test_spf_rejects_tiny_limit():
    with pytest.raises(ValueError):
        arith.build_spf(1)


def test_spf_prime_flags_match_trial_division(spf_1e4):
    flags = spf_1e4[2:] == np.arange(2, 10**4 + 1, dtype=np.int32)
    for n in range(2, 10**4 + 1):
        assert flags[n - 2] == is_prime_trial(n)


def spf_primes(spf):
    """p is prime iff spf[p] = p."""
    return np.flatnonzero(spf[2:] == np.arange(2, len(spf))) + 2


def test_prime_count_1e6(spf_1e6):
    # oracle count verified by trial division on a sparse sample plus the
    # full count pinned from an independent primality scan
    assert len(spf_primes(spf_1e6)) == 78498


def test_spf_matches_trial_division(spf_1e4):
    # the first divisor >= 2 found by increasing trial is the smallest prime factor
    for n in range(2, 10**4 + 1):
        p = 2
        while n % p:
            p += 1
        assert spf_1e4[n] == p


def draw_tables(x):
    return weights.build_weight_table(weights.builtin_weight("power", z=0.0), x)


def test_capacity_budget(monkeypatch):
    monkeypatch.setenv(arith.MAX_SIEVE_ENV, "1000")
    with pytest.raises(arith.CapacityError):
        arith.build_spf(10**4)
    # the 12 bytes per entry of the draw tables at x = 1e15 are past any
    # address space: allocating them before the check raised MemoryError
    for x in (10**4, 10**15):
        with pytest.raises(arith.CapacityError):
            draw_tables(x)
    monkeypatch.delenv(arith.MAX_SIEVE_ENV)
    arith.build_spf(10**4)
    draw_tables(10**4)


def test_prime_segments_check_the_budget_when_called(monkeypatch):
    # like entering a Walk: the error comes before the first segment is asked for
    monkeypatch.setenv(arith.MAX_SIEVE_ENV, "1000")
    with pytest.raises(arith.CapacityError):
        arith.prime_segments(10**4)


@pytest.mark.parametrize("raw", ["inf", "nan", "abc", "-5", "0", "1e400", ""])
def test_capacity_budget_must_be_a_positive_finite_number(monkeypatch, raw):
    # inf used to end in an OverflowError from int(), abc and nan in messages
    # that did not name the variable
    monkeypatch.setenv(arith.MAX_SIEVE_ENV, raw)
    for build in (arith.build_spf, draw_tables, arith.primes_upto):
        with pytest.raises(ValueError, match=arith.MAX_SIEVE_ENV):
            build(100)


def big_omega(prof):
    return sum(k for _, k in prof.factors)


def test_factorize_examples(spf_1e4):
    t = arith.build_spf(10**7)
    assert arith.factorize(12, spf_1e4).factors == ((2, 2), (3, 1))
    assert big_omega(arith.factorize(12, spf_1e4)) == 3
    assert len(arith.factorize(12, spf_1e4).factors) == 2
    assert arith.factorize(1, spf_1e4).factors == ()
    assert big_omega(arith.factorize(1, spf_1e4)) == 0
    assert arith.factorize(9699690, t).factors == (
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
    )


def test_factorize_out_of_range(spf_1e4):
    with pytest.raises(ValueError):
        arith.factorize(0, spf_1e4)
    with pytest.raises(ValueError):
        arith.factorize(10**4 + 1, spf_1e4)


def test_factorize_recompose_exhaustive(spf_1e5):
    for n in range(1, 10**5 + 1):
        assert math.prod(p**k for p, k in arith.factorize(n, spf_1e5).factors) == n


def factor_rows(ns, spf):
    """Factor matrix rows by the per-n spf route (oracle): leading 1s, then
    the primes with multiplicity, nondecreasing."""
    rows = [[p for p, k in arith.factorize(n, spf).factors for _ in range(k)] for n in ns]
    width = max(map(len, rows))
    return [[1] * (width - len(r)) + r for r in rows]


def test_factor_matrix_rows_are_the_factorizations(spf_1e5, p1_1e5):
    ns = np.arange(1, 10**5 + 1)
    F = arith.factor_matrix(ns, p1_1e5)
    assert F.dtype == np.int64 and F.shape == (10**5, 16)  # Omega(2^16) = 16
    assert np.all(F[0] == 1)
    assert F.tolist() == factor_rows(ns.tolist(), spf_1e5)
    assert np.all(np.prod(F, axis=1) == ns)
    assert arith.factor_matrix(np.ones(3, dtype=np.int64), p1_1e5).shape == (3, 0)
    with pytest.raises(ValueError):
        arith.factor_matrix(np.array([5, 10**5 + 1]), p1_1e5)
    with pytest.raises(ValueError):
        arith.factor_matrix(np.array([0, 5]), p1_1e5)


def test_factor_matrix_from_p1_matches_spf_factorization(spf_1e6, p1_1e6):
    # 1, the largest primes <= x, the powers of 2, x itself and uniform draws,
    # mixed in one matrix; and the same draws against a prefix of the table
    x = 10**6
    primes = spf_primes(spf_1e6)[-50:]
    draws = np.random.default_rng(7).integers(1, x + 1, 5000)
    ns = np.concatenate(([1, x], primes, 2 ** np.arange(20), draws))
    F = arith.factor_matrix(ns, p1_1e6)
    assert F.shape == (len(ns), 19)  # Omega(2^19) = 19
    assert F.tolist() == factor_rows(ns.tolist(), spf_1e6)
    small = draws[draws <= 10**4]
    assert np.array_equal(arith.factor_matrix(small, p1_1e6[: 10**4 + 1]), arith.factor_matrix(small, p1_1e6))
    with pytest.raises(ValueError):
        arith.factor_matrix(np.array([10**4 + 1]), p1_1e6[: 10**4 + 1])


@given(st.integers(min_value=1, max_value=10**4))
def test_factorize_log_identity(n):
    t = _shared_table()
    prof = arith.factorize(n, t)
    total = sum(k * math.log(p) for p, k in prof.factors)
    assert abs(total - math.log(n)) <= 1e-12 * max(1.0, abs(math.log(n)))


_T = None


def _shared_table():
    global _T
    if _T is None:
        _T = arith.build_spf(10**4)
    return _T


def test_omega_inequality_and_squarefree(spf_1e4):
    for n in range(1, 10**4 + 1):
        prof = arith.factorize(n, spf_1e4)
        assert big_omega(prof) >= len(prof.factors)
        squarefree = all(n % (p * p) != 0 for p in range(2, math.isqrt(n) + 1))
        assert (big_omega(prof) == len(prof.factors)) == squarefree


@pytest.mark.parametrize("p", [1, 4])
def test_nu_p_table_rejects_non_prime(p):
    # p = 1 used to loop forever; p = 4 counted powers of 4
    with pytest.raises(ValueError, match="not prime"):
        arith.nu_p_table(100, p, 1, 101)


@pytest.mark.parametrize("start", [1, 7, 2**18 + 1])
@pytest.mark.parametrize("ufunc, dtype", [(np.add, np.int8), (np.multiply, np.int32), (np.multiply, np.float64),
                                          (np.maximum, np.int32)])
def test_strided_applies_each_pair_in_order_at_the_multiples_of_its_q(start, ufunc, dtype):
    # q = start divides the start; q = 101 is longer than out; the float
    # values are applied in the order given, which can move the last bit
    pairs = [(2, 3), (4, 2), (9, 5), (start, 7), (101, 4)]
    if dtype == np.float64:
        pairs = [(q, v / 10 + 0.1) for q, v in pairs]
    out = np.arange(1, 41, dtype=dtype)
    ref = out.copy()
    for q, v in pairs:
        for i, n in enumerate(range(start, start + len(out))):
            if n % q == 0:
                ref[i] = ufunc(ref[i], v)
    assert arith.strided(out, start, ufunc, pairs) is out
    assert out.dtype == dtype and np.array_equal(out, ref)


def test_primes_upto_matches_spf(spf_1e5):
    assert np.array_equal(arith.primes_upto(10**5), spf_primes(spf_1e5))


def test_prime_segments_match_spf_across_segment_edges():
    # the segmented sieve against the spf sieve over three segments, the last
    # one 6 entries long; each segment holds the primes of its own range
    S = arith.SEGMENT
    x = 2 * S + 5
    segments = list(arith.prime_segments(x))
    assert len(segments) == 3
    for k, ps in enumerate(segments):
        assert ps.dtype == np.int64 and np.all((k * S <= ps) & (ps < (k + 1) * S)), k
    spf = arith.build_spf(x)
    for y in (S - 1, S, S + 1, x):
        assert np.array_equal(arith.primes_upto(y), spf_primes(spf[: y + 1])), y


# Both sides of the squares 4, 9, 25, 49 and 121, where sqrt(x) gains a
# prime and p^2 moves from the cofactor side of the table walk to the
# small-prime side.
WALK_EDGES = (2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122)


def test_statistic_tables_match_profiles(spf_1e4):
    # the blocks of the walk over n <= x, joined into tables
    for x in (10**4, *WALK_EDGES):
        blocks = list(arith.Walk(x))
        lpf, om, wm, nu3 = (joined(blocks, f) for f in (lambda b: b.largest_prime, lambda b: b.count(),
                                                          lambda b: b.count(1),
                                                          lambda b: arith.nu_p_table(x, 3, b.start, b.stop)))
        assert lpf.dtype == np.int32
        assert (len(om), len(wm)) == (x + 1, x + 1)
        assert (om[0], wm[0], lpf[0]) == (0, 0, 0)
        for n in range(1, x + 1):
            prof = arith.factorize(n, spf_1e4)
            assert om[n] == big_omega(prof)
            assert wm[n] == len(prof.factors)
            assert nu3[n] == dict(prof.factors).get(3, 0)
            expected_lpf = max((p for p, _ in prof.factors), default=1)
            assert lpf[n] == expected_lpf
