import math

import numpy as np
import pytest

from dense import dense_big_omega_table, dense_largest_prime_table, dense_nu_p_table, dense_omega_table
from multweight import arith, asympt, experiments, weights
from multweight.weights import builtin_weight


def values(name, x, **kwargs):
    """A statistic's values for n = 0..x (entry 0 is 0), from its blocks of the walk over n <= x."""
    f = experiments.statistic(name, x, **kwargs)
    blocks = [f(b) for b in arith.Walk(x)]
    return np.concatenate([np.zeros(1, blocks[0].dtype), *blocks])


def test_statistic_dispatch_matches_the_tables(p1_1e4):
    x = 10**4
    lpf = p1_1e4
    np.testing.assert_array_equal(values("omega", x), dense_omega_table(lpf))
    np.testing.assert_array_equal(values("big_omega", x), dense_big_omega_table(lpf))
    np.testing.assert_array_equal(values("largest_prime", x), lpf)
    np.testing.assert_array_equal(values("nu", x, p=3), dense_nu_p_table(x, 3))
    ratio = values("largest_ratio", x)
    assert ratio[0] == 0.0 and ratio[1] == 0.0
    np.testing.assert_array_equal(ratio[2:], np.log(lpf[2:].astype(float)) / math.log(x))
    smooth = values("smooth", x, u=2.0)
    assert smooth.dtype == np.int8
    np.testing.assert_array_equal(smooth[1:], (lpf[1:] <= 100).astype(np.int8))
    assert smooth[97 * 101] == 0 and smooth[97 * 89] == 1 and smooth[10**4] == 1


@pytest.mark.parametrize("name, kwargs, match", [
    ("nu", {"p": 4}, "not prime"),
    ("nu", {"p": 1}, "not prime"),
    ("smooth", {"u": 0.0}, "u must be positive"),
    ("smooth", {"u": -2.0}, "u must be positive"),
    ("largest", {}, "unknown statistic"),
])
def test_statistic_rejects_bad_input(name, kwargs, match):
    with pytest.raises(ValueError, match=match):
        experiments.statistic(name, 100, **kwargs)


@pytest.mark.parametrize("x, u", [(343, 3), (125, 3), (1331, 3), (2197, 3), (49, 2)])
def test_smooth_counts_an_exact_root_as_smooth(x, u):
    # p_1(n)^u <= x per n; the float root 343^(1/3) reads 6.999..., which
    # dropped every n with p_1 = 7
    want = [int(p) ** u <= x for p in dense_largest_prime_table(x)[1:]]
    np.testing.assert_array_equal(values("smooth", x, u=float(u))[1:], want)


def test_largest_ratio_needs_x_at_least_2():
    with pytest.raises(ValueError, match="x >= 2"):
        experiments.statistic("largest_ratio", 1)


def test_require_prime():
    assert [p for p in range(-2, 40) if _is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert _is_prime(7919)


def _is_prime(p):
    try:
        arith.require_prime(p)
    except ValueError:
        return False
    return True


def test_sub_table_equals_a_table_built_at_the_smaller_range():
    # c10 slices the draw tables at max(xs) instead of building them again at a smaller x
    for w in weights.catalog_weights():
        big, direct = weights.build_weight_table(w, 10**5), weights.build_weight_table(w, 10**4)
        assert len(direct.prefix) == len(direct.p1) == 10**4 + 1
        np.testing.assert_array_equal(big.prefix[: 10**4 + 1], direct.prefix)
        np.testing.assert_array_equal(big.p1[: 10**4 + 1], direct.p1)


def test_scans_leave_the_dense_prefix_unbuilt(monkeypatch):
    # only the sampler reads the prefix sum; the scans reduce the walk
    # block by block and build no weight table at all
    built = []
    build = weights.build_weight_table

    def record(w, x):
        built.append(build(w, x))
        return built[-1]

    monkeypatch.setattr(weights, "build_weight_table", record)
    w = builtin_weight("theta_omega", theta=1.0)
    experiments.sieve_sum(w, [10**3, 10**4], 10**4)
    for name in ("big_omega", "largest_prime", "largest_ratio"):
        experiments.exact_dist(w, 10**4, name)
    experiments.smooth(w, 10**4, [1.5, 2.0], 1 / 64)
    experiments.small_prime(w, 10**4, [2, 3])
    experiments.omega_clt_ks(w, [10**3, 10**4])
    experiments.poly_asym(1.0, 1.0, [10**3, 10**4], 10**4)
    experiments.mean_big_omega(w, [10**3, 10**4])
    assert len(built) == 0
    experiments.sample(w, 10**4, 10, 1)
    assert len(built) == 1 and len(built[0].prefix) == 10**4 + 1


def test_draw_ops_walk_once_per_table_kind(monkeypatch):
    # one walk gives the draws both p_1 and the prefix sum; poly_typical bins
    # the law of Omega for E Omega on the same walk
    walks = []

    class CountedWalk(arith.Walk):
        def __init__(self, x):
            walks.append(x)
            super().__init__(x)

    monkeypatch.setattr(arith, "Walk", CountedWalk)
    experiments.pd_compare(builtin_weight("power", z=0.0), 10**4, 100, 100, 1)
    assert walks == [10**4]
    walks.clear()
    experiments.poly_typical(1.0, 1.0, 10**4, 100, 1)
    assert walks == [10**4]


def test_a_law_binned_with_the_draw_tables_equals_the_scanned_law():
    # poly_typical reads E Omega off the walk that fills its draw tables; over
    # three blocks, that law is the scan's bit for bit, so E Omega is too
    x = 2 * arith.BLOCK + 7
    for w in weights.catalog_weights():
        for name in ("big_omega", "largest_prime"):
            law = experiments.statistic(name, x)
            ((scanned,),) = experiments.scan(w, x, laws=[(law, [x])])[1]
            assert np.array_equal(weights.build_weight_table(w, x, law).mass, scanned), (w.name, name)
        assert weights.build_weight_table(w, x).mass is None
    poly = builtin_weight("poly_log", K=1.0, gamma=1.0)
    eo = experiments.poly_typical(1.0, 1.0, 10**4, 100, 1)["mean_omega_exact"]
    assert eo == experiments.mean_big_omega(poly, [10**4])[0]


def test_omega_clt_ks_per_x_is_independent_of_the_other_xs():
    w = builtin_weight("divisor", k=2.0)
    both = experiments.omega_clt_ks(w, [10**3, 10**4])
    alone = [experiments.omega_clt_ks(w, [x])[0] for x in (10**3, 10**4)]
    assert both == alone


def test_mean_big_omega_is_the_mean_of_the_streamed_law(p1_1e4, alpha_of):
    # one scan with a stop at each x; the dense dot product of Omega and alpha is the oracle
    w = builtin_weight("poly_log", K=1.0, gamma=1.0)
    xs = [10**3, 5000, 10**4]
    means = experiments.mean_big_omega(w, xs)
    assert means == [experiments.exact_dist(w, x, "big_omega").mean() for x in xs]
    alpha, om = alpha_of(w, 10**4), dense_big_omega_table(p1_1e4).astype(float)
    for x, mean in zip(xs, means):
        dense = np.dot(om[1 : x + 1], alpha[1 : x + 1]) / math.fsum(alpha[1 : x + 1].tolist())
        assert mean == pytest.approx(dense, rel=1e-13), x


def test_atom_gaps_cover_both_supports():
    from multweight.sampling import ExactPmf

    a = ExactPmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    b = ExactPmf(np.array([0.0, 2.0]), np.array([0.75, 0.25]))
    assert experiments.atom_gaps(a, b) == [0.25, 0.5, 0.25]


@pytest.mark.parametrize("K, gamma", [(1.0, 1.0), (2.0, 0.5)])
def test_poly_sieve_sum_solves_no_saddle_and_predicts_as_poly_asym(monkeypatch, K, gamma):
    # the poly predictor reads no saddle point, so sieve_sum solves none
    xs, cutoff = [10**3, 10**4], 10**4
    want = [r["predicted"] for r in experiments.poly_asym(K, gamma, xs, cutoff)]

    def no_saddle(*args, **kwargs):
        raise AssertionError("sieve_sum solved a saddle")

    monkeypatch.setattr(asympt, "solve_saddle", no_saddle)
    rows = experiments.sieve_sum(builtin_weight("poly_log", K=K, gamma=gamma), xs, cutoff)
    assert [r["predicted"] for r in rows] == want
