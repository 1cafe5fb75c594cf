import math

import numpy as np
import pytest

from multweight import arith, experiments, weights
from multweight.weights import builtin_weight


def values(name, x, **kwargs):
    """A statistic's values for n = 0..x (entry 0 is 0), from its blocks of the walk over n <= x."""
    f = experiments.statistic(name, x, **kwargs)
    blocks = [f(b) for b in arith.Walk(x)]
    return np.concatenate([np.zeros(1, blocks[0].dtype), *blocks])


def test_statistic_dispatch_matches_the_tables(p1_1e4):
    x = 10**4
    lpf = p1_1e4
    np.testing.assert_array_equal(values("omega", x), arith.omega_table(lpf))
    np.testing.assert_array_equal(values("big_omega", x), arith.big_omega_table(lpf))
    np.testing.assert_array_equal(values("largest_prime", x), lpf)
    np.testing.assert_array_equal(values("nu", x, p=3), arith.nu_p_table(x, 3))
    ratio = values("largest_ratio", x)
    assert ratio[0] == 0.0 and ratio[1] == 0.0
    np.testing.assert_array_equal(ratio[2:], np.log(lpf[2:].astype(float)) / math.log(x))
    smooth = values("smooth", x, u=2.0)
    assert smooth.dtype == np.int8
    np.testing.assert_array_equal(smooth[1:], (lpf[1:] <= 100).astype(np.int8))
    assert smooth[97 * 101] == 0 and smooth[97 * 89] == 1 and smooth[10**4] == 1


def test_p1_table_grows_with_the_range_and_is_served_as_prefixes():
    ctx = experiments.Context()
    small = ctx.p1(100).copy()
    big = ctx.p1(10**4)
    assert np.shares_memory(ctx.p1(50), ctx.p1(10**4)) and len(ctx.p1(50)) == 51
    np.testing.assert_array_equal(big[:101], small)
    again = ctx.p1(100)
    assert len(again) == 101 and np.shares_memory(again, big)


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
    ctx = experiments.Context()
    want = [int(p) ** u <= x for p in ctx.p1(x)[1:]]
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


def test_sub_table_equals_a_table_built_at_the_smaller_range(p1_1e5):
    # the experiments slice one table (prefix sum) at max(xs) instead of building one per x
    direct_p1 = arith.largest_prime_table(10**4)
    for w in weights.catalog_weights():
        sub = weights.build_weight_table(w, p1_1e5)[: 10**4 + 1]
        direct = weights.build_weight_table(w, direct_p1)
        assert len(sub) == len(direct) == 10**4 + 1
        np.testing.assert_array_equal(sub, direct)


def test_scans_leave_the_dense_prefix_unbuilt(monkeypatch):
    # only the sampler reads the prefix sum; the scans reduce the walk
    # block by block and build no weight table at all
    built = []
    build = weights.build_weight_table

    def record(w, p1):
        built.append(build(w, p1))
        return built[-1]

    monkeypatch.setattr(weights, "build_weight_table", record)
    ctx, w = experiments.Context(), builtin_weight("theta_omega", theta=1.0)
    experiments.sieve_sum(w, [10**3, 10**4], 10**4)
    for name in ("big_omega", "largest_prime", "largest_ratio"):
        experiments.exact_dist(w, 10**4, name)
    experiments.smooth(w, 10**4, [1.5, 2.0], 1 / 64)
    experiments.small_prime(w, 10**4, [2, 3])
    experiments.omega_clt_ks(w, [10**3, 10**4])
    experiments.poly_asym(1.0, 1.0, [10**3, 10**4], 10**4)
    experiments.mean_big_omega(w, [10**3, 10**4])
    assert len(built) == 0
    experiments.sample(ctx, w, 10**4, 10, 1)
    assert len(built) == 1 and len(built[0]) == 10**4 + 1


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
    alpha, om = alpha_of(w, p1_1e4), arith.big_omega_table(p1_1e4).astype(float)
    for x, mean in zip(xs, means):
        dense = np.dot(om[1 : x + 1], alpha[1 : x + 1]) / math.fsum(alpha[1 : x + 1].tolist())
        assert mean == pytest.approx(dense, rel=1e-13), x


def test_atom_gaps_cover_both_supports():
    from multweight.sampling import ExactPmf

    a = ExactPmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    b = ExactPmf(np.array([0.0, 2.0]), np.array([0.75, 0.25]))
    assert experiments.atom_gaps(a, b) == [0.25, 0.5, 0.25]
