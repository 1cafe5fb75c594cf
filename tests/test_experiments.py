import math

import numpy as np
import pytest

from multweight import arith, experiments, weights
from multweight.weights import builtin_weight


def test_statistic_dispatch_matches_the_tables(spf_1e4):
    ctx = experiments.Context()
    x = 10**4
    lpf = arith.largest_prime_table(spf_1e4)
    np.testing.assert_array_equal(ctx.statistic("omega", x), arith.omega_table(spf_1e4))
    np.testing.assert_array_equal(ctx.statistic("big_omega", x), arith.big_omega_table(spf_1e4))
    np.testing.assert_array_equal(ctx.statistic("largest_prime", x), lpf)
    np.testing.assert_array_equal(ctx.statistic("nu", x, p=3), arith.nu_p_table(x, 3))
    ratio = ctx.statistic("largest_ratio", x)
    assert ratio[0] == 0.0 and ratio[1] == 0.0
    np.testing.assert_array_equal(ratio[2:], np.log(lpf[2:].astype(float)) / math.log(x))
    smooth = ctx.statistic("smooth", x, u=2.0)
    assert smooth.dtype == np.int8
    np.testing.assert_array_equal(smooth[1:], (lpf[1:] <= 100).astype(np.int8))
    assert smooth[97 * 101] == 0 and smooth[97 * 89] == 1 and smooth[10**4] == 1


def test_statistics_grow_with_the_range_and_are_served_as_prefixes():
    ctx = experiments.Context()
    small = ctx.statistic("big_omega", 100).copy()
    big = ctx.statistic("big_omega", 10**4)
    assert ctx.spf(50).limit == 10**4
    np.testing.assert_array_equal(big[:101], small)
    again = ctx.statistic("big_omega", 100)
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
        experiments.Context().statistic(name, 100, **kwargs)


def test_require_prime():
    assert [p for p in range(-2, 40) if _is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert experiments.require_prime(7919) == 7919


def _is_prime(p):
    try:
        experiments.require_prime(p)
    except ValueError:
        return False
    return True


def test_sub_table_equals_a_table_built_at_the_smaller_range(spf_1e5):
    # the experiments slice one table at max(xs) instead of building one per x
    for w in weights.catalog_weights():
        big = weights.build_weight_table(w, 10**5, spf_1e5)
        sub = experiments.sub_table(big, 10**4)
        direct = weights.build_weight_table(w, 10**4, spf_1e5)
        assert sub.x == direct.x
        np.testing.assert_array_equal(sub.alpha, direct.alpha)
        np.testing.assert_array_equal(sub.prefix, direct.prefix)


def test_omega_clt_ks_per_x_is_independent_of_the_other_xs():
    w = builtin_weight("divisor", k=2.0)
    both = experiments.omega_clt_ks(experiments.Context(), w, [10**3, 10**4])
    alone = [experiments.omega_clt_ks(experiments.Context(), w, [x])[0] for x in (10**3, 10**4)]
    assert both == alone


def test_atom_gaps_cover_both_supports():
    from multweight.sampling import ExactPmf

    a = ExactPmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    b = ExactPmf(np.array([0.0, 2.0]), np.array([0.75, 0.25]))
    assert experiments.atom_gaps(a, b) == [0.25, 0.5, 0.25]
