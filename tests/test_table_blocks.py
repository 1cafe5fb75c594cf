"""The blocked table walk against the dense one it replaced, bit for bit.

The dense builders below make one strided pass per prime power over the
whole range n <= x: p_1, Omega, omega, nu_p and alpha.  They are the oracles: the blocked tables of arith and
weights must equal them exactly, at block edges and across several blocks.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from multweight import arith, experiments, sampling, weights
from multweight.weights import builtin_weight, catalog_weights

B = arith.BLOCK
XS = (0, 1, 2, B - 1, B, B + 1, 2 * B + 7, 10**6)
C = arith.COUNT_BLOCK  # Omega, omega and nu_p walk blocks of C int8 entries
COUNT_XS = (C - 1, C, C + 1, 2 * C + 7)


def dense_largest_prime_table(x):
    cof = np.arange(x + 1, dtype=np.int32)
    lpf = np.zeros(x + 1, dtype=np.int32)
    lpf[1:2] = 1
    for p in arith.primes_upto(math.isqrt(x)).tolist():
        lpf[p::p] = p
        pk = p
        while pk <= x:
            cof[pk::pk] //= p
            pk *= p
    return np.maximum(lpf, cof, out=lpf)


def dense_levels(x):
    ps = arith.primes_upto(math.isqrt(x))
    levels = [ps]
    while len(ps := ps[ps ** (len(levels) + 1) <= x]):
        levels.append(ps)
    return levels


def dense_big_omega_table(p1):
    x = len(p1) - 1
    om = (p1 > math.isqrt(x)).astype(np.int8)
    for k, ps in enumerate(dense_levels(x), 1):
        for p in ps.tolist():
            om[p**k :: p**k] += 1
    return om


def dense_omega_table(p1):
    x = len(p1) - 1
    om = (p1 > math.isqrt(x)).astype(np.int8)
    for p in dense_levels(x)[0].tolist():
        om[p::p] += 1
    return om


def dense_nu_p_table(x, p):
    nu = np.zeros(x + 1, dtype=np.int8)
    pk = p
    while pk <= x:
        nu[pk::pk] += 1
        pk *= p
    return nu


def dense_weight_table(w, p1):
    x = len(p1) - 1
    levels, big = dense_levels(x), p1 > math.isqrt(x)
    alpha = np.ones(x + 1)
    alpha[0] = 0.0
    prev = np.ones(len(levels[0]))
    for k, ps in enumerate(levels, 1):
        cur = w.values_on_primes(ps, k)
        prev = prev[: len(ps)]
        ratio = np.divide(cur, prev, out=np.ones_like(cur), where=prev != 0.0)
        for p, r in zip(ps.tolist(), ratio.tolist()):
            if r != 1.0:
                alpha[p**k :: p**k] *= r
        if k == 1:
            hit = np.nonzero(big)[0]
            alpha[hit] *= w.values_on_primes(p1[hit].astype(np.int64), 1)
        prev = cur
    prefix = np.empty(x + 1)
    prefix[0] = 0.0
    weights._compensated_cumsum(alpha[1:], prefix[1:])
    return alpha, prefix


WEIGHTS = catalog_weights() + [builtin_weight("power", z=0.0), builtin_weight("divisor", k=0.5),
                               builtin_weight("sigma", z=-0.5)]


@pytest.fixture(scope="module")
def p1_tables():
    return {x: arith.largest_prime_table(x) for x in XS + COUNT_XS}


def test_block_edges_meet_prime_power_multiples():
    # at 1e6 blocks start at 2^18 + 1 = 5 * 13 * 37 * 109 and 2^19 + 1 = 3 * 174763
    # and end at 2^18 and 2^19: the walk must neither miss nor double such a multiple
    blocks = list(arith.Walk(10**6))
    on_start = {pk for b in blocks[1:] for walk in b.walks for _, pk, o in walk if o == 0}
    assert {3, 5, 13, 37, 109} <= on_start
    assert [b.stop - 1 for b in blocks[:2]] == [2**18, 2**19]


def test_count_blocks_meet_prime_power_multiples():
    # at 2C + 7 count blocks start at C + 1 = 3^2 * 43 * 5419 and 2C + 1 = 5 * 397 * 2113
    # and end at C and 2C
    x = 2 * C + 7
    blocks = list(arith.Walk(x, size=C))
    on_start = {pk for b in blocks[1:] for walk in b.walks for _, pk, o in walk if o == 0}
    assert {3, 9, 43, 5, 397} <= on_start
    assert [b.stop - 1 for b in blocks] == [C, 2 * C, x]


@pytest.mark.parametrize("x", XS + COUNT_XS)
def test_statistic_tables_equal_the_dense_walk(x, p1_tables):
    p1 = p1_tables[x]
    assert p1.dtype == np.int32
    assert np.array_equal(p1, dense_largest_prime_table(x))
    for blocked, dense in ((arith.big_omega_table, dense_big_omega_table), (arith.omega_table, dense_omega_table)):
        table = blocked(p1)
        assert table.dtype == np.int8
        assert np.array_equal(table, dense(p1))
    for p in (2, 3, 5, 1009):
        assert np.array_equal(arith.nu_p_table(x, p), dense_nu_p_table(x, p))


@pytest.mark.parametrize("x", [x for x in XS if x >= 1])
def test_weight_tables_equal_the_dense_walk(x, p1_tables):
    p1 = p1_tables[x]
    for w in WEIGHTS:
        table = weights.build_weight_table(w, p1)
        alpha, prefix = dense_weight_table(w, p1)
        assert np.array_equal(table.alpha, alpha), w.name
        assert np.array_equal(table.prefix, prefix), w.name


def test_weight_table_at_x_0_is_degenerate(p1_tables):
    with pytest.raises(ValueError, match="degenerate"):
        weights.build_weight_table(builtin_weight("power", z=0.0), p1_tables[0])


@pytest.mark.parametrize("x, s", [(2000, "inf"), (B - 1, "nan")])
def test_weight_table_past_the_float_range_is_degenerate(x, s):
    # n^100 passes the float range at n = 1210, and S(x) = inf used to pass
    # the S <= 0 check; from p^k = 2^12 on, inf/inf prime-power ratios make it
    # NaN.  The error names the weight, and numpy warns of none of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"power\\(100\\): degenerate table: S\\({x}\\) = {s} is not positive and finite"):
            weights.build_weight_table(builtin_weight("power", z=100.0), arith.largest_prime_table(x))


CHUNK = weights.CHUNK  # S(y) sums alpha's chunks of CHUNK entries
CHUNK_YS = (0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 5)


@pytest.fixture(scope="module")
def p1_chunks():
    return arith.largest_prime_table(2 * CHUNK + 5)


def test_S_at_and_sub_tables_equal_the_dense_prefix_at_chunk_edges(p1_chunks):
    for w in catalog_weights():
        table = weights.build_weight_table(w, p1_chunks)
        alpha, prefix = dense_weight_table(w, p1_chunks)
        assert np.array_equal(table.alpha, alpha), w.name
        for y in CHUNK_YS:  # the last is x
            assert table.S_at(y) == prefix[y], (w.name, y, table.S_at(y), prefix[y])
        with pytest.raises(IndexError):
            table.S_at(table.x + 1)
        # a table cut at 2^20 + 1 from this one equals one built there
        x = CHUNK + 1
        sub, direct = experiments.sub_table(table, x), weights.build_weight_table(w, p1_chunks[: x + 1])
        assert np.array_equal(sub.alpha, direct.alpha), w.name
        assert sub.totals == direct.totals, w.name
        for y in CHUNK_YS[:6]:
            assert sub.S_at(y) == direct.S_at(y) == prefix[y], (w.name, y)
        # S(y) never builds the dense prefix; built, it is the dense oracle's
        assert not any("prefix" in vars(t) for t in (table, sub, direct)), w.name
        assert np.array_equal(table.prefix, prefix), w.name
        assert np.array_equal(sub.prefix, prefix[: x + 1]), w.name


def test_weight_table_whose_chunk_totals_sum_past_the_float_range_is_degenerate(p1_chunks):
    # theta^omega(n) with theta = 6e43: the totals of the first two chunks are
    # finite, their sum is not, and math.fsum raised OverflowError on it
    w = builtin_weight("theta_omega", theta=6e43)
    assert 0 < weights.build_weight_table(w, p1_chunks[: CHUNK + 1]).S < math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"theta_omega\\(6e\\+43\\): degenerate table: S\\({2 * CHUNK + 5}\\) = inf"):
            weights.build_weight_table(w, p1_chunks)


def extra_bytes(build):
    """Peak bytes a call allocates besides the array it returns (a weight table: alpha; a law: none)."""
    tracemalloc.start()
    out = build()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    held = out.alpha if isinstance(out, weights.WeightTable) else out
    return peak - getattr(held, "nbytes", 0)


def test_builders_hold_one_block_besides_their_output():
    # what a builder allocates besides its output must not grow with x: a
    # whole-range temporary (a cofactor array, a big-prime mask, a dense
    # prefix sum) would add at least one byte per entry, 12 * B bytes from
    # 4 * B to 16 * B
    w = builtin_weight("sigma", z=1.0)
    extra = []
    for x in (4 * B, 16 * B):
        p1 = arith.largest_prime_table(x)
        extra.append([extra_bytes(lambda: arith.largest_prime_table(x)),
                      extra_bytes(lambda: arith.big_omega_table(p1)),
                      extra_bytes(lambda: arith.omega_table(p1)),
                      extra_bytes(lambda: weights.build_weight_table(w, p1))])
    for small, large in zip(*extra):
        assert large - small < B
    # a weight table holds alpha alone: S(x) adds one chunk's cumsum to the walk's blocks
    assert extra[1][3] < 8 * CHUNK + 8 * B


# ---------------------------------------------------------------------------
# The streamed scan against the dense route, bit for bit: the same laws from
# whole tables (exact_pmf_from_values over a weight table and a statistic
# table), at chunk edges and at an x that is not aligned to a block.
# ---------------------------------------------------------------------------

SCAN_XS = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, 1_234_567)
SMOOTH_US = ((3, 2), (2, 1), (3, 1))  # u = 1.5, 2, 3 as a/b


def smooth_root(x, a, b):
    """The largest y with y^(a/b) <= x, in integers: y^a <= x^b."""
    y = round(x ** (b / a))
    while y**a > x**b:
        y -= 1
    while (y + 1) ** a <= x**b:
        y += 1
    return y


def same_law(streamed, dense):
    return np.array_equal(streamed.values, dense.values) and np.array_equal(streamed.probs, dense.probs)


@pytest.mark.parametrize("x", SCAN_XS)
def test_streamed_laws_and_S_equal_the_dense_route(x):
    p1 = arith.largest_prime_table(x)
    stats = [("omega", {}, arith.omega_table(p1)), ("big_omega", {}, arith.big_omega_table(p1)),
             ("nu", {"p": 2}, arith.nu_p_table(x, 2)), ("nu", {"p": 3}, arith.nu_p_table(x, 3))]
    stats += [("smooth", {"u": a / b}, (p1 <= smooth_root(x, a, b)).astype(np.int8)) for a, b in SMOOTH_US]
    laws = [(experiments.statistic(name, x, **kw), [x]) for name, kw, _ in stats]
    ys = [0, 1, 2, 777, B + 12345, 3 * B + 5, x // 2 + 3, x - 1, x]  # mid-block, and both ends
    for w in catalog_weights():
        table = weights.build_weight_table(w, p1)
        S, masses = experiments.scan(w, x, ys=ys, laws=laws)
        assert S == [table.S_at(y) for y in ys], w.name
        for (name, kw, values), (mass,) in zip(stats, masses):
            want = sampling.exact_pmf_from_values(table, values)
            assert same_law(sampling.exact_pmf_from_mass(mass), want), (w.name, name, kw)


def test_checkpoint_laws_equal_the_sub_table_route(p1_chunks):
    # one walk at x; the law at each y < x snapshots the mass, splitting a block at y
    x = len(p1_chunks) - 1
    ys = [1, 1000, B, B + 1, CHUNK + 777, x]
    om = arith.big_omega_table(p1_chunks)
    for w in catalog_weights():
        table = weights.build_weight_table(w, p1_chunks)
        laws = [(experiments.statistic("big_omega", x), ys)]
        laws += [(experiments.statistic("smooth", y, u=2.0), [y]) for y in ys]
        _, (omegas, *smooths) = experiments.scan(w, x, laws=laws)
        for y, mass, (smooth,) in zip(ys, omegas, smooths):
            sub = experiments.sub_table(table, y)
            assert same_law(sampling.exact_pmf_from_mass(mass), sampling.exact_pmf_from_values(sub, om[: y + 1]))
            dense = (p1_chunks[: y + 1] <= math.isqrt(y)).astype(np.int8)
            assert same_law(sampling.exact_pmf_from_mass(smooth), sampling.exact_pmf_from_values(sub, dense))


@pytest.mark.parametrize("x", [1, 2, 3, 10**4, 10**6, CHUNK + 1])
def test_streamed_joint_law_equals_joint_pmf_from_values(x, p1_chunks):
    # at 1e6 the mass of power(0.5) sums to another float without the
    # trailing zeros that make joint_pmf_from_values' table whole rows
    values, kb = experiments.joint_nu(x, 2, 3)
    for w in catalog_weights():
        table = weights.build_weight_table(w, p1_chunks[: x + 1])
        _, ((mass,),) = experiments.scan(w, x, laws=[(values, [x])])
        want = sampling.joint_pmf_from_values(table, arith.nu_p_table(x, 2), arith.nu_p_table(x, 3))
        assert sampling.joint_pmf_from_mass(mass, kb) == want, (w.name, x)


def test_streamed_scan_holds_a_few_chunks():
    # the scan holds one CHUNK of alpha, the cumsum of that chunk for S(x) and
    # one block's temporaries; nothing that grows with x but the walk's lists
    # of the prime powers of the primes up to sqrt(x)
    w = builtin_weight("divisor", k=2.0)
    extra = [extra_bytes(lambda: experiments.exact_dist(experiments.Context(), w, x, "big_omega"))
             for x in (2**21, 2**23)]
    assert max(extra) < 3 * 8 * CHUNK
    prime_powers = sum(len(level) for level in arith.Walk(2**23).levels)
    assert extra[1] - extra[0] < 128 * prime_powers
