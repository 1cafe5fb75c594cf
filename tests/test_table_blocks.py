"""The blocked table walk against the dense one it replaced, bit for bit.

The dense builders below make one strided pass per prime power over the
whole range n <= x: p_1, Omega, omega, nu_p, alpha and its prefix sum.
They are the oracles: the blocked tables of arith and weights, and the laws
the scans stream, must equal them exactly, at block and chunk edges and
across several blocks.
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
CHUNK = weights.CHUNK  # the prefix sum S(y) adds whole chunks of CHUNK entries by math.fsum
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
    # the prefix sum: each CHUNK-entry chunk's cumsum plus the math.fsum of the totals of the chunks before it
    prefix, totals = np.zeros(x + 1), []
    for start in range(1, x + 1, CHUNK):
        prefix[start : start + CHUNK] = np.cumsum(alpha[start : start + CHUNK]) + math.fsum(totals)
        totals.append(float(np.sum(alpha[start : start + CHUNK])))
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
def test_weight_tables_equal_the_dense_walk(x, p1_tables, alpha_of):
    p1 = p1_tables[x]
    for w in WEIGHTS:
        alpha, prefix = dense_weight_table(w, p1)
        assert np.array_equal(alpha_of(w, p1), alpha), w.name
        assert np.array_equal(weights.build_weight_table(w, p1), prefix), w.name


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


CHUNK_YS = (0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 5)


@pytest.fixture(scope="module")
def p1_chunks():
    return arith.largest_prime_table(2 * CHUNK + 5)


def test_S_at_and_sub_tables_equal_the_dense_prefix_at_chunk_edges(p1_chunks, alpha_of):
    for w in catalog_weights():
        table = weights.build_weight_table(w, p1_chunks)
        alpha, prefix = dense_weight_table(w, p1_chunks)
        assert np.array_equal(alpha_of(w, p1_chunks), alpha), w.name
        assert np.array_equal(table, prefix), w.name
        # the walk's S(y), read as it passes y (the last is x)
        S, _ = experiments.scan(w, len(p1_chunks) - 1, ys=list(CHUNK_YS))
        assert S == [prefix[y] for y in CHUNK_YS], w.name
        # a table cut at 2^20 + 1 from this one equals one built there
        x = CHUNK + 1
        sub, direct = table[: x + 1], weights.build_weight_table(w, p1_chunks[: x + 1])
        assert np.array_equal(sub, direct), w.name
        assert np.array_equal(direct, prefix[: x + 1]), w.name


def test_weight_table_whose_chunk_totals_sum_past_the_float_range_is_degenerate(p1_chunks):
    # theta^omega(n) with theta = 6e43: the totals of the first two chunks are
    # finite, their sum is not, and math.fsum raised OverflowError on it
    w = builtin_weight("theta_omega", theta=6e43)
    assert 0 < weights.build_weight_table(w, p1_chunks[: CHUNK + 1])[-1] < math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"theta_omega\\(6e\\+43\\): degenerate table: S\\({2 * CHUNK + 5}\\) = inf"):
            weights.build_weight_table(w, p1_chunks)


def extra_bytes(build):
    """Peak bytes a call allocates besides the array it returns (a weight table: its prefix sum; a law: none)."""
    tracemalloc.start()
    out = build()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak - getattr(out, "nbytes", 0)


def test_builders_hold_one_block_besides_their_output():
    # what a builder allocates besides its output must not grow with x: a
    # whole-range temporary (a cofactor array, a big-prime mask, alpha beside
    # its prefix sum) would add at least one byte per entry, 12 * B bytes
    # from 4 * B to 16 * B
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
    # the prefix sum is alpha summed in place: at most a chunk besides the walk's blocks
    assert extra[1][3] < 8 * CHUNK + 8 * B


# ---------------------------------------------------------------------------
# The streamed scan against the dense route, bit for bit: the same laws from
# whole tables (np.bincount of alpha over a statistic table), at chunk edges
# and at an x that is not aligned to a block.
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


def bincount_law(alpha, values):
    """The dense route: the law of a nonnegative integer statistic from whole tables, entry 0 unused."""
    return sampling.exact_pmf_from_mass(np.bincount(values[1:], weights=alpha[1:]))


@pytest.mark.parametrize("x", SCAN_XS)
def test_streamed_laws_and_S_equal_the_dense_route(x, alpha_of):
    p1 = arith.largest_prime_table(x)
    stats = [("omega", {}, arith.omega_table(p1)), ("big_omega", {}, arith.big_omega_table(p1)),
             ("nu", {"p": 2}, arith.nu_p_table(x, 2)), ("nu", {"p": 3}, arith.nu_p_table(x, 3))]
    stats += [("smooth", {"u": a / b}, (p1 <= smooth_root(x, a, b)).astype(np.int8)) for a, b in SMOOTH_US]
    laws = [(experiments.statistic(name, x, **kw), [x]) for name, kw, _ in stats]
    ys = [0, 1, 2, 777, B + 12345, 3 * B + 5, x // 2 + 3, x - 1, x]  # mid-block, and both ends
    for w in catalog_weights():
        table, alpha = weights.build_weight_table(w, p1), alpha_of(w, p1)
        S, masses = experiments.scan(w, x, ys=ys, laws=laws)
        assert S == [table[y] for y in ys], w.name
        for (name, kw, values), (mass,) in zip(stats, masses):
            want = bincount_law(alpha, values)
            assert same_law(sampling.exact_pmf_from_mass(mass), want), (w.name, name, kw)


def test_checkpoint_laws_equal_the_sub_table_route(p1_chunks, alpha_of):
    # one walk at x; the law at each y < x snapshots the mass, splitting a
    # block at y; the dense route bins alpha[:y + 1]
    x = len(p1_chunks) - 1
    ys = [1, 1000, B, B + 1, CHUNK + 777, x]
    om = arith.big_omega_table(p1_chunks)
    for w in catalog_weights():
        alpha = alpha_of(w, p1_chunks)
        laws = [(experiments.statistic("big_omega", x), ys)]
        laws += [(experiments.statistic("smooth", y, u=2.0), [y]) for y in ys]
        _, (omegas, *smooths) = experiments.scan(w, x, laws=laws)
        for y, mass, (smooth,) in zip(ys, omegas, smooths):
            sub = alpha[: y + 1]
            assert same_law(sampling.exact_pmf_from_mass(mass), bincount_law(sub, om[: y + 1]))
            dense = (p1_chunks[: y + 1] <= math.isqrt(y)).astype(np.int8)
            assert same_law(sampling.exact_pmf_from_mass(smooth), bincount_law(sub, dense))


@pytest.mark.parametrize("x", [1, 2, 3, 10**4, 10**6, CHUNK + 1])
def test_streamed_joint_law_equals_joint_pmf_from_values(x, p1_chunks, alpha_of):
    # the oracle is the dense route that joint_pmf_from_values was: np.bincount
    # of the codes nu_2 kb + nu_3 over whole rows of kb.  At 1e6 the mass of
    # power(0.5) sums to another float without those trailing zeros
    values, kb = experiments.joint_nu(x, 2, 3)
    nu2, nu3 = arith.nu_p_table(x, 2)[1:].astype(np.int64), arith.nu_p_table(x, 3)[1:].astype(np.int64)
    for w in catalog_weights():
        alpha = alpha_of(w, p1_chunks[: x + 1])
        _, ((mass,),) = experiments.scan(w, x, laws=[(values, [x])])
        dense = np.bincount(nu2 * kb + nu3, weights=alpha[1:], minlength=(int(nu2.max()) + 1) * kb)
        assert sampling.joint_pmf_from_mass(mass, kb) == sampling.joint_pmf_from_mass(dense, kb), (w.name, x)


def test_streamed_scan_holds_a_few_chunks():
    # the scan holds one CHUNK of alpha, the cumsum of that chunk for S(x) and
    # one block's temporaries; nothing that grows with x but the walk's lists
    # of the prime powers of the primes up to sqrt(x)
    w = builtin_weight("divisor", k=2.0)
    extra = [extra_bytes(lambda: experiments.exact_dist(w, x, "big_omega"))
             for x in (2**21, 2**23)]
    assert max(extra) < 3 * 8 * CHUNK
    prime_powers = sum(len(level) for level in arith.Walk(2**23).levels)
    assert extra[1] - extra[0] < 128 * prime_powers


def test_streamed_largest_prime_laws_equal_the_dense_route(alpha_of):
    # past CHUNK values the mass is allocated at x + 1 entries; the law ends at
    # the largest prime up to x (x = 127 * 9721 here), as np.bincount's does.
    # largest_ratio bins the float atoms log p/log x by p, as np.unique ranks them
    x = 1_234_567
    p1 = arith.largest_prime_table(x)
    ratios = np.log(p1[1:]) / math.log(x)
    uniq, inv = np.unique(ratios, return_inverse=True)
    for w in catalog_weights():
        alpha = alpha_of(w, p1)
        assert same_law(experiments.exact_dist(w, x, "largest_prime"), bincount_law(alpha, p1)), w.name
        dense = sampling.exact_pmf_from_mass(np.bincount(inv, weights=alpha[1:], minlength=len(uniq)), uniq)
        assert same_law(experiments.exact_dist(w, x, "largest_ratio"), dense), w.name


@pytest.mark.parametrize("w", catalog_weights(), ids=lambda w: w.name)
def test_streamed_largest_prime_laws_equal_the_per_n_brute_force(w, spf_1e4):
    # p_1(n) and alpha(n) by factoring each n <= x; the law binned with np.unique and np.bincount
    x = 10**4
    p1 = [max((p for p, _ in arith.factorize(n, spf_1e4).factors), default=1) for n in range(1, x + 1)]
    alpha = [weights.evaluate_weight(w, n, spf_1e4) for n in range(1, x + 1)]
    uniq, inv = np.unique(p1, return_inverse=True)
    mass = np.bincount(inv, weights=alpha)
    probs = mass / mass.sum()
    law = experiments.exact_dist(w, x, "largest_prime")
    assert np.array_equal(law.values, uniq.astype(float))
    np.testing.assert_allclose(law.probs, probs, rtol=1e-12, atol=0)
    ratio = experiments.exact_dist(w, x, "largest_ratio")
    np.testing.assert_allclose(ratio.values, [math.log(p) / math.log(x) for p in uniq.tolist()], rtol=1e-15, atol=0)
    np.testing.assert_allclose(ratio.probs, probs, rtol=1e-12, atol=0)
    assert ratio.values[0] == 0.0  # n = 1, p_1 = 1


def test_largest_prime_laws_hold_their_mass_and_a_few_chunks():
    # the law of p_1 has a value per prime up to x: its mass, 8 bytes per
    # value, is allocated once, not regrown at each block; no dense p_1,
    # alpha or value table and no np.unique copy of one (the dense route
    # held 23 chunks besides the mass at 2^23, 54 for largest_ratio).
    # Measured: 2.3 and 3.4 chunks at 2^21 and 2^23
    w = builtin_weight("divisor", k=2.0)
    for x in (2**21, 2**23):
        for name in ("largest_prime", "largest_ratio"):
            extra = extra_bytes(lambda: experiments.exact_dist(w, x, name)) - 8 * (x + 1)
            assert extra < 4 * 8 * CHUNK, (x, name, extra)
