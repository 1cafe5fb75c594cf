"""The blocked table walk against the dense one it replaced, bit for bit.

The dense builders of tests/dense.py make one strided pass per prime power
over the whole range n <= x: p_1, Omega, omega, nu_p, alpha and its prefix
sum.  They are the oracles: the walk's blocks, the draw tables of weights
and the laws the scans stream must equal them exactly, at block and chunk
edges and across several blocks.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dense import (dense_big_omega_table, dense_largest_prime_table, dense_nu_p_table, dense_omega_table,
                   dense_weight_table, joined)
from multweight import arith, experiments, sampling, weights
from multweight.weights import builtin_weight, catalog_weights

B = arith.BLOCK
XS = (0, 1, 2, B - 1, B, B + 1, 2 * B + 7, 10**6)
MANY_XS = (8 * B - 1, 8 * B, 8 * B + 1, 16 * B + 7)  # walks of 8 to 17 blocks, ending at a block edge and past it
CHUNK = weights.CHUNK  # the prefix sum S(y) adds whole chunks of CHUNK entries by math.fsum


# power(0), powerfree(2): alpha(p) = 1; divisor(0.5), divisor(3), theta_omega(0.5): alpha(p) is one
# number other than 1, and divisor(3)'s is no power of 2, so where it is multiplied in shows
WEIGHTS = catalog_weights() + [builtin_weight("power", z=0.0), builtin_weight("divisor", k=0.5),
                               builtin_weight("divisor", k=3.0), builtin_weight("theta_omega", theta=0.5),
                               builtin_weight("sigma", z=-0.5)]


@pytest.fixture(scope="module")
def p1_tables():
    return {x: dense_largest_prime_table(x) for x in XS + MANY_XS}


def test_block_edges_meet_prime_power_multiples():
    # at 1e6 blocks start at 2^18 + 1 = 5 * 13 * 37 * 109 and 2^19 + 1 = 3 * 174763
    # and end at 2^18 and 2^19: the walk must neither miss nor double such a multiple
    walk = arith.Walk(10**6)
    blocks = list(walk)
    on_start = {q for b in blocks[1:] for powers in walk.powers for q, _ in powers
                if arith.strided(np.zeros(1, dtype=np.int8), b.start, np.add, [(q, 1)])[0]}
    assert {3, 5, 13, 37, 109} <= on_start
    assert [b.stop - 1 for b in blocks[:2]] == [2**18, 2**19]


@pytest.mark.parametrize("x", XS + MANY_XS)
def test_statistic_tables_equal_the_dense_walk(x, p1_tables):
    p1, blocks = p1_tables[x], list(arith.Walk(x))
    assert np.array_equal(joined(blocks, lambda b: b.largest_prime), p1)
    for levels, dense in ((None, dense_big_omega_table), (1, dense_omega_table)):
        table = joined(blocks, lambda b: b.count(levels))
        assert table.dtype == np.int8
        assert np.array_equal(table, dense(p1))
    for p in (2, 3, 5, 1009):
        assert np.array_equal(joined(blocks, lambda b: arith.nu_p_table(x, p, b.start, b.stop)), dense_nu_p_table(x, p))


@pytest.mark.parametrize("x", [x for x in XS if x >= 1])
def test_weight_tables_equal_the_dense_walk(x, p1_tables, alpha_of):
    p1 = p1_tables[x]
    for w in WEIGHTS:
        alpha, prefix = dense_weight_table(w, p1)
        assert np.array_equal(alpha_of(w, x), alpha), w.name
        assert np.array_equal(weights.build_weight_table(w, x).prefix, prefix), w.name


def test_alpha_one_at_every_prime_builds_no_cofactors(monkeypatch, p1_tables, alpha_of):
    # under powerfree(2) and power(0) alpha(p) = 1, so the n with a prime
    # factor above sqrt(x) are multiplied by nothing, and nu_p needs no
    # cofactor either: no block builds Block.top
    def no_top(block):
        raise AssertionError("Block.top was built")

    x = MANY_XS[0]
    monkeypatch.setattr(arith.Block, "top", property(no_top))
    nu_2 = dense_nu_p_table(x, 2)
    for w in (builtin_weight("powerfree", k=2), builtin_weight("power", z=0.0)):
        assert w.prime_value == 1.0
        S, ((mass,),) = experiments.scan(w, x, ys=[x], laws=[(experiments.statistic("nu", x, p=2), [x])])
        alpha, prefix = dense_weight_table(w, p1_tables[x])
        assert np.array_equal(alpha_of(w, x), alpha) and S == [prefix[x]], w.name
        assert np.array_equal(mass, np.bincount(nu_2[1:], weights=alpha[1:])), w.name


def test_a_hand_built_weight_with_one_value_at_every_prime_is_evaluated_per_n(alpha_of):
    # the walk cannot see that a hand-built weight's values are one number at
    # every prime: it evaluates them at each cofactor, and the tables equal
    # those of the catalog kind that carries the number
    kind = builtin_weight("divisor", k=3.0)
    seen = []

    def values(ps, k):
        seen.append(int(ps.max(initial=0)))
        return kind.values(ps, k)

    hand = weights.MultiplicativeWeight("hand", kind.regime, values)
    x = 2 * B + 7
    assert hand.prime_value is None and kind.prime_value == 3.0
    assert np.array_equal(alpha_of(hand, x), alpha_of(kind, x))
    assert max(seen) > math.isqrt(x)
    assert np.array_equal(weights.build_weight_table(hand, x).prefix, weights.build_weight_table(kind, x).prefix)


@pytest.mark.parametrize("x", [x for x in XS if x >= 1])
def test_draw_tables_p1_equals_the_dense_p1(x, p1_tables):
    # the draws are factored from the p_1 of the walk that sums their prefix
    p1 = weights.build_weight_table(builtin_weight("power", z=0.0), x).p1
    assert p1.dtype == np.int32
    assert np.array_equal(p1, p1_tables[x])


def test_weight_table_at_x_0_is_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        weights.build_weight_table(builtin_weight("power", z=0.0), 0)


@pytest.mark.parametrize("x, s", [(2000, "inf"), (B - 1, "nan")])
def test_weight_table_past_the_float_range_is_degenerate(x, s):
    # n^100 passes the float range at n = 1210, and S(x) = inf used to pass
    # the S <= 0 check; from p^k = 2^12 on, inf/inf prime-power ratios make it
    # NaN.  The error names the weight, and numpy warns of none of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"power\\(100\\): degenerate table: S\\({x}\\) = {s} is not positive and finite"):
            weights.build_weight_table(builtin_weight("power", z=100.0), x)


PIECE = weights.PIECE  # S_at sums a chunk's part PIECE entries at a time, carrying the running sum
CHUNK_YS = (0, 1, 2, PIECE - 1, PIECE, PIECE + 1, CHUNK - 1, CHUNK, CHUNK + 1,
            CHUNK + PIECE - 1, CHUNK + PIECE, CHUNK + PIECE + 1, 2 * CHUNK, 2 * CHUNK + 5)


@pytest.fixture(scope="module")
def p1_chunks():
    return dense_largest_prime_table(2 * CHUNK + 5)


def test_S_at_and_sub_tables_equal_the_dense_prefix_at_chunk_edges(p1_chunks, alpha_of):
    x = len(p1_chunks) - 1
    for w in catalog_weights():
        table = weights.build_weight_table(w, x).prefix
        alpha, prefix = dense_weight_table(w, p1_chunks)
        assert np.array_equal(alpha_of(w, x), alpha), w.name
        assert np.array_equal(table, prefix), w.name
        # the walk's S(y), read as it passes y (the last is x)
        S, _ = experiments.scan(w, x, ys=list(CHUNK_YS))
        assert S == [prefix[y] for y in CHUNK_YS], w.name
        # a table cut at 2^20 + 1 from this one equals one built there
        y = CHUNK + 1
        sub, direct = table[: y + 1], weights.build_weight_table(w, y).prefix
        assert np.array_equal(sub, direct), w.name
        assert np.array_equal(direct, prefix[: y + 1]), w.name


def test_weight_table_whose_chunk_totals_sum_past_the_float_range_is_degenerate():
    # theta^omega(n) with theta = 6e43: the totals of the first two chunks are
    # finite, their sum is not, and math.fsum raised OverflowError on it
    w = builtin_weight("theta_omega", theta=6e43)
    assert 0 < weights.build_weight_table(w, CHUNK + 1).prefix[-1] < math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"theta_omega\\(6e\\+43\\): degenerate table: S\\({2 * CHUNK + 5}\\) = inf"):
            weights.build_weight_table(w, 2 * CHUNK + 5)


def extra_bytes(build):
    """Peak bytes a call allocates besides the tables it returns (draw tables: p_1 and the prefix sum; a law: none)."""
    tracemalloc.start()
    out = build()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak - (out.p1.nbytes + out.prefix.nbytes if isinstance(out, weights.DrawTables) else 0)


def test_builders_hold_one_block_besides_their_output():
    # what the draw tables' builder allocates besides p_1 and the prefix sum
    # must not grow with x: a whole-range temporary (a cofactor array, a
    # big-prime mask, alpha beside its prefix sum) would add at least one
    # byte per entry, 12 * B bytes from 4 * B to 16 * B
    w = builtin_weight("sigma", z=1.0)
    small, large = (extra_bytes(lambda: weights.build_weight_table(w, x)) for x in (4 * B, 16 * B))
    assert large - small < B
    # the prefix sum is alpha summed in place: at most a chunk besides the walk's blocks
    assert large < 8 * CHUNK + 8 * B


def test_draw_ops_hold_their_tables_and_draws_and_a_chunk():
    # besides their draw tables and the arrays of n entries they hold by design
    # (sample: the draws it returns, 8 bytes each; spectrum_draws: its draws and
    # the k = 3 floats per draw it returns, 32; gamma_law_ks: 16, the draws and
    # their log values while factoring, then the values and their sorted copy
    # for the KS statistic), the draw ops hold one sampler chunk (DRAW_CHUNK
    # draws), one factor block (FACTOR_BLOCK draws) and one KS chunk: nothing
    # that grows with n.  A whole-array argsort, a 2^16-row factor matrix or a
    # concatenation of the per-block results would add several bytes per draw
    # from n = 2^17 to 2^20
    x = 2**20
    w = builtin_weight("power", z=0.0)
    tables = weights.build_weight_table(builtin_weight("poly_log", K=1.0, gamma=1.0), x)
    held = tables.p1.nbytes + tables.prefix.nbytes  # a draw op's own tables, as large as these
    ops = {
        "sample": (lambda n: experiments.sample(w, x, n, 1), held, 8),
        "spectrum_draws": (lambda n: experiments.spectrum_draws(w, x, n, np.random.default_rng(1), 3), held, 8 + 8 * 3),
        "gamma_law_ks": (lambda n: experiments.gamma_law_ks(tables, 1.0, 1.0, n, np.random.default_rng(1)), 0, 8 + 8),
    }
    for name, (run, table_bytes, per_draw) in ops.items():
        run(2**10)  # imports and first-call caches, outside the measurement
        small, large = (extra_bytes(lambda: run(n)) - table_bytes - per_draw * n for n in (2**17, 2**20))
        assert large - small < 2**20, (name, small, large)
        # no more than the draw tables' builder holds besides its tables
        assert max(small, large) < 8 * CHUNK + 8 * B, (name, small, large)


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
    p1 = dense_largest_prime_table(x)
    stats = [("omega", {}, dense_omega_table(p1)), ("big_omega", {}, dense_big_omega_table(p1)),
             ("nu", {"p": 2}, dense_nu_p_table(x, 2)), ("nu", {"p": 3}, dense_nu_p_table(x, 3))]
    stats += [("smooth", {"u": a / b}, (p1 <= smooth_root(x, a, b)).astype(np.int8)) for a, b in SMOOTH_US]
    laws = [(experiments.statistic(name, x, **kw), [x]) for name, kw, _ in stats]
    ys = [0, 1, 2, 777, B + 12345, 3 * B + 5, x // 2 + 3, x - 1, x]  # mid-block, and both ends
    for w in catalog_weights():
        table, alpha = weights.build_weight_table(w, x).prefix, alpha_of(w, x)
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
    om = dense_big_omega_table(p1_chunks)
    for w in catalog_weights():
        alpha = alpha_of(w, x)
        laws = [(experiments.statistic("big_omega", x), ys)]
        laws += [(experiments.statistic("smooth", y, u=2.0), [y]) for y in ys]
        _, (omegas, *smooths) = experiments.scan(w, x, laws=laws)
        for y, mass, (smooth,) in zip(ys, omegas, smooths):
            sub = alpha[: y + 1]
            assert same_law(sampling.exact_pmf_from_mass(mass), bincount_law(sub, om[: y + 1]))
            dense = (p1_chunks[: y + 1] <= math.isqrt(y)).astype(np.int8)
            assert same_law(sampling.exact_pmf_from_mass(smooth), bincount_law(sub, dense))


@pytest.mark.parametrize("x", [1, 2, 3, 10**4, 10**6, CHUNK + 1])
def test_streamed_joint_law_equals_joint_pmf_from_values(x, alpha_of):
    # the oracle is the dense route that joint_pmf_from_values was: np.bincount
    # of the codes nu_2 kb + nu_3 over whole rows of kb, normalized.  At 1e6 the
    # mass of power(0.5) sums to another float without those trailing zeros
    values, kb = experiments.joint_nu(x, 2, 3)
    nu2, nu3 = dense_nu_p_table(x, 2)[1:].astype(np.int64), dense_nu_p_table(x, 3)[1:].astype(np.int64)
    for w in catalog_weights():
        alpha = alpha_of(w, x)
        _, ((mass,),) = experiments.scan(w, x, laws=[(values, [x])])
        dense = np.bincount(nu2 * kb + nu3, weights=alpha[1:], minlength=(int(nu2.max()) + 1) * kb)
        got, want = (np.concatenate([m, np.zeros(-len(m) % kb)]) for m in (mass, dense))
        assert np.array_equal(got / got.sum(), want / want.sum()), (w.name, x)


def test_streamed_scan_holds_a_few_chunks():
    # the scan holds one CHUNK of alpha and the temporaries of a block or two
    # (the int32 cofactors of the last block and the next, being built; S(x)
    # and the cofactor step take PIECE entries at a time); nothing that grows
    # with x but the walk's lists of the prime powers of the primes up to
    # sqrt(x).  Measured: 11.4 MiB at 2^21 and 2^23
    w = builtin_weight("divisor", k=2.0)
    extra = [extra_bytes(lambda: experiments.exact_dist(w, x, "big_omega"))
             for x in (2**21, 2**23)]
    assert max(extra) < 8 * CHUNK + 20 * B
    prime_powers = sum(len(level) for level in arith.Walk(2**23).levels)
    assert extra[1] - extra[0] < 128 * prime_powers


def test_streamed_largest_prime_laws_equal_the_dense_route(alpha_of):
    # past CHUNK values the mass is allocated at x + 1 entries; the law ends at
    # the largest prime up to x (x = 127 * 9721 here), as np.bincount's does.
    # largest_ratio bins the float atoms log p/log x by p, as np.unique ranks them
    x = 1_234_567
    p1 = dense_largest_prime_table(x)
    ratios = np.log(p1[1:]) / math.log(x)
    uniq, inv = np.unique(ratios, return_inverse=True)
    for w in catalog_weights():
        alpha = alpha_of(w, x)
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


def test_scan_experiments_hold_memory_bounded_at_2_pow_23():
    # every scan-family experiment holds the walk's blocks and the CHUNK-entry
    # alpha buffer (8 MiB), not an array of x entries; conditions sums over
    # the prime sieve's segments and holds less than any walk.  Measured at
    # 2^23: 8.9-12.4 MiB for the walk ops; 3.5 MiB for conditions, which
    # held 21.5 MiB when it sieved all of n <= x at once
    x = 2**23
    w = builtin_weight("divisor", k=2.0)
    walks = {
        "sieve-sum": lambda: experiments.sieve_sum(w, [x // 4, x], 10**4),
        "exact-dist": lambda: experiments.exact_dist(w, x, "big_omega"),
        "ek-compare": lambda: experiments.omega_clt_ks(w, [x // 4, x]),
        "smooth": lambda: experiments.smooth(w, x, [1.5, 2.0, 3.0], 0.01),
        "small-prime": lambda: experiments.small_prime(builtin_weight("powerfree", k=2), x, [2, 3, 5]),
        "poly-asym": lambda: experiments.poly_asym(1.0, 1.0, [x // 4, x], 10**4),
    }
    peaks = {name: extra_bytes(run) for name, run in walks.items()}
    for name, peak in peaks.items():
        assert peak < 14 * 2**20, (name, peak)
    conditions = extra_bytes(lambda: experiments.conditions(w, [10**4, x]))
    assert conditions < 4 * arith.SEGMENT, conditions
    assert conditions < min(peaks.values()), (conditions, peaks)


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
