"""The experiments, each computed by one function.

Every function takes its parameters and returns its numbers.  The exact
laws, sums and means reduce one walk over n <= x as it goes (scan) and
build no table; a draw op builds its two dense tables, p_1 and the prefix
sum, from one walk (weights.build_weight_table), on which poly_typical also
bins its law of Omega.
`cli` writes the numbers as CSV/JSON reports and `harness` applies
tolerances to them, so both read the same computation.
"""

from __future__ import annotations

import math

import numpy as np

from . import arith, asympt, limitlaws, permutations, sampling, weights

STATISTICS = ("omega", "big_omega", "nu", "largest_prime", "largest_ratio", "smooth")
SCALES = ("desk", "selftest", "extended")  # the sizes of harness's acceptance cases, which cli lists


def statistic(name: str, x: int, p: int = 2, u: float = 2.0):
    """The values of a factorization statistic of n <= x on one block of a walk (arith.Block).

    omega, big_omega and nu (nu_p for a prime p) are int8 counts;
    largest_prime is p_1 (p_1(1) = 1); largest_ratio is log p_1/log x
    (x >= 2); smooth is 1 where p_1^u <= x, int8.
    """
    if name not in STATISTICS:
        raise ValueError(f"unknown statistic {name!r}; known: {STATISTICS}")
    if name == "largest_ratio":
        if x < 2:
            raise ValueError(f"largest_ratio needs x >= 2, got x={x}")
        return lambda b: np.log(b.largest_prime) / math.log(x)
    if name == "smooth":
        if not 0 < u < math.inf:
            raise ValueError(f"smoothness parameter u must be positive and finite, got {u}")
        y = x  # at u <= 1 every n <= x is smooth, and the float root can overflow
        if u > 1:  # the largest y with y^u <= x; 343^(1/3) reads 6.999...
            y = math.floor(x ** (1.0 / u))
            with np.errstate(over="ignore"):  # (y+1)^u may pass the float range at large u
                if np.float_power(y + 1, u) <= x:
                    y += 1
                elif np.float_power(y, u) > x:
                    y -= 1
        return lambda b: (b.largest_prime <= y).astype(np.int8)
    if name == "nu":
        arith.require_prime(p)
        return lambda b: arith.nu_p_table(x, p, b.start, b.stop)
    if name == "largest_prime":
        return lambda b: b.largest_prime
    return lambda b: b.count(1 if name == "omega" else None)


def joint_nu(x: int, p: int, q: int):
    """The values nu_p(n) k + nu_q(n) of n <= x on one block, k = 1 + the largest
    nu_q(n), n <= x, and k: a law of them, in rows of k, is the (nu_p, nu_q) table."""
    k = 1
    while q**k <= x:
        k += 1

    def values(b):
        nu_p, nu_q = (arith.nu_p_table(x, r, b.start, b.stop) for r in (p, q))
        return nu_p.astype(np.int64) * k + nu_q

    return values, k


def scan(w: weights.MultiplicativeWeight, x: int, ys: list[int] = (), laws: list = ()):
    """One walk over n <= x under w, reduced block by block: no array of x entries.

    Returns S(y) for each y in ys, 0 <= y <= x, read as the walk passes y
    (weights.AlphaWalk carries its running sum only through the chunks that
    hold a y or x), and for each law (values, stops), values as from
    `statistic`, the alpha-mass of each value over n <= stop for each stop
    <= x: an array indexed by value up to the largest value met, added in n
    order as np.bincount adds it.  A law at a stop below x is a copy taken as the
    walk passes it; at x it is the mass itself.  Raises ValueError where
    S(x) is not positive and finite.
    """
    masses, at = [weights.Mass(x) for _ in laws], [{} for _ in laws]
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range, S(x) below is inf or NaN
        walk = weights.AlphaWalk(w, x, ys)
        for b, a in walk:
            for law, (values, stops), at_stop in zip(masses, laws, at):
                if b.start > max(stops):
                    continue
                v, lo = values(b), 0
                for hi in sorted(y + 1 - b.start for y in stops if b.start <= y < min(b.stop, x)):
                    law.add(v[lo:hi], a[lo:hi])  # the law at a stop: split the block there
                    at_stop[b.start + hi - 1], lo = law.mass.copy(), hi
                law.add(v[lo:], a[lo:])
            b = v = None  # the last block's cofactors go before the next block's are built
        weights.check_S(w, x, walk.S[x])
    return [walk.S[y] for y in ys], [[law.mass if y == x else at_stop[y] for y in stops]
                                for law, (_, stops), at_stop in zip(masses, laws, at)]


def exact_laws(w: weights.MultiplicativeWeight, x: int, laws: list) -> list[list[sampling.ExactPmf]]:
    """The exact law of each (values, stops) over n <= each stop, from one scan."""
    return [[sampling.exact_pmf_from_mass(m) for m in ms] for ms in scan(w, x, laws=laws)[1]]


def atom_gaps(a: sampling.ExactPmf, b: sampling.ExactPmf) -> list[float]:
    """|P_a(k) - P_b(k)| for k = 0..largest atom of either law."""
    top = int(max(a.values.max(), b.values.max()))
    return [abs(a.prob_of(k) - b.prob_of(k)) for k in range(top + 1)]


# --------------------------------------------------------------------------
# mean values and weight hypotheses
# --------------------------------------------------------------------------


def sieve_sum(w: weights.MultiplicativeWeight, xs: list[int], cutoff: int) -> list[dict]:
    """Exact S(x) against the Euler-product (Ewens) or saddle-point (poly) predictor."""
    if min(xs) < 2:
        raise ValueError(f"the predictors of S(x) need x >= 2, got x={min(xs)}")
    exact, _ = scan(w, max(xs), ys=xs)
    if isinstance(w.regime, weights.EwensRegime):
        a = asympt.euler_constant(w, cutoff=cutoff)
        preds = [asympt.predict_S_ewens(a, x) for x in xs]
    else:
        preds = [asympt.predict_S_poly(w.poly().K, w.poly().gamma, x, cutoff) for x in xs]
    return [{"x": x, "exact": e, "predicted": pred, "ratio": e / pred} for x, e, pred in zip(xs, exact, preds)]


def conditions(w: weights.MultiplicativeWeight, xs: list[int]) -> dict:
    res = weights.condition_I_residuals(w, xs)
    return {
        "condition_I_residuals": [{"x": x, "residual": r} for x, r in res],
        "condition_II_margin": weights.condition_II_margin(w, p_max=min(10**4, max(xs))),
    }


def poly_asym(K: float, gamma: float, xs: list[int], cutoff: int) -> list[dict]:
    """Exact S(x) under poly_log(K, gamma) against the saddle-point predictor solved at each x."""
    if min(xs) < 3:
        raise ValueError(f"the saddle point of S(x) needs x >= 3, got x={min(xs)}")
    exact, _ = scan(weights.builtin_weight("poly_log", K=K, gamma=gamma), max(xs), ys=xs)
    rows = []
    for x, e in zip(xs, exact):
        sigma, residual = asympt.solve_saddle(K, gamma, x, prime_cutoff=cutoff)
        pred = asympt.predict_S_poly(K, gamma, x, cutoff)
        rows.append({"x": x, "sigma": sigma, "residual": residual, "exact": e, "predicted": pred,
                     "ratio": e / pred})
    return rows


# --------------------------------------------------------------------------
# exact laws of factorization statistics
# --------------------------------------------------------------------------


def exact_dist(w: weights.MultiplicativeWeight, x: int, name: str, p: int = 2, u: float = 2.0) -> sampling.ExactPmf:
    values = statistic(name, x, p=p, u=u)  # checks the input
    if name != "largest_ratio":
        return exact_laws(w, x, [(values, [x])])[0][0]
    # float atoms log p/log x, binned by the prime p: the law of p_1 with its atoms mapped
    ((mass,),) = scan(w, x, laws=[(statistic("largest_prime", x), [x])])[1]
    p1 = np.flatnonzero(mass)
    mass = mass[p1]
    return sampling.ExactPmf(np.log(p1) / math.log(x), mass / mass.sum())


def omega_clt_ks(w: weights.MultiplicativeWeight, xs: list[int]) -> list[float]:
    """KS distance of (Omega - c)/sqrt(c), c = theta log log x, to N(0,1), exactly at each x."""
    if min(xs) < 3:
        raise ValueError(f"(Omega - c)/sqrt(c), c = theta log log x, needs x >= 3, got x={min(xs)}")
    theta = w.ewens().theta
    out = []
    for x, pmf in zip(xs, exact_laws(w, max(xs), [(statistic("big_omega", max(xs)), xs)])[0]):
        c = theta * math.log(math.log(x))
        out.append(limitlaws.ks_distance(pmf.affine(c, math.sqrt(c)), limitlaws.normal_cdf))
    return out


def smooth(w: weights.MultiplicativeWeight, x: int, us: list[float], step: float) -> list[dict]:
    """Exact smoothness probabilities P(p_1(N) <= x^(1/u)) at x against rho_theta(u)."""
    # each u and the step are checked before any table is walked
    laws = [(statistic("smooth", x, u=u), [x]) for u in us]
    sol = limitlaws.dickman_rho(w.ewens().theta, max(max(us), 1.0) + 1e-9, h=step)
    return [{"u": u, "exact": pmfs[0].prob_of(1.0), "rho": sol.rho(u)} for u, pmfs in zip(us, exact_laws(w, x, laws))]


def small_prime(w: weights.MultiplicativeWeight, x: int, ps: list[int]) -> list[dict]:
    """Per-atom gaps of the exact nu_p laws at x to their limit laws."""
    rows = []
    for p, (exact,) in zip(ps, exact_laws(w, x, [(statistic("nu", x, p=p), [x]) for p in ps])):
        limit = sampling.nu_p_limit_pmf(w, p)
        rows += [{"p": p, "k": k, "exact": exact.prob_of(k), "limit": limit.prob_of(k), "gap": gap}
                 for k, gap in enumerate(atom_gaps(exact, limit))]
    return rows


def mean_big_omega(w: weights.MultiplicativeWeight, xs: list[int]) -> list[float]:
    """Exact E Omega(N) under w's measure on n <= x, for each x in xs, from one scan."""
    return [pmf.mean() for pmf in exact_laws(w, max(xs), [(statistic("big_omega", max(xs)), xs)])[0]]


# --------------------------------------------------------------------------
# sampled experiments
# --------------------------------------------------------------------------


def sample(w: weights.MultiplicativeWeight, x: int, n: int, seed: int) -> np.ndarray:
    prefix = weights.build_weight_table(w, x).prefix
    return sampling.WeightedIntegerSampler(prefix, np.random.default_rng(seed)).sample(n)


FACTOR_BLOCK = 1 << 12  # draws per block of a per-draw statistic; its factor matrix is <= 0.85 MB to x = 1e8


def _in_blocks(draws: np.ndarray, stat, out: np.ndarray) -> np.ndarray:
    """out[i] = the row of draw i in stat(block), over blocks of FACTOR_BLOCK draws in draw order."""
    for i in range(0, len(draws), FACTOR_BLOCK):
        out[i : i + FACTOR_BLOCK] = stat(draws[i : i + FACTOR_BLOCK])
    return out


def spectrum_draws(w: weights.MultiplicativeWeight, x: int, n: int, rng: np.random.Generator,
                   k: int) -> np.ndarray:
    """log p_j/log x for j = 1..k of n draws from the measure on n <= x, one row per draw."""
    if x < 2:
        raise ValueError(f"log p/log x needs x >= 2, got x={x}")
    tables = weights.build_weight_table(w, x)
    draws = sampling.WeightedIntegerSampler(tables.prefix, rng).sample(n)
    return _in_blocks(draws, lambda d: sampling.spectrum(d, tables.p1, x, k), np.empty((n, k)))


def pd_compare(w: weights.MultiplicativeWeight, x: int, n: int, oracle_draws: int, seed: int) -> list[dict]:
    """Mean of the three largest log-prime ratios against the PD(theta) parts."""
    theta = w.ewens().theta
    coords = spectrum_draws(w, x, n, np.random.default_rng(seed), 3)
    oracle = limitlaws.pd_largest_part_means(theta, np.random.default_rng(seed + 1), oracle_draws)
    return [{"stat": f"coord_{j + 1}_mean", "sample": float(coords[:, j].mean()),
             "pd_oracle": float(oracle[j])} for j in range(3)]


def gamma_law_ks(tables: weights.DrawTables, K: float, gamma: float, n: int, rng: np.random.Generator) -> float:
    """KS distance of log P / log^(1/(gamma+1)) x, P a size-biased prime of n
    draws from the tables of n <= x, to its gamma law under poly_log(K,
    gamma); log P = 0 for a draw n = 1.

    The integers are drawn first, then one uniform per draw n > 1 in draw order.
    """
    x = len(tables.prefix) - 1
    # the draws are held only while they are factored
    vals = _in_blocks(sampling.WeightedIntegerSampler(tables.prefix, rng).sample(n),
                      lambda d: sampling.size_biased_prime(arith.factor_matrix(d, tables.p1), rng)[1], np.empty(n))
    vals /= math.log(x) ** (1.0 / (gamma + 1.0))
    shape, rate = asympt.gamma_law_params(K, gamma)
    return limitlaws.ks_distance(vals, lambda t: limitlaws.gamma_cdf(shape, rate, t))


def poly_typical(K: float, gamma: float, x: int, n: int, seed: int) -> dict:
    if x < 2:
        raise ValueError(f"log P/log^(1/(gamma+1)) x needs x >= 2, got x={x}")
    w = weights.builtin_weight("poly_log", K=K, gamma=gamma)
    tables = weights.build_weight_table(w, x, statistic("big_omega", x))  # E Omega from the same walk
    eo = sampling.exact_pmf_from_mass(tables.mass).mean()
    pred = asympt.predict_mean_omega_poly(K, gamma, x)
    shape, rate = asympt.gamma_law_params(K, gamma)
    ks = gamma_law_ks(tables, K, gamma, n, np.random.default_rng(seed))
    return {"mean_omega_exact": eo, "mean_omega_predicted": pred, "ratio": eo / pred,
            "gamma_law": {"shape": shape, "rate": rate}, "ks": ks}


# --------------------------------------------------------------------------
# permutations and rho_theta
# --------------------------------------------------------------------------


def cycle_weights(n: int, theta: float, poly_gamma: float | None) -> permutations.CycleWeights:
    """Polynomial cycle weights when poly_gamma is given, else constant theta."""
    if poly_gamma is not None:
        return permutations.poly_weights(poly_gamma, n)
    return permutations.constant_weights(n, theta)


def cycle_types(w: permutations.CycleWeights, samples: int, seed: int) -> permutations.CycleLengths:
    """Ewens(theta) draws by the Feller coupling, others from the partition table."""
    rng = np.random.default_rng(seed)
    if np.all(w.theta == w.theta[0]):
        return permutations.ewens_cycle_lengths(w.n, float(w.theta[0]), rng, samples)
    return permutations.sample_cycle_types(w, permutations.partition_function(w), rng, samples)


def dickman(theta: float, umax: float, step: float) -> tuple[limitlaws.DickmanSolution, dict]:
    sol = limitlaws.dickman_rho(theta, umax, h=step)
    return sol, {
        "rho": {f"{u:g}": sol.rho(float(u)) for u in np.arange(1, int(umax) + 1)},
        "max_residual": float(sol.residuals().max()),
        "grid_points": len(sol.grid),
    }
