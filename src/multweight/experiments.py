"""The experiments, each computed by one function.

Every function takes a Context (the table cache) and its parameters and
returns its numbers.  `cli` writes them as CSV/JSON reports and `harness`
applies tolerances to them, so both read the same computation.
"""

from __future__ import annotations

import math

import numpy as np

from . import arith, asympt, limitlaws, permutations, sampling, weights

STATISTICS = ("omega", "big_omega", "nu", "largest_prime", "largest_ratio", "smooth")


class Context:
    """Lazily built tables shared by the experiments of one run.

    One p_1 table, grown to the largest range asked for, and the statistic
    tables built from it are kept and served as prefixes.  Weight tables
    are built from it and not kept: each lives as long as the experiment
    that holds it.
    """

    def __init__(self):
        self._p1: np.ndarray | None = None
        self._stat: dict[tuple[str, int], np.ndarray] = {}

    def p1(self, x: int) -> np.ndarray:
        """p_1(n) for n = 0..x, a prefix of the kept table."""
        if self._p1 is None or len(self._p1) <= x:
            # looked up at call time, so the arith.*_table functions can be wrapped
            self._p1 = arith.largest_prime_table(x)
        return self._p1[: x + 1]

    def statistic(self, name: str, x: int, p: int = 2, u: float = 2.0) -> np.ndarray:
        """Values of a factorization statistic for n = 0..x.

        omega, big_omega and nu (nu_p for a prime p) are built over the whole
        p_1 range and kept; largest_prime is p_1 itself (p_1(1) = 1);
        largest_ratio (log p_1/log x, x >= 2) and smooth (1 where
        p_1^u <= x) are derived from p_1 on each call.
        """
        if name == "largest_ratio":
            if x < 2:
                raise ValueError(f"largest_ratio needs x >= 2, got x={x}")
            with np.errstate(divide="ignore"):
                out = np.log(self.p1(x)) / math.log(x)
            out[0] = 0.0
            return out
        if name == "smooth":
            if u <= 0:
                raise ValueError(f"smoothness parameter u must be positive, got {u}")
            y = x  # at u <= 1 every n <= x is smooth, and the float root can overflow
            if u > 1:  # the largest y with y^u <= x; 343^(1/3) reads 6.999...
                y = math.floor(x ** (1.0 / u))
                with np.errstate(over="ignore"):  # (y+1)^u may pass the float range at large u
                    if np.float_power(y + 1, u) <= x:
                        y += 1
                    elif np.float_power(y, u) > x:
                        y -= 1
            return (self.p1(x) <= y).astype(np.int8)
        if name not in STATISTICS:
            raise ValueError(f"unknown statistic {name!r}; known: {STATISTICS}")
        if name == "largest_prime":
            return self.p1(x)
        key = (name, p if name == "nu" else 0)
        arr = self._stat.get(key)
        if arr is None or len(arr) <= x:
            self.p1(x)  # grows the kept p_1 table to x; the tables span all of it
            arr = arith.nu_p_table(len(self._p1) - 1, p) if name == "nu" else getattr(arith, f"{name}_table")(self._p1)
            self._stat[key] = arr
        return arr[: x + 1]

    def weight_table(self, w: weights.MultiplicativeWeight, x: int) -> weights.WeightTable:
        return weights.build_weight_table(w, self.p1(x))


def sub_table(table: weights.WeightTable, x: int) -> weights.WeightTable:
    """The table for a smaller range, as a view of a larger one's alpha."""
    return weights.WeightTable(x=x, alpha=table.alpha[: x + 1])


def atom_gaps(a: sampling.ExactPmf, b: sampling.ExactPmf) -> list[float]:
    """|P_a(k) - P_b(k)| for k = 0..largest atom of either law."""
    top = int(max(a.values.max(), b.values.max()))
    return [abs(a.prob_of(k) - b.prob_of(k)) for k in range(top + 1)]


# --------------------------------------------------------------------------
# mean values and weight hypotheses
# --------------------------------------------------------------------------


def sieve_sum(ctx: Context, w: weights.MultiplicativeWeight, xs: list[int], cutoff: int) -> list[dict]:
    """Exact S(x) against the Euler-product (Ewens) or saddle-point (poly) predictor."""
    table = ctx.weight_table(w, max(xs))
    if isinstance(w.regime, weights.EwensRegime):
        a = asympt.euler_constant(w, cutoff=cutoff)
        preds = [asympt.predict_S_ewens(a, x) for x in xs]
    else:
        saddle = asympt.solve_saddle(w.poly().K, w.poly().gamma, max(xs), prime_cutoff=cutoff)
        preds = [asympt.predict_S_poly(saddle, x) for x in xs]
    return [{"x": x, "exact": table.S_at(x), "predicted": pred, "ratio": table.S_at(x) / pred}
            for x, pred in zip(xs, preds)]


def conditions(ctx: Context, w: weights.MultiplicativeWeight, xs: list[int]) -> dict:
    res = weights.condition_I_residuals(w, xs)
    return {
        "condition_I_residuals": [{"x": x, "residual": r} for x, r in res],
        "condition_II_margin": weights.condition_II_margin(w, p_max=min(10**4, max(xs))),
    }


def poly_asym(ctx: Context, K: float, gamma: float, xs: list[int], cutoff: int) -> list[dict]:
    """Exact S(x) under poly_log(K, gamma) against the saddle-point predictor solved at each x."""
    table = ctx.weight_table(weights.builtin_weight("poly_log", K=K, gamma=gamma), max(xs))
    rows = []
    for x in xs:
        s = asympt.solve_saddle(K, gamma, x, prime_cutoff=cutoff)
        pred = asympt.predict_S_poly(s, x)
        rows.append({"x": x, "sigma": s.sigma, "residual": s.residual, "exact": table.S_at(x),
                     "predicted": pred, "ratio": table.S_at(x) / pred})
    return rows


# --------------------------------------------------------------------------
# exact laws of factorization statistics
# --------------------------------------------------------------------------


def exact_dist(ctx: Context, w: weights.MultiplicativeWeight, x: int, statistic: str,
               p: int = 2, u: float = 2.0) -> sampling.ExactPmf:
    table = ctx.weight_table(w, x)
    return sampling.exact_pmf_from_values(table, ctx.statistic(statistic, x, p=p, u=u))


def omega_clt_ks(ctx: Context, w: weights.MultiplicativeWeight, xs: list[int]) -> list[float]:
    """KS distance of (Omega - c)/sqrt(c), c = theta log log x, to N(0,1), exactly at each x."""
    theta = w.ewens().theta
    table = ctx.weight_table(w, max(xs))
    out = []
    for x in xs:
        pmf = sampling.exact_pmf_from_values(sub_table(table, x), ctx.statistic("big_omega", x))
        c = theta * math.log(math.log(x))
        out.append(limitlaws.ks_distance(pmf.affine(c, math.sqrt(c)), limitlaws.normal_cdf))
    return out


def smooth_probability(ctx: Context, table: weights.WeightTable, u: float) -> float:
    """Exact P(p_1(N) <= x^(1/u)) under the table's measure on n <= x."""
    smooth = ctx.statistic("smooth", table.x, u=u)
    return sampling.exact_pmf_from_values(table, smooth).prob_of(1.0)


def smooth(ctx: Context, w: weights.MultiplicativeWeight, x: int, us: list[float], step: float) -> list[dict]:
    """Exact smoothness probabilities at x against rho_theta(u)."""
    # solved first: it rejects a bad step before any table is built
    sol = limitlaws.dickman_rho(w.ewens().theta, max(max(us), 1.0) + 1e-9, h=step)
    table = ctx.weight_table(w, x)
    exact = [smooth_probability(ctx, table, u) for u in us]
    return [{"u": u, "exact": e, "rho": sol.rho(u)} for u, e in zip(us, exact)]


def nu_p_pmf(ctx: Context, table: weights.WeightTable, p: int) -> sampling.ExactPmf:
    """Exact law of nu_p(N) under the table's measure."""
    return sampling.exact_pmf_from_values(table, ctx.statistic("nu", table.x, p=p))


def small_prime(ctx: Context, w: weights.MultiplicativeWeight, x: int, ps: list[int]) -> list[dict]:
    """Per-atom gaps of the exact nu_p laws at x to their limit laws."""
    table = ctx.weight_table(w, x)
    rows = []
    for p in ps:
        exact = nu_p_pmf(ctx, table, p)
        limit = sampling.nu_p_limit_pmf(w, p)
        rows += [{"p": p, "k": k, "exact": exact.prob_of(k), "limit": limit.prob_of(k), "gap": gap}
                 for k, gap in enumerate(atom_gaps(exact, limit))]
    return rows


def mean_big_omega(ctx: Context, table: weights.WeightTable) -> float:
    """Exact E Omega(N) under the table's measure."""
    om = ctx.statistic("big_omega", table.x)
    return float(np.dot(om[1:].astype(float), table.alpha[1:])) / table.S


# --------------------------------------------------------------------------
# sampled experiments
# --------------------------------------------------------------------------


def sample(ctx: Context, w: weights.MultiplicativeWeight, x: int, n: int, seed: int) -> np.ndarray:
    table = ctx.weight_table(w, x)
    return sampling.WeightedIntegerSampler(table, np.random.default_rng(seed)).sample(n)


def _factor_blocks(draws: np.ndarray, p1: np.ndarray):
    """Factor matrices of the draws 2^16 at a time, in draw order, from the p_1
    table they were drawn over; one has at most 26 int64 columns up to x = 1e8,
    about 14 MB."""
    return (arith.factor_matrix(draws[i : i + 2**16], p1) for i in range(0, len(draws), 2**16))


def spectrum_draws(ctx: Context, w: weights.MultiplicativeWeight, x: int, n: int,
                   rng: np.random.Generator, k: int) -> np.ndarray:
    """log p_j/log x for j = 1..k of n draws from the measure on n <= x, one row per draw."""
    draws = sampling.WeightedIntegerSampler(ctx.weight_table(w, x), rng).sample(n)
    return np.concatenate([sampling.spectrum(f, x, k) for f in _factor_blocks(draws, ctx.p1(x))])


def pd_compare(ctx: Context, w: weights.MultiplicativeWeight, x: int, n: int, oracle_draws: int,
               seed: int) -> list[dict]:
    """Mean of the three largest log-prime ratios against the PD(theta) parts."""
    theta = w.ewens().theta
    coords = spectrum_draws(ctx, w, x, n, np.random.default_rng(seed), 3)
    oracle = limitlaws.pd_largest_part_means(theta, np.random.default_rng(seed + 1), oracle_draws)
    return [{"stat": f"coord_{j + 1}_mean", "sample": float(coords[:, j].mean()),
             "pd_oracle": float(oracle[j])} for j in range(3)]


def gamma_law_ks(ctx: Context, table: weights.WeightTable, K: float, gamma: float, n: int,
                 rng: np.random.Generator) -> float:
    """KS distance of log P / log^(1/(gamma+1)) x, P a size-biased prime of n
    draws, to its gamma law under poly_log(K, gamma); log P = 0 for a draw n = 1.

    The integers are drawn first, then one uniform per draw n > 1 in draw order.
    """
    draws = sampling.WeightedIntegerSampler(table, rng).sample(n)
    ps = np.concatenate([sampling.size_biased_prime(f, rng) for f in _factor_blocks(draws, ctx.p1(table.x))])
    vals = sampling.prime_logs(ps) / math.log(table.x) ** (1.0 / (gamma + 1.0))
    shape, rate = asympt.gamma_law_params(K, gamma)
    return limitlaws.ks_distance(vals, lambda t: limitlaws.gamma_cdf(shape, rate, t))


def poly_typical(ctx: Context, K: float, gamma: float, x: int, n: int, seed: int) -> dict:
    table = ctx.weight_table(weights.builtin_weight("poly_log", K=K, gamma=gamma), x)
    eo = mean_big_omega(ctx, table)
    pred = asympt.predict_mean_omega_poly(K, gamma, x)
    shape, rate = asympt.gamma_law_params(K, gamma)
    ks = gamma_law_ks(ctx, table, K, gamma, n, np.random.default_rng(seed))
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
