"""Acceptance harness: every criterion as a deterministic, seeded check.

Each case maps one acceptance criterion to concrete computations with
pinned tolerances and fixed seeds; the experiments the CLI also runs come
from `experiments`, so a case adds only its sizes, seeds, references and
tolerances.  run_all executes a scale tier:

* desk: the criteria at their stated sizes (x up to 10^7), < 10 minutes.
* selftest: scaled-down sizes for a < 5 minute smoke run.
* extended: desk plus a 10^8 sieve exactness case (manual tier).

Verdicts are deterministic: no case reads the clock or an unseeded
generator.  Results serialize to a JUnit-style XML file for machines and
one pass/fail line per case for humans.
"""

from __future__ import annotations

import math
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import arith, asympt, experiments, limitlaws, permutations, sampling, weights
from .experiments import SCALES, atom_gaps


@dataclass(frozen=True)
class AcceptanceCase:
    id: str
    oracle: str
    tolerance: str
    budget_s: float
    fn: Callable[[str], list[tuple[str, bool, str]]]


@dataclass
class CaseResult:
    case_id: str
    passed: bool
    checks: list[tuple[str, bool, str]]
    runtime_s: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        case = CASES_BY_ID[self.case_id]
        return f"[{mark}] {self.case_id} ({self.runtime_s:.1f}s) vs {case.oracle} [{case.tolerance}]"


# --------------------------------------------------------------------------
# scale parameters
# --------------------------------------------------------------------------


def _p(scale: str, desk, selftest):
    return desk if scale in ("desk", "extended") else selftest


# --------------------------------------------------------------------------
# finite-x references: a limit law plus its known 1/log x term
# --------------------------------------------------------------------------


def _smooth_two_term(x: int) -> float:
    """de Bruijn's two-term value of P(p1(N_x) <= sqrt x) under alpha = 1.

    Psi(x, x^(1/u)) = x [rho_1(u) + (1 - gamma) rho_1(u - 1)/log x]
    + O(x/log^2 x) (Hildebrand & Tenenbaum, JTNB 1993); at u = 2,
    rho_1(2) = 1 - log 2 and rho_1(1) = 1.
    """
    return 1.0 - math.log(2.0) + (1.0 - np.euler_gamma) / math.log(x)


def _poisson_pmf(k: np.ndarray, mu: float) -> np.ndarray:
    """exp(k log mu - log k! - mu), evaluated as scipy.stats.poisson.pmf does."""
    from scipy.special import gammaln, xlogy

    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


def _tv(emp: dict, ref: dict) -> float:
    """Total variation distance of two laws given as {atom: probability}."""
    return 0.5 * sum(abs(emp.get(k, 0.0) - ref.get(k, 0.0)) for k in set(emp) | set(ref))


def _nu_p_first_order(w: weights.MultiplicativeWeight, p: int, x: int) -> sampling.ExactPmf:
    """First-order finite-x law of nu_p(N_x) for an Ewens-regime weight.

    P_x(nu_p = k) = alpha(p^k) S_{p-free}(x/p^k)/S(x), and the mean-value
    theorem S_{p-free}(y) ~ C_p y^(1+d) (log y)^(theta-1) makes it
    proportional to alpha(p^k) p^(-k(d+1)) (1 - k log p/log x)^(theta-1)
    on p^k < x.  At theta = 1 the factor is 1: this is nu_p_limit_pmf.
    """
    reg = w.ewens()
    limit = sampling.nu_p_limit_pmf(w, p)
    frac = 1.0 - limit.values * math.log(p) / math.log(x)
    keep = frac > 0
    probs = limit.probs[keep] * frac[keep] ** (reg.theta - 1.0)
    return sampling.ExactPmf(limit.values[keep], probs / probs.sum())


# --------------------------------------------------------------------------
# case implementations; each returns a list of (check name, ok, detail)
# --------------------------------------------------------------------------


def _c01_exact_sums(scale: str):
    x = _p(scale, 10**5, 2 * 10**4)
    spf = arith.build_spf(x)
    ws = weights.catalog_weights()
    checks = []
    profiles = [arith.factorize(n, spf) for n in range(1, x + 1)]
    # the primes p with p^k <= x, for each k: all primes at k = 1, the walk's levels above
    levels = [(1, arith.primes_upto(x)), *enumerate(arith.Walk(x).levels[1:], 2)]
    for w in ws:
        S = float(weights.build_weight_table(w, x).prefix[-1])
        # alpha(p^k) from one vectorized call per k; the per-n product is the oracle
        alpha = {(p, k): v for k, pk in levels for p, v in zip(pk.tolist(), w.values_on_primes(pk, k).tolist())}
        brute = math.fsum(math.prod(alpha[f] for f in prof.factors) for prof in profiles)
        rel = abs(S - brute) / brute
        checks.append((f"S({x:.0e}) {w.name}", rel <= 1e-10, f"sieve={S!r} brute={brute!r} rel={rel:.2e}"))
    return checks


def _c02_euler_constants(scale: str):
    oracle_cut = _p(scale, 10**7, 10**6)
    cut = _p(scale, 10**6, 10**5)
    checks = []
    pf = weights.builtin_weight("powerfree", k=2)
    a = asympt.euler_constant(pf, cutoff=cut)
    ps = arith.primes_upto(oracle_cut).astype(float)
    oracle = float(np.exp(np.sum(np.log1p(-1.0 / ps**2))))
    gap = abs(a.A_alpha - oracle)
    checks.append(("powerfree(2) vs truncated product", gap <= 1e-3, f"A={a.A_alpha:.9f} oracle={oracle:.9f} gap={gap:.2e}"))
    one = asympt.euler_constant(weights.builtin_weight("power", z=0.0), cutoff=cut)
    checks.append(("alpha=1 constant is 1", abs(one.A_alpha - 1.0) <= 1e-12, f"A={one.A_alpha!r}"))
    return checks


def _c03_ewens_mean_value(scale: str):
    xs = _p(scale, [10**4, 10**5, 10**6, 10**7], [10**4, 10**5, 10**6])
    checks = []
    for kind, params in (("theta_omega", {"theta": 2.0}), ("powerfree", {"k": 2})):
        w = weights.builtin_weight(kind, **params)
        gaps = [abs(r["ratio"] - 1.0) for r in experiments.sieve_sum(w, xs, _p(scale, 10**6, 10**5))]
        # below 1e-4 the gap sits at truncated-constant/error-term noise scale,
        # where strict monotonicity is vacuous (powerfree converges like x^-1/2)
        dec = all(b < a_ or b <= 1e-4 for a_, b in zip(gaps, gaps[1:]))
        checks.append((f"{w.name} |ratio-1| decreasing", dec, f"gaps={['%.2e' % g for g in gaps]}"))
        checks.append((f"{w.name} final gap <= 0.1", gaps[-1] <= 0.1, f"gap({xs[-1]:.0e})={gaps[-1]:.4f}"))
    return checks


def _c04_prime_factor_clt(scale: str):
    checks = []
    for theta in (1.0, 2.0):
        # d_theta weights: the canonical family with Ewens parameter theta
        if theta == 1.0:
            w = weights.builtin_weight("power", z=0.0)
        else:
            w = weights.builtin_weight("divisor", k=theta)
        ks_lo, ks_hi = experiments.omega_clt_ks(w, [10**4, 10**6])
        checks.append((f"theta={theta:g} KS(1e6) <= 0.25", ks_hi <= 0.25, f"KS={ks_hi:.4f}"))
        checks.append((f"theta={theta:g} KS(1e6) < KS(1e4)", ks_hi < ks_lo, f"{ks_hi:.4f} < {ks_lo:.4f}"))
    return checks


def _c05_pd_largest_part(scale: str):
    x = _p(scale, 10**7, 10**6)
    draws = _p(scale, 10**4, 5 * 10**3)
    oracle_draws = _p(scale, 10**6, 2 * 10**5)
    rng = np.random.default_rng(20240105)
    vals = experiments.spectrum_draws(weights.builtin_weight("power", z=0.0), x, draws, rng, 1)[:, 0]
    oracle = limitlaws.pd_largest_part_means(1.0, np.random.default_rng(20240205), oracle_draws)[0]
    gap = abs(float(vals.mean()) - oracle)
    return [
        (
            "mean log p1/log x vs PD(1) largest-part mean",
            gap <= 0.05,
            f"sample={vals.mean():.5f} oracle={oracle:.5f} gap={gap:.4f}",
        )
    ]


def _c06_smoothness(scale: str):
    xs = _p(scale, [10**5, 10**6, 10**7], [10**4, 10**5, 10**6])
    x = xs[-1]
    checks = []
    rho1 = 1.0 - math.log(2.0)
    sqrt_smooth = [(experiments.statistic("smooth", y, u=2.0), [y]) for y in xs]  # P(p1 <= sqrt y) over n <= y
    uniform = experiments.exact_laws(weights.builtin_weight("power", z=0.0), x, sqrt_smooth)
    p1s = [pmfs[0].prob_of(1.0) for pmfs in uniform]
    p1 = p1s[-1]
    ref1 = _smooth_two_term(x)
    gap1 = abs(p1 - ref1)
    checks.append(
        (
            "theta=1: P(p1 <= sqrt x) vs rho_1(2) + (1-gamma)/log x, tol 0.02",
            gap1 <= 0.02,
            f"exact={p1:.5f} ref={ref1:.5f} gap={gap1:.4f} (rho_1(2)={rho1:.5f})",
        )
    )
    gaps = [abs(p - rho1) for p in p1s]
    dec = all(b < a for a, b in zip(gaps, gaps[1:]))
    checks.append(
        (
            f"theta=1: gap to rho_1(2) decreasing over x={xs[0]:.0e}..{x:.0e}",
            dec,
            f"gaps={['%.4f' % g for g in gaps]}",
        )
    )
    p2 = experiments.exact_laws(weights.builtin_weight("divisor", k=2.0), x, sqrt_smooth[-1:])[0][0].prob_of(1.0)
    rho2 = limitlaws.dickman_rho(2.0, 2.0, h=1.0 / 256).rho(2.0)
    gap2 = abs(p2 - rho2)
    checks.append(
        (
            "theta=2: P(p1 <= sqrt x) vs rho_2(2), tol 0.03",
            gap2 <= 0.03,
            f"exact={p2:.5f} rho={rho2:.5f} gap={gap2:.4f}",
        )
    )
    return checks


def _c07_dickman(scale: str):
    u_max = _p(scale, 4.0, 3.0)
    res = {theta: experiments.dickman(theta, u_max, 1.0 / 256)[1] for theta in (0.5, 1.0, 2.0)}
    gap = abs(res[1.0]["rho"]["2"] - (1.0 - math.log(2.0)))
    checks = [("rho_1(2) within 1e-6 of 1-log 2", gap <= 1e-6, f"gap={gap:.2e}")]
    for theta in res:
        r = res[theta]["max_residual"]
        checks.append((f"theta={theta:g} residual <= 1e-8", r <= 1e-8, f"max residual={r:.2e}"))
    return checks


def _c08_saddle(scale: str):
    cutoff = _p(scale, 10**6, 10**5)
    xs = [10**4, 10**6, 10**8]
    checks = []
    gaps = []
    for x in xs:
        sigma, residual = asympt.solve_saddle(1.0, 1.0, x, prime_cutoff=cutoff)
        checks.append((f"residual at x={x:.0e} <= 1e-9", residual <= 1e-9, f"residual={residual:.2e}"))
        gaps.append(abs((sigma - 1.0) / asympt.sigma_leading_order(1.0, 1.0, x) - 1.0))
    dec = all(b < a for a, b in zip(gaps, gaps[1:]))
    checks.append(("|(sigma-1)/closed-form - 1| decreasing", dec, f"gaps={['%.4f' % g for g in gaps]}"))
    return checks


def _c09_poly_partition_sum(scale: str):
    x1, x2 = _p(scale, (10**6, 10**7), (10**5, 10**6))
    w = weights.builtin_weight("poly_log", K=1.0, gamma=1.0)
    r1, r2 = (r["ratio"] for r in experiments.sieve_sum(w, [x1, x2], _p(scale, 10**6, 10**5)))
    dr = r2 / r1
    return [
        (
            f"double ratio [S/pred]({x2:.0e})/[S/pred]({x1:.0e}) within 0.1 of 1",
            abs(dr - 1.0) <= 0.1,
            f"double ratio={dr:.4f} (A cancels)",
        )
    ]


def _c10_poly_typical(scale: str):
    xs = _p(scale, [10**5, 10**6, 10**7], [10**4, 10**5, 10**6])
    draws = _p(scale, 10**4, 3 * 10**3)
    K, gamma = 1.0, 1.0
    x_top = xs[-1]
    w = weights.builtin_weight("poly_log", K=K, gamma=gamma)
    checks = []
    gaps = [abs(eo / asympt.predict_mean_omega_poly(K, gamma, x) - 1.0)
            for x, eo in zip(xs, experiments.mean_big_omega(w, xs))]
    dec = all(b < a for a, b in zip(gaps, gaps[1:]))
    checks.append(("E Omega / prediction monotonically approaching 1", dec, f"|ratio-1|={['%.4f' % g for g in gaps]}"))

    top = weights.build_weight_table(w, x_top)  # sliced at y, both tables are the tables at y
    low = weights.DrawTables(top.p1[: xs[0] + 1], top.prefix[: xs[0] + 1])
    ks_lo = experiments.gamma_law_ks(low, K, gamma, draws, np.random.default_rng(20241001))
    ks_hi = experiments.gamma_law_ks(top, K, gamma, draws, np.random.default_rng(20241002))
    checks.append((f"KS at {x_top:.0e} <= 0.15", ks_hi <= 0.15, f"KS={ks_hi:.4f}"))
    checks.append((f"KS decreasing from {xs[0]:.0e}", ks_hi < ks_lo, f"{ks_hi:.4f} < {ks_lo:.4f}"))
    return checks


def _c11_small_primes(scale: str):
    xs = _p(scale, [10**5, 10**6, 10**7], [10**4, 10**5, 10**6])
    x = xs[-1]
    nu2 = experiments.statistic("nu", x, p=2)
    nu23, kb = experiments.joint_nu(x, 2, 3)
    checks = []
    for kind, params in (("theta_omega", {"theta": 2.0}), ("powerfree", {"k": 2})):
        w = weights.builtin_weight(kind, **params)
        _, (masses, (joint_mass,)) = experiments.scan(w, x, laws=[(nu2, xs), (nu23, [x])])
        exacts = [sampling.exact_pmf_from_mass(m) for m in masses]
        gap = max(atom_gaps(exacts[-1], _nu_p_first_order(w, 2, x)))
        limit = sampling.nu_p_limit_pmf(w, 2)
        lim_gaps = [max(atom_gaps(e, limit)) for e in exacts]
        checks.append(
            (
                f"{w.name} nu_2 atoms vs first-order law, tol 0.01",
                gap <= 0.01,
                f"max atom gap={gap:.4f} (to the limit: {lim_gaps[-1]:.4f})",
            )
        )
        dec = all(b < a for a, b in zip(lim_gaps, lim_gaps[1:]))
        checks.append(
            (
                f"{w.name} nu_2 gap to the limit decreasing over x={xs[0]:.0e}..{x:.0e}",
                dec,
                f"gaps={['%.2e' % g for g in lim_gaps]}",
            )
        )
        # P[a, b] is the law of (nu_2, nu_3) = (a, b); the gap is taken where it has mass
        P = np.concatenate([joint_mass, np.zeros(-len(joint_mass) % kb)])
        P = (P / P.sum()).reshape(-1, kb)
        fgap = float(np.max(np.abs(P - np.outer(P.sum(1), P.sum(0)))[P > 0]))
        checks.append(
            (f"{w.name} joint (nu_2,nu_3) factorizes, tol 0.01", fgap <= 0.01, f"max gap={fgap:.4f}")
        )
    return checks


def _c12_partition_function(scale: str):
    from scipy.special import gammaln

    checks = []
    for theta in (0.5, 1.0, 2.0):
        w = permutations.constant_weights(50, theta)
        t = permutations.partition_function(w)
        worst = 0.0
        for m in range(51):
            ref = gammaln(m + theta) - gammaln(theta) - gammaln(m + 1)
            worst = max(worst, abs(math.exp(t.log_h[m] - ref) - 1.0))
        checks.append(
            (f"h_m = binom(m+theta-1, m), theta={theta:g}, n<=50", worst <= 1e-10, f"max rel err={worst:.2e}")
        )
    draws = _p(scale, 10**6, 2 * 10**5)
    n = 7
    for label, w in (
        ("constant theta=2", permutations.constant_weights(n, 2.0)),
        ("poly gamma=1", permutations.poly_weights(1.0, n)),
    ):
        t = permutations.partition_function(w)
        exact = permutations.enumerate_Sn(n, w)
        rng = np.random.default_rng(20241201)
        rows, lengths = permutations.sample_cycle_types(w, t, rng, draws)
        # a draw's cycle counts C_1..C_n as the base-(n+1) digits of one integer
        codes = np.bincount(rows, weights=float(n + 1) ** (lengths - 1)).astype(np.int64)
        uniq, cnt = np.unique(codes, return_counts=True)
        digits = uniq[:, None] // (n + 1) ** np.arange(n - 1, -1, -1) % (n + 1)
        emp = {tuple(np.repeat(np.arange(n, 0, -1), d).tolist()): c / draws for d, c in zip(digits, cnt)}
        tv = _tv(emp, exact.type_probs)
        checks.append((f"sampler TV vs enumeration, {label}, n=7", tv <= 0.02, f"TV={tv:.4f} ({draws} draws)"))
    return checks


def _c13_conjugation_invariance(scale: str):
    checks = []
    for n in range(2, 8):
        for label, w in (
            ("theta=0.5", permutations.constant_weights(n, 0.5)),
            ("theta=1", permutations.constant_weights(n, 1.0)),
            ("theta=2", permutations.constant_weights(n, 2.0)),
            ("poly gamma=1", permutations.poly_weights(1.0, n)),
        ):
            by_perm = permutations.enumerate_Sn_by_permutations(n, w)
            by_part = permutations.enumerate_Sn(n, w)
            gap = float(np.abs(by_perm.l1_pmf - by_part.typ_pmf).max())
            checks.append((f"n={n} {label} L1 pmf == size-biased pmf", gap <= 1e-12, f"max gap={gap:.2e}"))
    return checks


def _c14_pd_round_trip(scale: str):
    reps = _p(scale, 10**5, 2 * 10**4)
    k = 200
    checks = []
    for theta in (0.5, 1.0, 2.0):
        rng = np.random.default_rng(20241400 + int(10 * theta))
        Z = limitlaws.gem_matrix(theta, k, rng, reps)
        parts = np.sort(Z, axis=1)[:, ::-1]
        reordered = limitlaws.size_biased_permutation_matrix(parts, rng, k=6)
        # rows whose float remainder underflows to 0 within 6 picks cannot
        # be renormalized in double precision; drop them (O(1e-3) of rows
        # at theta=0.5, negligible against the 0.02 tolerance)
        rem = 1.0 - np.cumsum(reordered[:, :-1], axis=1)
        good = rem.min(axis=1) > 1e-12
        ratios = limitlaws.residual_ratios(reordered[good])
        worst = 0.0
        for j in range(5):
            d = limitlaws.ks_distance(ratios[:, j], lambda t: limitlaws.beta_cdf(theta, t))
            worst = max(worst, d)
        checks.append(
            (
                f"theta={theta:g}: first 5 residual ratios ~ Beta(1,theta)",
                worst <= 0.02,
                f"max KS={worst:.4f} ({int((~good).sum())} degenerate rows dropped)",
            )
        )
    return checks


def _c15_permutation_trends(scale: str):
    checks = []
    # cycle-count CLT trend (constant weights)
    reps = _p(scale, 4000, 2000)
    ns = _p(scale, (10**2, 10**5), (10**2, 10**4))
    for theta in (1.0, 2.0):
        kss = []
        for i, n in enumerate(ns):
            rng = np.random.default_rng(20241500 + i + int(theta))
            c = np.bincount(permutations.ewens_cycle_lengths(n, theta, rng, reps)[0], minlength=reps)
            z = (c - theta * math.log(n)) / math.sqrt(theta * math.log(n))
            kss.append(limitlaws.ks_distance(z, limitlaws.normal_cdf))
        checks.append(
            (f"cycle-count CLT theta={theta:g}: KS(n={ns[1]:.0e}) < KS(n={ns[0]:.0e})", kss[1] < kss[0], f"{kss[1]:.4f} < {kss[0]:.4f}")
        )
    # longest-cycle mean against the PD largest part
    n_w = _p(scale, 10**5, 2 * 10**4)
    rows, lens = permutations.ewens_cycle_lengths(n_w, 1.0, np.random.default_rng(20241510), _p(scale, 1500, 800))
    longest = np.maximum.reduceat(lens, np.flatnonzero(np.diff(rows, prepend=-1)))
    oracle = limitlaws.pd_largest_part_means(1.0, np.random.default_rng(20241511), _p(scale, 3 * 10**5, 10**5))[0]
    gap = abs(float(longest.mean()) / n_w - oracle)
    checks.append(
        (f"longest cycle: mean l1/n at n={n_w:.0e} vs PD(1) largest-part mean, tol 0.02", gap <= 0.02, f"gap={gap:.4f}")
    )
    # polynomial weights: exact E C drift and the exact L1 law against Gamma(2, 1)
    ec_gaps = []
    ks_l1 = []
    for n in _p(scale, (10**3, 10**4, 10**5), (10**3, 10**4)):
        t = permutations.partition_function(permutations.poly_weights(1.0, n))
        ec = permutations.exact_mean_cycle_count(t)
        ec_gaps.append(abs(ec / (math.sqrt(n) * math.sqrt(math.gamma(1.0))) - 1.0))
        l1 = sampling.ExactPmf(np.arange(1, n + 1) / math.sqrt(n), permutations.first_cycle_pmf(t, n))
        ks_l1.append(limitlaws.ks_distance(l1, lambda u: limitlaws.gamma_cdf(2.0, 1.0, u)))
    checks.append(
        (
            "poly weights: E C / (n^(1/2) Gamma(1)^(1/2)) drifting to 1",
            all(b < a for a, b in zip(ec_gaps, ec_gaps[1:])),
            f"|ratio-1|={['%.4f' % g for g in ec_gaps]}",
        )
    )
    checks.append(
        (
            "poly weights: exact KS(L1/sqrt n vs Gamma(2,1)) decreasing",
            all(b < a for a, b in zip(ks_l1, ks_l1[1:])),
            f"KS={['%.4f' % g for g in ks_l1]}",
        )
    )
    # small cycles: (C_1, C_2) near independent Poisson(theta), Poisson(theta/2)
    n_s = _p(scale, 10**4, 3 * 10**3)
    reps_s = _p(scale, 2 * 10**4, 6 * 10**3)
    rows, lens = permutations.ewens_cycle_lengths(n_s, 1.0, np.random.default_rng(20241530), reps_s)
    c12 = np.stack([np.bincount(rows[lens == j], minlength=reps_s) for j in (1, 2)], axis=1)
    pairs, cnt = np.unique(c12, axis=0, return_counts=True)
    emp = {(int(a), int(b)): c / reps_s for (a, b), c in zip(pairs, cnt)}
    kmax = 24
    pmf1, pmf2 = _poisson_pmf(np.arange(kmax), 1.0), _poisson_pmf(np.arange(kmax), 0.5)
    ref = {(a, b): float(pmf1[a] * pmf2[b]) for a in range(kmax) for b in range(kmax)}
    tv = _tv(emp, ref)
    checks.append(
        (f"(C_1,C_2) at n={n_s:.0e} vs Poisson(1) x Poisson(1/2), TV tol 0.03", tv <= 0.03, f"TV={tv:.4f}")
    )
    return checks


def _c16_extended_sieve(scale: str):
    # extended tier only: 10^8 exactness smoke for the uniform weight
    x = 10**8
    w = weights.builtin_weight("power", z=0.0)
    (S,), _ = experiments.scan(w, x, ys=[x])
    return [(f"S(1e8) for alpha=1 equals 1e8 exactly", S == float(x), f"S={S!r}")]


CASES: tuple[AcceptanceCase, ...] = (
    AcceptanceCase("c01", "brute-force per-n evaluation", "1e-10 relative", 10.0, _c01_exact_sums),
    AcceptanceCase("c02", "truncated Euler products", "1e-3 / 1e-12", 30.0, _c02_euler_constants),
    AcceptanceCase("c03", "mean-value predictor ratios", "decreasing; 0.1 cap", 120.0, _c03_ewens_mean_value),
    AcceptanceCase("c04", "exact Omega pmf vs N(0,1)", "KS <= 0.25; decreasing", 60.0, _c04_prime_factor_clt),
    AcceptanceCase("c05", "GEM Monte Carlo largest-part mean", "0.05", 120.0, _c05_pd_largest_part),
    AcceptanceCase("c06", "rho_theta; theta=1 with de Bruijn 1/log x term", "0.02 / 0.03; theta=1 gap to rho_1(2) decreasing", 120.0, _c06_smoothness),
    AcceptanceCase("c07", "analytic rho_1(2); integral-equation residual", "1e-6 / 1e-8", 60.0, _c07_dickman),
    AcceptanceCase("c08", "saddle residual and closed form", "1e-9; decreasing", 30.0, _c08_saddle),
    AcceptanceCase("c09", "partition-sum double ratio", "0.1", 180.0, _c09_poly_partition_sum),
    AcceptanceCase("c10", "exact E Omega; gamma-law KS", "monotone; 0.15", 180.0, _c10_poly_typical),
    AcceptanceCase("c11", "prime-multiplicity law with first-order (1-k log p/log x)^(theta-1) factor", "0.01 per atom; gap to limit decreasing", 120.0, _c11_small_primes),
    AcceptanceCase("c12", "binomial identity; exhaustive enumeration", "1e-10; TV 0.02", 120.0, _c12_partition_function),
    AcceptanceCase("c13", "exhaustive enumeration, two routes", "1e-12", 60.0, _c13_conjugation_invariance),
    AcceptanceCase("c14", "Beta(1,theta) residual ratios", "KS 0.02", 120.0, _c14_pd_round_trip),
    AcceptanceCase("c15", "permutation-side limit trends", "per-check", 300.0, _c15_permutation_trends),
)

EXTENDED_CASES: tuple[AcceptanceCase, ...] = (
    AcceptanceCase("c16", "10^8 sieve exactness", "exact", 600.0, _c16_extended_sieve),
)

CASES_BY_ID: dict[str, AcceptanceCase] = {c.id: c for c in CASES + EXTENDED_CASES}


def run_case(case_id: str, scale: str = "desk") -> CaseResult:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    case = CASES_BY_ID[case_id]
    t0 = time.perf_counter()
    checks = case.fn(scale)
    dt = time.perf_counter() - t0
    checks = list(checks)
    checks.append(
        ("runtime within budget", dt <= case.budget_s, f"{dt:.1f}s of {case.budget_s:.0f}s")
    )
    return CaseResult(case_id=case_id, passed=all(ok for _, ok, _ in checks), checks=checks, runtime_s=dt)


def run_all(scale: str = "desk", case_ids: list[str] | None = None) -> list[CaseResult]:
    cases = list(CASES)
    if scale == "extended":
        cases += list(EXTENDED_CASES)
    if case_ids:
        wanted = set(case_ids)
        cases = [c for c in cases if c.id in wanted]
        missing = wanted - {c.id for c in cases}
        if missing:
            raise ValueError(f"unknown case ids: {sorted(missing)}")
    results = []
    for case in cases:
        res = run_case(case.id, scale)
        results.append(res)
        print(res.line())
        for name, ok, detail in res.checks:
            print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return results


def write_junit(results: list[CaseResult], path) -> None:
    suite = ET.Element(
        "testsuite",
        name="multweight-acceptance",
        tests=str(len(results)),
        failures=str(sum(not r.passed for r in results)),
    )
    for r in results:
        tc = ET.SubElement(suite, "testcase", classname="acceptance", name=r.case_id, time=f"{r.runtime_s:.3f}")
        case = CASES_BY_ID[r.case_id]
        props = ET.SubElement(tc, "properties")
        ET.SubElement(props, "property", name="oracle", value=case.oracle)
        ET.SubElement(props, "property", name="tolerance", value=case.tolerance)
        failed = [f"{name}: {detail}" for name, ok, detail in r.checks if not ok]
        if failed:
            ET.SubElement(tc, "failure", message="; ".join(failed))
        out = ET.SubElement(tc, "system-out")
        out.text = "\n".join(f"{name}: {detail}" for name, _, detail in r.checks)
    ET.ElementTree(suite).write(path, encoding="unicode", xml_declaration=False)
