"""Batch experiment runner.

One experiment per process invocation; every subcommand writes
machine-readable CSV and/or a JSON report carrying the full configuration
and seed, so identical config + seed reproduces the report byte for byte
(apart from its timing block).

CSV column schemas: (value,probability), (x,exact,predicted,ratio),
(u,rho), (stat,ks,tv,n_samples,seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import __version__, arith, asympt, harness, limitlaws, permutations, sampling, weights


def parse_weight_spec(spec) -> weights.MultiplicativeWeight:
    """Weight from 'kind:param[:param]' or a {'kind': ..., params} mapping."""
    if isinstance(spec, dict):
        d = dict(spec)
        kind = d.pop("kind", None)
        if kind is None:
            raise SystemExit("config error: weight mapping needs a 'kind' key")
        try:
            return weights.builtin_weight(kind, **d)
        except (ValueError, TypeError) as e:
            raise SystemExit(f"config error: {e}")
    parts = str(spec).split(":")
    kind, args = parts[0], parts[1:]
    positional = {
        "theta_omega": ("theta",),
        "divisor": ("k",),
        "powerfree": ("k",),
        "euler_ratio": (),
        "sigma": ("z",),
        "power": ("z",),
        "poly_log": ("K", "gamma"),
    }
    if kind not in positional:
        raise SystemExit(f"unknown weight kind {kind!r}; known: {sorted(positional)}")
    names = positional[kind]
    if len(args) != len(names):
        raise SystemExit(f"weight {kind} takes {len(names)} parameter(s): {names}")
    params = {n: (int(float(a)) if n == "k" and kind == "powerfree" else float(a)) for n, a in zip(names, args)}
    try:
        return weights.builtin_weight(kind, **params)
    except ValueError as e:
        raise SystemExit(f"invalid weight spec: {e}")


def _parse_x_list(raw: str) -> list[int]:
    return [int(float(t)) for t in str(raw).split(",") if t]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _report(args, results: dict, t0: float):
    """Emit the JSON report; 'timing' is the only non-reproducible block."""
    doc = {
        "command": args.command,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "func", "json_path", "out") and v is not None
        },
        "version": __version__,
        "results": results,
        "timing": {"runtime_seconds": time.time() - t0, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")},
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_config(path: str, ap: argparse.ArgumentParser, command: str) -> None:
    """Make a JSON config file's entries, converted by their flags' types,
    the defaults of the command's subparser; flags parsed afterwards win.

    Unknown keys and bad values fail loudly instead of running a different
    experiment than intended.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SystemExit(f"config error: {path} is not valid JSON ({e})")
    if not isinstance(doc, dict):
        raise SystemExit("config error: top level must be an object")
    keys = _CONFIG_KEYS[command]
    unknown = set(doc) - keys
    if unknown:
        raise SystemExit(f"config error: unknown keys {sorted(unknown)}; allowed: {sorted(keys)}")
    sp = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    types = {a.dest: a.type for a in sp._actions}
    for k, v in doc.items():
        if types[k] is not None:
            try:
                doc[k] = types[k](str(v))
            except (ValueError, TypeError, argparse.ArgumentTypeError) as e:
                raise SystemExit(f"config error: {k}={v!r} is invalid ({e})")
    sp.set_defaults(**doc)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_sieve_sum(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    xs = _parse_x_list(args.x)
    spf = arith.build_spf(max(xs))
    table = weights.build_weight_table(w, max(xs), spf)
    rows = []
    if isinstance(w.regime, weights.EwensRegime):
        a = asympt.euler_constant(w, cutoff=args.cutoff)
        for x in xs:
            pred = asympt.predict_S_ewens(a, x)
            rows.append((x, table.S_at(x), pred, table.S_at(x) / pred))
    else:
        saddle = asympt.solve_saddle(w.poly().K, w.poly().gamma, max(xs), prime_cutoff=args.cutoff, w=w)
        for x in xs:
            pred = asympt.predict_S_poly(saddle, x)
            rows.append((x, table.S_at(x), pred, table.S_at(x) / pred))
    if args.out:
        _write_csv(args.out, ["x", "exact", "predicted", "ratio"], rows)
    _report(args, {"rows": [{"x": r[0], "exact": r[1], "predicted": r[2], "ratio": r[3]} for r in rows]}, t0)


def cmd_conditions(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    xs = _parse_x_list(args.x)
    spf = arith.build_spf(max(xs))
    res = weights.condition_I_residuals(w, xs, spf)
    margin = weights.condition_II_margin(w, p_max=min(10**4, max(xs)))
    if args.out:
        _write_csv(args.out, ["x", "residual"], res)
    _report(
        args,
        {
            "condition_I_residuals": [{"x": x, "residual": r} for x, r in res],
            "condition_II_margin": margin,
        },
        t0,
    )


def cmd_sample(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    x = int(float(args.x))
    spf = arith.build_spf(x)
    table = weights.build_weight_table(w, x, spf)
    rng = np.random.default_rng(args.seed)
    draws = sampling.WeightedIntegerSampler(table, rng).sample(args.n)
    if args.out:
        _write_csv(args.out, ["value"], [(int(v),) for v in draws])
    vals, counts = np.unique(draws, return_counts=True)
    _report(
        args,
        {
            "n_samples": args.n,
            "seed": args.seed,
            "mean": float(np.mean(draws)),
            "distinct": int(len(vals)),
            "top": [{"value": int(v), "count": int(c)} for v, c in
                    sorted(zip(vals, counts), key=lambda t: -t[1])[:10]],
        },
        t0,
    )


_STATISTICS = ("omega", "big_omega", "nu", "largest_ratio", "smooth")


def _statistic_values(stat: str, p: int, u: float, x: int, spf: arith.SpfTable) -> np.ndarray:
    if stat == "omega":
        return arith.omega_table(spf)[: x + 1]
    if stat == "big_omega":
        return arith.big_omega_table(spf)[: x + 1]
    if stat == "nu":
        return arith.nu_p_table(x, p)
    lpf = arith.largest_prime_table(spf)[: x + 1].astype(float)
    lpf[1] = 1.0
    if stat == "largest_ratio":
        with np.errstate(divide="ignore"):
            out = np.log(lpf) / math.log(x)
        out[0] = 0.0
        return out
    if stat == "smooth":
        return (lpf <= x ** (1.0 / u)).astype(np.int8)
    raise SystemExit(f"unknown statistic {stat!r}; known: {_STATISTICS}")


def cmd_exact_dist(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    x = int(float(args.x))
    spf = arith.build_spf(x)
    table = weights.build_weight_table(w, x, spf)
    vals = _statistic_values(args.statistic, args.p, args.u, x, spf)
    pmf = sampling.exact_pmf_from_values(table, vals)
    if args.out:
        pmf.to_csv(args.out)
    _report(
        args,
        {"statistic": args.statistic, "mean": pmf.mean(), "atoms": len(pmf.values),
         "pmf_head": [{"value": float(v), "probability": float(p_)} for v, p_ in
                      zip(pmf.values[:20], pmf.probs[:20])]},
        t0,
    )


def cmd_ek_compare(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    theta = w.ewens().theta
    xs = _parse_x_list(args.x)
    spf = arith.build_spf(max(xs))
    table = weights.build_weight_table(w, max(xs), spf)
    om = arith.big_omega_table(spf)
    rows = []
    for x in xs:
        sub = weights.WeightTable(x=x, alpha=table.alpha[: x + 1], prefix=table.prefix[: x + 1])
        pmf = sampling.exact_pmf_from_values(sub, om[: x + 1])
        c = theta * math.log(math.log(x))
        ks = limitlaws.ks_distance(pmf.affine(c, math.sqrt(c)), limitlaws.normal_cdf)
        rows.append(("omega_normalized", ks, "", 0, args.seed, x))
    if args.out:
        _write_csv(args.out, ["stat", "ks", "tv", "n_samples", "seed", "x"], rows)
    _report(args, {"rows": [{"x": r[5], "ks": r[1]} for r in rows]}, t0)


def cmd_pd_compare(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    theta = w.ewens().theta
    x = int(float(args.x))
    spf = arith.build_spf(x)
    table = weights.build_weight_table(w, x, spf)
    rng = np.random.default_rng(args.seed)
    sampler = sampling.WeightedIntegerSampler(table, rng)
    ns = sampler.sample(args.n)
    coords = np.zeros((args.n, 3))
    for i, n in enumerate(ns):
        sp = sampling.spectrum(arith.factorize(int(n), spf), x)
        coords[i] = [sp.ratio(1), sp.ratio(2), sp.ratio(3)]
    oracle_rng = np.random.default_rng(args.seed + 1)
    Z = limitlaws.gem_matrix(theta, 200, oracle_rng, args.oracle_draws)
    parts = np.sort(Z, axis=1)[:, ::-1]
    rows = []
    for j in range(3):
        rows.append((f"coord_{j + 1}_mean", float(coords[:, j].mean()), float(parts[:, j].mean())))
    if args.out:
        _write_csv(args.out, ["stat", "sample", "pd_oracle"], rows)
    _report(
        args,
        {"rows": [{"stat": r[0], "sample": r[1], "pd_oracle": r[2]} for r in rows],
         "n_samples": args.n, "seed": args.seed},
        t0,
    )


def cmd_smooth(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    theta = w.ewens().theta
    x = int(float(args.x))
    spf = arith.build_spf(x)
    table = weights.build_weight_table(w, x, spf)
    lpf = arith.largest_prime_table(spf).astype(float)
    lpf[1] = 1.0
    us = [float(t) for t in str(args.u).split(",")]
    sol = limitlaws.dickman_rho(theta, max(max(us), 1.0) + 1e-9, h=args.step)
    rows = []
    for u in us:
        ind = (lpf[: x + 1] <= x ** (1.0 / u)).astype(np.int8)
        exact = sampling.exact_pmf_from_values(table, ind).prob_of(1.0)
        rho = sol.rho(u)
        rows.append((u, exact, rho, exact - rho))
    if args.out:
        _write_csv(args.out, ["u", "exact", "rho", "diff"], rows)
    _report(args, {"rows": [{"u": r[0], "exact": r[1], "rho": r[2]} for r in rows]}, t0)


def cmd_small_prime(args):
    t0 = time.time()
    w = parse_weight_spec(args.weight)
    x = int(float(args.x))
    ps = [int(t) for t in str(args.p).split(",")]
    spf = arith.build_spf(x)
    table = weights.build_weight_table(w, x, spf)
    rows = []
    for p in ps:
        exact = sampling.exact_pmf_from_values(table, arith.nu_p_table(x, p))
        limit = sampling.nu_p_limit_pmf(w, p)
        kmax = int(max(exact.values.max(), limit.values.max()))
        for k in range(kmax + 1):
            rows.append((p, k, exact.prob_of(k), limit.prob_of(k), abs(exact.prob_of(k) - limit.prob_of(k))))
    if args.out:
        _write_csv(args.out, ["p", "k", "exact", "limit", "gap"], rows)
    _report(args, {"max_gap": max(r[4] for r in rows), "atoms": len(rows)}, t0)


def cmd_poly_asym(args):
    t0 = time.time()
    K, gamma = args.K, args.gamma
    xs = _parse_x_list(args.x)
    w = weights.builtin_weight("poly_log", K=K, gamma=gamma)
    spf = arith.build_spf(max(xs))
    table = weights.build_weight_table(w, max(xs), spf)
    rows = []
    for x in xs:
        s = asympt.solve_saddle(K, gamma, x, prime_cutoff=args.cutoff)
        pred = asympt.predict_S_poly(s, x)
        rows.append((x, s.sigma, s.residual, table.S_at(x), pred, table.S_at(x) / pred))
    if args.out:
        _write_csv(args.out, ["x", "sigma", "residual", "exact", "predicted", "ratio"], rows)
    doubles = [rows[i + 1][5] / rows[i][5] for i in range(len(rows) - 1)]
    _report(
        args,
        {"rows": [{"x": r[0], "sigma": r[1], "ratio": r[5]} for r in rows],
         "double_ratios": doubles},
        t0,
    )


def cmd_poly_typical(args):
    t0 = time.time()
    K, gamma = args.K, args.gamma
    x = int(float(args.x))
    w = weights.builtin_weight("poly_log", K=K, gamma=gamma)
    spf = arith.build_spf(x)
    table = weights.build_weight_table(w, x, spf)
    om = arith.big_omega_table(spf)
    eo = float(np.dot(om[1:].astype(float), table.alpha[1:])) / table.S
    pred = asympt.predict_mean_omega_poly(K, gamma, x)
    rng = np.random.default_rng(args.seed)
    sampler = sampling.WeightedIntegerSampler(table, rng)
    ns = sampler.sample(args.n)
    scalepow = math.log(x) ** (1.0 / (gamma + 1.0))
    vals = []
    for n in ns:
        n = int(n)
        vals.append(0.0 if n == 1 else math.log(sampling.size_biased_prime(arith.factorize(n, spf), rng)) / scalepow)
    shape, rate = asympt.gamma_law_params(K, gamma)
    ks = limitlaws.ks_distance(np.array(vals), lambda u: limitlaws.gamma_cdf(shape, rate, u))
    if args.out:
        _write_csv(args.out, ["stat", "ks", "tv", "n_samples", "seed"],
                   [("log_P1_scaled_vs_gamma", ks, "", args.n, args.seed)])
    _report(
        args,
        {"mean_omega_exact": eo, "mean_omega_predicted": pred, "ratio": eo / pred,
         "gamma_law": {"shape": shape, "rate": rate}, "ks": ks, "seed": args.seed},
        t0,
    )


def cmd_ewens(args):
    t0 = time.time()
    n = args.n
    w = permutations.poly_weights(args.poly_gamma, n) if args.poly_gamma else permutations.constant_weights(n, args.theta)
    rows = []
    results = {}
    if args.exact:
        exact = permutations.enumerate_Sn(n, w)
        for k in range(1, n + 1):
            rows.append((k, float(exact.l1_pmf[k])))
        results["l1_pmf"] = {str(k): float(exact.l1_pmf[k]) for k in range(1, n + 1)}
        results["cycle_count_pmf"] = {str(k): float(v) for k, v in enumerate(exact.cycle_count_pmf()) if v > 0}
        if args.out:
            _write_csv(args.out, ["value", "probability"], rows)
    else:
        table = permutations.partition_function(w)
        rng = np.random.default_rng(args.seed)
        draws = [permutations.sample_cycle_type(w, table, rng) for _ in range(args.samples)]
        l1 = np.array([d.first_length for d in draws], dtype=float)
        results["l1_mean"] = float(l1.mean())
        results["mean_cycles"] = float(np.mean([d.num_cycles for d in draws]))
        results["seed"] = args.seed
        if args.out:
            # one sample per row, cycle lengths sorted nonincreasing
            with open(args.out, "w", newline="") as fh:
                wr = csv.writer(fh)
                for d in draws:
                    wr.writerow(d.lengths)
    _report(args, results, t0)


def cmd_dickman(args):
    t0 = time.time()
    sol = limitlaws.dickman_rho(args.theta, args.umax, h=args.step)
    if args.out:
        sol.to_csv(args.out)
    res = sol.residuals()
    _report(
        args,
        {"rho": {f"{u:g}": sol.at_grid(float(u)) for u in np.arange(1, int(args.umax) + 1)},
         "max_residual": float(res.max()), "grid_points": len(sol.grid)},
        t0,
    )


def cmd_selftest(args):
    results = harness.run_all(args.scale, case_ids=args.cases.split(",") if args.cases else None)
    if args.junit:
        harness.write_junit(results, args.junit)
    failed = [r.case_id for r in results if not r.passed]
    print()
    print(f"{len(results) - len(failed)}/{len(results)} acceptance cases passed")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        raise SystemExit(1)


# --------------------------------------------------------------------------


def _add_common(sp, *, weight=True, x=True, seed=False, out=True):
    sp.add_argument("--config", help="JSON config file; CLI flags override its keys")
    if weight:
        sp.add_argument("--weight", help="weight spec, e.g. theta_omega:2 or divisor:2")
    if x:
        sp.add_argument("--x", help="range bound(s), comma separated; 1e6 style accepted")
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    if out:
        sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--json", dest="json_path", help="JSON report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="multweight", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sieve-sum", help="exact S(x) against the mean-value predictor")
    _add_common(sp, seed=False)
    sp.add_argument("--cutoff", type=lambda v: int(float(v)), default=10**6, help="prime cutoff for constants")
    sp.set_defaults(func=cmd_sieve_sum)

    sp = sub.add_parser("conditions", help="numeric residuals of the weight hypotheses")
    _add_common(sp)
    sp.set_defaults(func=cmd_conditions)

    sp = sub.add_parser("sample", help="draw integers from the weighted measure")
    _add_common(sp, seed=True)
    sp.add_argument("--n", type=lambda v: int(float(v)), default=1000, help="number of draws")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("exact-dist", help="exact law of a factorization statistic")
    _add_common(sp)
    sp.add_argument("--statistic", default="big_omega", help=f"one of {_STATISTICS}")
    sp.add_argument("--p", type=int, default=2, help="prime for the nu statistic")
    sp.add_argument("--u", type=float, default=2.0, help="smoothness parameter for the smooth statistic")
    sp.set_defaults(func=cmd_exact_dist)

    sp = sub.add_parser("ek-compare", help="normalized prime-factor counts against N(0,1)")
    _add_common(sp, seed=True)
    sp.set_defaults(func=cmd_ek_compare)

    sp = sub.add_parser("pd-compare", help="log-prime spectrum against the Poisson-Dirichlet law")
    _add_common(sp, seed=True)
    sp.add_argument("--n", type=lambda v: int(float(v)), default=10**4, help="number of draws")
    sp.add_argument("--oracle-draws", type=lambda v: int(float(v)), default=10**5)
    sp.set_defaults(func=cmd_pd_compare)

    sp = sub.add_parser("smooth", help="exact smoothness probabilities against rho_theta")
    _add_common(sp, seed=False)
    sp.add_argument("--u", default="2", help="u values, comma separated (smooth means p1 <= x^(1/u))")
    sp.add_argument("--step", type=float, default=1.0 / 256)
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("small-prime", help="exact nu_p law against its limit")
    _add_common(sp)
    sp.add_argument("--p", default="2", help="primes, comma separated")
    sp.set_defaults(func=cmd_small_prime)

    sp = sub.add_parser("poly-asym", help="polynomial-regime partition-sum predictor")
    _add_common(sp, weight=False)
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--cutoff", type=lambda v: int(float(v)), default=10**6)
    sp.set_defaults(func=cmd_poly_asym)

    sp = sub.add_parser("poly-typical", help="typical prime and mean Omega in the polynomial regime")
    _add_common(sp, weight=False, seed=True)
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--n", type=lambda v: int(float(v)), default=10**4, help="number of draws")
    sp.set_defaults(func=cmd_poly_typical)

    sp = sub.add_parser("ewens", help="Ewens / generalized Ewens cycle statistics")
    _add_common(sp, weight=False, x=False, seed=True)
    sp.add_argument("--n", type=int, required=True, help="permutation size")
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--poly-gamma", type=float, default=None, help="use polynomial cycle weights instead")
    sp.add_argument("--exact", action="store_true", help="exact enumeration (n <= 20)")
    sp.add_argument("--samples", type=lambda v: int(float(v)), default=10**4)
    sp.set_defaults(func=cmd_ewens)

    sp = sub.add_parser("dickman", help="solve the rho_theta delay equation")
    _add_common(sp, weight=False, x=False)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--umax", type=float, default=4.0)
    sp.add_argument("--step", type=float, default=1.0 / 256)
    sp.set_defaults(func=cmd_dickman)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--scale", choices=harness.SCALES, default="selftest")
    sp.add_argument("--cases", help="comma-separated case ids (default: all)")
    sp.add_argument("--junit", help="write a JUnit-style XML result file")
    sp.set_defaults(func=cmd_selftest)

    return ap


_CONFIG_KEYS = {
    "sieve-sum": {"weight", "x", "cutoff"},
    "conditions": {"weight", "x"},
    "sample": {"weight", "x", "n", "seed"},
    "exact-dist": {"weight", "x", "statistic", "p", "u"},
    "ek-compare": {"weight", "x", "seed"},
    "pd-compare": {"weight", "x", "n", "oracle_draws", "seed"},
    "smooth": {"weight", "x", "u", "step"},
    "small-prime": {"weight", "x", "p"},
    "poly-asym": {"K", "gamma", "x", "cutoff"},
    "poly-typical": {"K", "gamma", "x", "n", "seed"},
    "ewens": {"n", "theta", "poly_gamma", "exact", "samples", "seed"},
    "dickman": {"theta", "umax", "step"},
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command in _CONFIG_KEYS:
        if args.config:
            _load_config(args.config, ap, args.command)
            args = ap.parse_args(argv)
        if getattr(args, "weight", "missing") is None:
            raise SystemExit(f"{args.command}: --weight (or a config 'weight' entry) is required")
        if getattr(args, "x", "missing") is None:
            raise SystemExit(f"{args.command}: --x (or a config 'x' entry) is required")
    try:
        args.func(args)
    except (arith.CapacityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
