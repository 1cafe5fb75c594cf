"""Batch experiment runner.

One experiment per process invocation; every subcommand writes
machine-readable CSV and/or a JSON report carrying the full configuration
and seed, so identical config + seed reproduces the report byte for byte
(apart from its timing block).  The experiments themselves live in
`experiments`; this module parses flags and writes reports.

CSV column schemas, by subcommand:
  sieve-sum     (x,exact,predicted,ratio)
  conditions    (x,residual)
  sample        (value)
  exact-dist    (value,probability)
  ek-compare    (x,ks)
  pd-compare    (stat,sample,pd_oracle)
  smooth        (u,exact,rho,diff)
  small-prime   (p,k,exact,limit,gap)
  poly-asym     (x,sigma,residual,exact,predicted,ratio)
  poly-typical  (stat,ks,n_samples,seed)
  ewens         (value,probability) with --exact; else one sampled cycle
                type per row, lengths nonincreasing, no header
  dickman       (u,rho)
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import sys
import time

import numpy as np

from . import __version__, arith, experiments, harness, permutations, weights


def parse_weight_spec(spec) -> weights.MultiplicativeWeight:
    """Weight from 'kind:param[:param]' or a {'kind': ..., params} mapping;
    ValueError if the kind, a parameter or a value is bad."""
    if not isinstance(spec, dict):
        kind, *args = str(spec).split(":")
        names = weights.WEIGHT_KINDS.get(kind)
        if names is not None and len(args) != len(names):
            raise ValueError(f"weight {kind} takes {len(names)} parameter(s): {names}")
        spec = {"kind": kind, **dict(zip(names or (), args))}
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind is None:
        raise ValueError("weight mapping needs a 'kind' key")
    return weights.builtin_weight(kind, **params)


def _positive_int(raw: str) -> int:
    """A positive integer, 1e4 style accepted: a draw count or a size."""
    try:
        v = float(raw)
    except ValueError:
        v = math.nan
    if not (v >= 1 and v.is_integer()):
        raise argparse.ArgumentTypeError(f"need a positive integer, got {raw}")
    return int(v)


def _seed(raw: str) -> int:
    """A non-negative integer: a seed of np.random.default_rng."""
    try:
        v = int(raw)
    except ValueError:
        v = -1
    if v < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {raw}")
    return v


def _cutoff(raw: str) -> int:
    """A prime cutoff: a positive integer >= 2, since the Euler product and G(s) need a prime."""
    v = _positive_int(raw)
    if v < 2:
        raise argparse.ArgumentTypeError(f"need an integer >= 2, got {raw}")
    return v


def _parse_x_list(raw: str) -> list[int]:
    xs = [_positive_int(t) for t in str(raw).split(",") if t]
    if not xs:
        raise argparse.ArgumentTypeError(f"need at least one positive integer, got {raw!r}")
    return xs


def _parse_u_list(raw: str) -> list[float]:
    try:
        return [float(t) for t in str(raw).split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated numbers, got {raw}") from None


def _parse_p_list(raw: str) -> list[int]:
    try:
        return [int(t) for t in str(raw).split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated integers, got {raw}") from None


def _as_written(parse):
    """A flag type that checks its value with `parse` and keeps it as written
    for the report's config; the command parses it again."""

    def check(raw: str) -> str:
        parse(raw)
        return raw

    return check


_x_spec = _as_written(_parse_x_list)
_one_x = _as_written(_positive_int)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_rows(path, rows: list[dict]):
    """CSV of dict rows, one column per key, when a path is given."""
    if path:
        _write_csv(path, list(rows[0]), [r.values() for r in rows])


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
        "timing": {
            "runtime_seconds": time.time() - t0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            # the process's peak resident set so far (ru_maxrss is in KiB on Linux)
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _subparser(ap: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices[command]


def _load_config(path: str, ap: argparse.ArgumentParser, command: str) -> None:
    """Make a JSON config file's entries, converted by their flags' types (a
    JSON true or false for --exact), the defaults of the command's subparser;
    flags parsed afterwards win.

    Unknown keys and bad values fail loudly instead of running a different
    experiment than intended, with the usage-error exit status 2 of a bad
    flag.
    """
    sp = _subparser(ap, command)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            sp.error(f"config error: {path} is not valid JSON ({e})")
    if not isinstance(doc, dict):
        sp.error("config error: top level must be an object")
    actions = {a.dest: a for a in sp._actions if a.dest not in ("config", "out", "json_path", "help")}
    unknown = set(doc) - set(actions)
    if unknown:
        sp.error(f"config error: unknown keys {sorted(unknown)}; allowed: {sorted(actions)}")
    for k, v in doc.items():
        if actions[k].nargs == 0 and not isinstance(v, bool):  # a flag without a value, such as --exact
            sp.error(f"config error: {k}={v!r} is invalid (a flag takes a JSON true or false)")
        if actions[k].type is not None:
            try:
                doc[k] = actions[k].type(str(v))
            except (ValueError, TypeError, argparse.ArgumentTypeError) as e:
                sp.error(f"config error: {k}={v!r} is invalid ({e})")
    sp.set_defaults(**doc)


# --------------------------------------------------------------------------
# subcommands: each runs one experiment on the weight parsed from --weight
# (None for the commands without it), writes its CSV and returns the
# report's results block
# --------------------------------------------------------------------------


def cmd_sieve_sum(args, w):
    rows = experiments.sieve_sum(w, _parse_x_list(args.x), args.cutoff)
    _write_rows(args.out, rows)
    return {"rows": rows}


def cmd_conditions(args, w):
    results = experiments.conditions(w, _parse_x_list(args.x))
    _write_rows(args.out, results["condition_I_residuals"])
    return results


def cmd_sample(args, w):
    draws = experiments.sample(w, _positive_int(args.x), args.n, args.seed)
    if args.out:  # in draw order, streamed 2^16 rows at a time
        _write_csv(args.out, ["value"], ((v,) for i in range(0, len(draws), 1 << 16)
                                         for v in draws[i : i + (1 << 16)].tolist()))
    mean = float(np.mean(draws))
    # sorted in place: each value is a run, and its count is the run's length;
    # the run starts are int32 where n allows, half the bytes of int64
    draws.sort()
    index = np.int32 if len(draws) < 2**31 else np.int64
    starts = np.flatnonzero(np.r_[True, draws[1:] != draws[:-1]]).astype(index)
    counts = np.diff(starts, append=index(len(draws)))
    return {
        "n_samples": args.n,
        "seed": args.seed,
        "mean": mean,
        "distinct": len(starts),
        "top": [{"value": int(draws[starts[i]]), "count": int(counts[i])} for i in
                np.argsort(-counts, kind="stable")[:10]],
    }


def cmd_exact_dist(args, w):
    pmf = experiments.exact_dist(w, _positive_int(args.x), args.statistic, p=args.p, u=args.u)
    if args.out:
        _write_csv(args.out, ["value", "probability"], zip(pmf.values.tolist(), pmf.probs.tolist()))
    return {"statistic": args.statistic, "mean": pmf.mean(), "atoms": len(pmf.values),
            "pmf_head": [{"value": float(v), "probability": float(p_)} for v, p_ in
                         zip(pmf.values[:20], pmf.probs[:20])]}


def cmd_ek_compare(args, w):
    xs = _parse_x_list(args.x)
    kss = experiments.omega_clt_ks(w, xs)
    rows = [{"x": x, "ks": ks} for x, ks in zip(xs, kss)]
    _write_rows(args.out, rows)
    return {"rows": rows}


def cmd_pd_compare(args, w):
    rows = experiments.pd_compare(w, _positive_int(args.x), args.n, args.oracle_draws, args.seed)
    _write_rows(args.out, rows)
    return {"rows": rows, "n_samples": args.n, "seed": args.seed}


def cmd_smooth(args, w):
    us = _parse_u_list(args.u)
    rows = experiments.smooth(w, _positive_int(args.x), us, args.step)
    if args.out:
        _write_csv(args.out, ["u", "exact", "rho", "diff"],
                   [(r["u"], r["exact"], r["rho"], r["exact"] - r["rho"]) for r in rows])
    return {"rows": rows}


def cmd_small_prime(args, w):
    ps = _parse_p_list(args.p)
    rows = experiments.small_prime(w, _positive_int(args.x), ps)
    _write_rows(args.out, rows)
    return {"max_gap": max(r["gap"] for r in rows), "atoms": len(rows)}


def cmd_poly_asym(args, w):
    rows = experiments.poly_asym(args.K, args.gamma, _parse_x_list(args.x), args.cutoff)
    _write_rows(args.out, rows)
    return {"rows": [{"x": r["x"], "sigma": r["sigma"], "ratio": r["ratio"]} for r in rows],
            "double_ratios": [b["ratio"] / a["ratio"] for a, b in zip(rows, rows[1:])]}


def cmd_poly_typical(args, w):
    results = experiments.poly_typical(args.K, args.gamma, _positive_int(args.x), args.n, args.seed)
    if args.out:
        _write_csv(args.out, ["stat", "ks", "n_samples", "seed"],
                   [("log_P1_scaled_vs_gamma", results["ks"], args.n, args.seed)])
    return {**results, "seed": args.seed}


def cmd_ewens(args, w):
    n = args.n
    cycles = experiments.cycle_weights(n, args.theta, args.poly_gamma)
    if args.exact:
        exact = permutations.enumerate_Sn(n, cycles)
        if args.out:
            _write_csv(args.out, ["value", "probability"], [(k, float(exact.l1_pmf[k])) for k in range(1, n + 1)])
        return {
            "l1_pmf": {str(k): float(exact.l1_pmf[k]) for k in range(1, n + 1)},
            "cycle_count_pmf": {str(k): float(v) for k, v in enumerate(exact.cycle_count_pmf()) if v > 0},
        }
    rows, lengths = experiments.cycle_types(cycles, args.samples, args.seed)
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    if args.out:
        # one sample per row, cycle lengths sorted nonincreasing
        with open(args.out, "w", newline="") as fh:
            by_row = np.split(lengths[np.lexsort((-lengths, rows))], firsts[1:])
            csv.writer(fh).writerows(r.tolist() for r in by_row)
    return {
        "l1_mean": float(lengths[firsts].mean()),
        "mean_cycles": len(lengths) / args.samples,
        "seed": args.seed,
    }


def cmd_dickman(args, w):
    sol, results = experiments.dickman(args.theta, args.umax, args.step)
    if args.out:
        _write_csv(args.out, ["u", "rho"], zip(sol.grid.tolist(), sol.values.tolist()))
    return results


def cmd_selftest(args, w):
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


def _add_common(sp, *, weight=True, x=_x_spec, seed=False, out=True):
    """The flags most commands share; x is the --x type (_x_spec for a list,
    _one_x for one bound) or None for a command without --x."""
    sp.add_argument("--config", help="JSON config file; CLI flags override its keys")
    if weight:
        sp.add_argument("--weight", help="weight spec, e.g. theta_omega:2 or divisor:2")
    if x:
        sp.add_argument("--x", type=x, help="range bound(s), comma separated where several; 1e6 style accepted")
    if seed:
        sp.add_argument("--seed", type=_seed, default=0)
    if out:
        sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--json", dest="json_path", help="JSON report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="multweight", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sieve-sum", help="exact S(x) against the mean-value predictor")
    _add_common(sp)
    sp.add_argument("--cutoff", type=_cutoff, default=10**6, help="prime cutoff for constants")
    sp.set_defaults(func=cmd_sieve_sum)

    sp = sub.add_parser("conditions", help="numeric residuals of the weight hypotheses")
    _add_common(sp)
    sp.set_defaults(func=cmd_conditions)

    sp = sub.add_parser("sample", help="draw integers from the weighted measure")
    _add_common(sp, x=_one_x, seed=True)
    sp.add_argument("--n", type=_positive_int, default=1000, help="number of draws")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("exact-dist", help="exact law of a factorization statistic")
    _add_common(sp, x=_one_x)
    sp.add_argument("--statistic", default="big_omega", help=f"one of {experiments.STATISTICS}")
    sp.add_argument("--p", type=int, default=2, help="prime for the nu statistic")
    sp.add_argument("--u", type=float, default=2.0, help="smoothness parameter for the smooth statistic")
    sp.set_defaults(func=cmd_exact_dist)

    sp = sub.add_parser("ek-compare", help="normalized prime-factor counts against N(0,1)")
    _add_common(sp)
    sp.set_defaults(func=cmd_ek_compare)

    sp = sub.add_parser("pd-compare", help="log-prime spectrum against the Poisson-Dirichlet law")
    _add_common(sp, x=_one_x, seed=True)
    sp.add_argument("--n", type=_positive_int, default=10**4, help="number of draws")
    sp.add_argument("--oracle-draws", type=_positive_int, default=10**5)
    sp.set_defaults(func=cmd_pd_compare)

    sp = sub.add_parser("smooth", help="exact smoothness probabilities against rho_theta")
    _add_common(sp, x=_one_x)
    sp.add_argument("--u", type=_as_written(_parse_u_list), default="2",
                    help="u values, comma separated (smooth means p1 <= x^(1/u))")
    sp.add_argument("--step", type=float, default=1.0 / 256)
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("small-prime", help="exact nu_p law against its limit")
    _add_common(sp, x=_one_x)
    sp.add_argument("--p", type=_as_written(_parse_p_list), default="2", help="primes, comma separated")
    sp.set_defaults(func=cmd_small_prime)

    sp = sub.add_parser("poly-asym", help="polynomial-regime partition-sum predictor")
    _add_common(sp, weight=False)
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--cutoff", type=_cutoff, default=10**6)
    sp.set_defaults(func=cmd_poly_asym)

    sp = sub.add_parser("poly-typical", help="typical prime and mean Omega in the polynomial regime")
    _add_common(sp, weight=False, x=_one_x, seed=True)
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--n", type=_positive_int, default=10**4, help="number of draws")
    sp.set_defaults(func=cmd_poly_typical)

    sp = sub.add_parser("ewens", help="Ewens / generalized Ewens cycle statistics")
    _add_common(sp, weight=False, x=None, seed=True)
    sp.add_argument("--n", type=_positive_int, help="permutation size")
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--poly-gamma", type=float, default=None, help="use polynomial cycle weights instead")
    sp.add_argument("--exact", action="store_true", help="exact enumeration (n <= 20)")
    sp.add_argument("--samples", type=_positive_int, default=10**4)
    sp.set_defaults(func=cmd_ewens)

    sp = sub.add_parser("dickman", help="solve the rho_theta delay equation")
    _add_common(sp, weight=False, x=None)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--umax", type=float, default=4.0)
    sp.add_argument("--step", type=float, default=1.0 / 256)
    sp.set_defaults(func=cmd_dickman)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--scale", choices=harness.SCALES, default="selftest")
    sp.add_argument("--cases", help="comma-separated case ids (default: all)")
    sp.add_argument("--junit", help="write a JUnit-style XML result file")
    sp.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    w = None
    if hasattr(args, "config"):
        if args.config:
            _load_config(args.config, ap, args.command)
            args = ap.parse_args(argv)
        sp = _subparser(ap, args.command)
        for key in ("weight", "x", "n", "theta"):
            if getattr(args, key, "missing") is None:
                sp.error(f"--{key} (or a config {key!r} entry) is required")
        if hasattr(args, "weight"):
            try:
                w = parse_weight_spec(args.weight)
            except ValueError as e:
                sp.error(f"invalid weight {args.weight!r}: {e}")
    t0 = time.time()
    try:
        results = args.func(args, w)
    except (arith.CapacityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if results is not None:
        _report(args, results, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
