"""Output checks for the benchmark's ops.

An op fails when its report is missing or unreadable, when the report's
`config` disagrees with the command line the benchmark generated, or when
a check below fails.

* Exact outputs (S(x) rows, pmf heads and means, exact E Omega, rho at
  grid points, ...) must match the values recorded at the seed commit in
  `reference.json` to REL_TOL relative.
* Sampled outputs are compared with seed-independent exact expectations
  (also in `reference.json`, computed from the x = 1e6 weight tables and
  from the partition tables) within Z_MAX standard errors, so any seed
  and any correct sample stream pass while a wrong sampler fails.
* A Dickman solution must pass its own residual check.
"""

from __future__ import annotations

import json
import math
from fnmatch import fnmatchcase
from pathlib import Path

REL_TOL = 1e-12
Z_MAX = 5.0
MAX_RESIDUAL = 1e-8
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Flattened result keys that are exact (seed-independent) per subcommand.
EXACT_KEYS = {
    "sieve-sum": ["rows.*.x", "rows.*.exact"],
    "exact-dist": ["mean", "atoms", "pmf_head.*"],
    "smooth": ["rows.*.u", "rows.*.exact", "rows.*.rho"],
    "small-prime": ["max_gap", "atoms"],
    "poly-asym": ["rows.*.x", "rows.*.sigma", "rows.*.ratio", "double_ratios.*"],
    "conditions": ["condition_I_residuals.*", "condition_II_margin"],
    "poly-typical": ["mean_omega_exact", "mean_omega_predicted", "ratio", "gamma_law.*"],
    "ewens": ["l1_pmf.*", "cycle_count_pmf.*"],
    "dickman": ["rho.*", "grid_points"],
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def flatten(obj, prefix: str = "") -> dict:
    """Nested dicts and lists as {"a.0.b": leaf}."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for k, v in items:
        out.update(flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def exact_fields(command: str, results: dict) -> dict:
    """The exact outputs of one report, flattened."""
    patterns = EXACT_KEYS.get(command, [])
    return {k: v for k, v in flatten(results).items() if any(fnmatchcase(k, p) for p in patterns)}


def _close(value, ref) -> bool:
    if isinstance(ref, bool) or isinstance(value, bool):
        return value is ref
    if isinstance(ref, int) and isinstance(value, int):
        return value == ref
    if not isinstance(value, (int, float)) or not isinstance(ref, (int, float)):
        return False
    return abs(value - ref) <= REL_TOL * abs(ref)


def check_config(op, report: dict) -> list[str]:
    errors = []
    if report.get("command") != op.command:
        errors.append(f"command {report.get('command')!r} != {op.command!r}")
    config = report.get("config")
    if not isinstance(config, dict):
        return errors + ["report has no config block"]
    for key, want in op.expect.items():
        got = config.get(key)
        if got != want or type(got) is not type(want):
            errors.append(f"config {key}={got!r}, benchmark asked for {want!r}")
    return errors


def check_exact(op, results: dict, reference: dict) -> list[str]:
    want = reference["exact"].get(op.name, {})
    got = exact_fields(op.command, results)
    errors = [f"exact field {k} missing" for k in sorted(set(want) - set(got))]
    errors += [f"exact field {k} not in reference" for k in sorted(set(got) - set(want))]
    errors += [f"{k}={got[k]!r}, reference {want[k]!r}" for k in sorted(set(got) & set(want))
               if not _close(got[k], want[k])]
    return errors


def _z_check(label: str, mean, n: int, expect: dict) -> list[str]:
    """|mean - E| within Z_MAX standard errors of a mean over n draws."""
    if not isinstance(mean, (int, float)) or not math.isfinite(mean) or n < 1:
        return [f"{label}: no usable sample mean ({mean!r} over {n})"]
    se = expect["sd"] / math.sqrt(n)
    z = abs(mean - expect["mean"]) / se
    if not z <= Z_MAX:
        return [f"{label}: sample mean {mean!r} is {z:.1f} standard errors from {expect['mean']!r}"]
    return []


def check_sampled(op, results: dict, reference: dict) -> list[str]:
    expect = reference["expect"].get(op.name)
    if expect is None:
        return []
    if op.command == "sample":
        if results.get("n_samples") != op.draws:
            return [f"n_samples {results.get('n_samples')!r} != {op.draws}"]
        return _z_check("E N", results.get("mean"), op.draws, expect["N"])
    if op.command == "pd-compare":
        rows = {r.get("stat"): r for r in results.get("rows", []) if isinstance(r, dict)}
        first = rows.get("coord_1_mean", {})
        return (_z_check("E log p1/log x", first.get("sample"), op.draws, expect["log_p1_ratio"])
                + _z_check("GEM oracle E V1", first.get("pd_oracle"), op.expect["oracle_draws"], expect["pd_V1"]))
    if op.command == "ewens":
        return (_z_check("E L1", results.get("l1_mean"), op.draws, expect["L1"])
                + _z_check("E C", results.get("mean_cycles"), op.draws, expect["C"]))
    return []


def check_report(op, path: Path, reference: dict) -> list[str]:
    """Every reason the op's report at `path` fails (empty when it passes)."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as e:
        return [f"report unreadable: {e}"]
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        return ["report has no results block"]
    results = report["results"]
    errors = check_config(op, report) + check_exact(op, results, reference) + check_sampled(op, results, reference)
    if op.command == "dickman":
        res = results.get("max_residual")
        if not isinstance(res, (int, float)) or not res <= MAX_RESIDUAL:
            errors.append(f"max_residual {res!r} > {MAX_RESIDUAL}")
    return errors
