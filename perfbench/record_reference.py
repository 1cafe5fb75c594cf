"""Record `reference.json`, the values the benchmark's checks compare with.

    python3 perfbench/record_reference.py

Run once, at the commit whose outputs are the reference, from the root of
its checkout.  It writes two blocks:

* "exact": the exact (seed-independent) fields of every op's report, as
  `checks.exact_fields` selects them, from one run of each op.
* "expect": mean and standard deviation of each sampled statistic under the
  exact law, from the x = 1e6 weight tables and the partition tables.  The
  benchmark's z-checks use these.

Unlike the benchmark itself, this script calls library functions directly,
so it is tied to the API of the commit it records.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

import checks
import run
import workloads

# Golomb-Dickman constant: E V1 for Poisson-Dirichlet(1), the law the
# pd-compare oracle draws for the power:0 weight (theta = 1).  V1 lies in
# [0, 1], so its standard deviation is at most 1/2.
GOLOMB_DICKMAN = 0.62432998854355087099


def _moments(values: np.ndarray, probs: np.ndarray) -> dict:
    mean = float(np.dot(values, probs))
    var = float(np.dot((values - mean) ** 2, probs))
    return {"mean": mean, "sd": math.sqrt(var)}


def integer_expectations(mw) -> dict:
    """Law of N and of log p1(N)/log x under the weights the draw ops use."""
    x = 10**6
    spf = mw.arith.build_spf(x)
    n = np.arange(x + 1, dtype=float)
    theta2 = mw.weights.build_weight_table(mw.cli.parse_weight_spec("theta_omega:2"), x, spf)
    uniform = mw.weights.build_weight_table(mw.cli.parse_weight_spec("power:0"), x, spf)
    lpf = mw.arith.largest_prime_table(spf)[: x + 1].astype(float)
    lpf[:2] = 1.0
    return {
        "sample": {"N": _moments(n[1:], theta2.alpha[1:] / theta2.S)},
        "pd-compare": {
            "log_p1_ratio": _moments(np.log(lpf[1:]) / math.log(x), uniform.alpha[1:] / uniform.S),
            "pd_V1": {"mean": GOLOMB_DICKMAN, "sd": 0.5},
        },
    }


def cycle_expectations(perm, op) -> dict:
    """Law of the first-cycle length L1 and of the cycle count C at size n.

    E C(C-1) = sum_{j,k} a_j a_k h_{n-j-k} / h_n with a_j = theta_j / j,
    a self-convolution done by FFT.
    """
    n = op.expect["n"]
    w = (perm.poly_weights(op.expect["poly_gamma"], n) if "poly_gamma" in op.expect
         else perm.constant_weights(n, op.expect["theta"]))
    table = perm.partition_function(w)
    l1 = _moments(np.arange(1, n + 1, dtype=float), perm.first_cycle_pmf(table, n))
    a = np.concatenate([[0.0], w.theta / np.arange(1, n + 1)])
    conv = fftconvolve(a, a)[: n + 1]
    ratio = np.exp(table.log_h[n - np.arange(n + 1)] - table.log_h[n])
    mean_c = perm.exact_mean_cycle_count(table)
    var_c = float(np.dot(conv[2:], ratio[2:])) + mean_c - mean_c**2
    if "theta" in op.expect and op.expect["theta"] == 1.0:
        # Ewens(1): C is a sum of independent Bernoulli(1/i)
        i = np.arange(1, n + 1, dtype=float)
        closed = float(np.sum((1 / i) * (1 - 1 / i)))
        if not abs(var_c - closed) < 1e-8 * closed:
            raise SystemExit(f"Var C by convolution {var_c} != closed form {closed}")
    return {"L1": l1, "C": {"mean": mean_c, "sd": math.sqrt(var_c)}}


def main() -> int:
    cli = run.import_cli()
    import multweight as mw

    exact = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.make_ops(workload, seed=0):
                path = Path(tmp) / f"{op.name}.json"
                if cli.main([*op.argv, "--json", str(path)]) not in (0, None):
                    raise SystemExit(f"{op.name} failed")
                with open(path) as fh:
                    exact[op.name] = checks.exact_fields(op.command, json.load(fh)["results"])
                print(f"{op.name}: {len(exact[op.name])} exact fields", file=sys.stderr)
    expect = integer_expectations(mw)
    for op in workloads.make_ops("perm-rho", seed=0):
        if op.draws:
            expect[op.name] = cycle_expectations(mw.permutations, op)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump({"exact": exact, "expect": expect}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
