"""The benchmark's workloads: fixed lists of CLI subcommands ("ops").

Every op is a `multweight` command line with each parameter given as an
explicit flag.  The workload seed reaches the program only as the `--seed`
of the sampled ops.  Each op also carries the `config` entries its JSON
report must show, so a report produced at another size than the one asked
for is caught (see `checks.check_config`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# 1/256 is exactly representable, so the flag and the parsed float agree.
STEP = "0.00390625"


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    name: unique within its workload; keys the reference values.
    argv: the command line, without `--json` (the runner adds it).
    expect: `config` entries the report must carry, typed as argparse
        parses them.
    draws: integers or cycle types the op samples (0 for exact ops).
    items: integers the op tabulates, for the scan throughput.
    """

    name: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    draws: int = 0
    items: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


def _scan_ops() -> list[Op]:
    return [
        Op("sieve-sum", ("sieve-sum", "--weight", "theta_omega:2", "--x", "1e5,1e6,1e7", "--cutoff", "1e6"),
           {"weight": "theta_omega:2", "x": "1e5,1e6,1e7", "cutoff": 10**6}, items=10**7),
        Op("exact-dist", ("exact-dist", "--weight", "divisor:2", "--x", "1e7", "--statistic", "big_omega"),
           {"weight": "divisor:2", "x": "1e7", "statistic": "big_omega"}, items=10**7),
        Op("smooth", ("smooth", "--weight", "power:0", "--x", "1e7", "--u", "1.5,2,3", "--step", STEP),
           {"weight": "power:0", "x": "1e7", "u": "1.5,2,3", "step": float(STEP)}, items=10**7),
        Op("small-prime", ("small-prime", "--weight", "powerfree:2", "--x", "1e7", "--p", "2,3,5"),
           {"weight": "powerfree:2", "x": "1e7", "p": "2,3,5"}, items=10**7),
        Op("poly-asym", ("poly-asym", "--x", "1e5,1e6,1e7", "--K", "1", "--gamma", "1", "--cutoff", "1e6"),
           {"x": "1e5,1e6,1e7", "K": 1.0, "gamma": 1.0, "cutoff": 10**6}, items=10**7),
        Op("conditions", ("conditions", "--weight", "divisor:2", "--x", "1e4,1e7"),
           {"weight": "divisor:2", "x": "1e4,1e7"}, items=10**7),
    ]


# Draw counts: the per-draw Python loops (factorize, spectrum,
# size_biased_prime) take most of a draw-1e6 pass; the 1e6 tables are a
# small share of it.
SAMPLE_N = 10**6
PD_N = 10**5
PD_ORACLE = 10**5
TYPICAL_N = 10**5


def _draw_ops(seed: int) -> list[Op]:
    s = str(seed)
    return [
        Op("sample", ("sample", "--weight", "theta_omega:2", "--x", "1e6", "--n", str(SAMPLE_N), "--seed", s),
           {"weight": "theta_omega:2", "x": "1e6", "n": SAMPLE_N, "seed": seed}, draws=SAMPLE_N),
        Op("pd-compare", ("pd-compare", "--weight", "power:0", "--x", "1e6", "--n", str(PD_N),
                          "--oracle-draws", str(PD_ORACLE), "--seed", s),
           {"weight": "power:0", "x": "1e6", "n": PD_N, "oracle_draws": PD_ORACLE, "seed": seed}, draws=PD_N),
        Op("poly-typical", ("poly-typical", "--x", "1e6", "--K", "1", "--gamma", "1", "--n", str(TYPICAL_N),
                            "--seed", s),
           {"x": "1e6", "K": 1.0, "gamma": 1.0, "n": TYPICAL_N, "seed": seed}, draws=TYPICAL_N),
    ]


# Cycle-type draws per sampled ewens op, keyed by op name.
EWENS_SAMPLES = {"ewens-poly-1e4": 200, "ewens-poly-1e5": 40, "ewens-theta-1e5": 250}


def _perm_ops(seed: int) -> list[Op]:
    s = str(seed)
    specs = [
        ("ewens-poly-1e4", ("--poly-gamma", "1"), {"poly_gamma": 1.0}, 10**4),
        ("ewens-poly-1e5", ("--poly-gamma", "1"), {"poly_gamma": 1.0}, 10**5),
        ("ewens-theta-1e5", ("--theta", "1"), {"theta": 1.0}, 10**5),
    ]
    ops = []
    for name, flags, expect, n in specs:
        k = EWENS_SAMPLES[name]
        ops.append(Op(name, ("ewens", *flags, "--n", str(n), "--samples", str(k), "--seed", s),
                      {**expect, "n": n, "samples": k, "seed": seed}, draws=k))
    ops.append(Op("ewens-exact-12", ("ewens", "--theta", "1", "--n", "12", "--exact"),
                  {"theta": 1.0, "n": 12, "exact": True}))
    for theta in ("0.5", "1", "2"):
        ops.append(Op(f"dickman-{theta}", ("dickman", "--theta", theta, "--umax", "4", "--step", STEP),
                      {"theta": float(theta), "umax": 4.0, "step": float(STEP)}))
    return ops


WORKLOADS = {
    "scan-1e7": lambda seed: _scan_ops(),
    "draw-1e6": _draw_ops,
    "perm-rho": _perm_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one workload for one seed (same seed, same ops)."""
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed)
