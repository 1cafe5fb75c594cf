"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scan-1e7 --seed 1 --seconds 34 --trace 0

The checkout is the directory above `perfbench/`; the program is imported
from its `src/` and nowhere else.  The workload's ops (see `workloads.py`)
run in this one process through `multweight.cli.main(argv)`, one after
another (a single client in a closed loop), in passes, until the next pass
would end after `--seconds`, but at least MIN_PASSES times.  Every report
is checked (see `checks.py`).

--trace 0 prints the end-to-end metrics of untraced passes.  --trace 1
runs every op untraced and traced, prints the per-layer metrics of the
traced runs and the tracing overhead, and writes the spans to
`.perfbench/spans-<workload>-seed<n>.npz`.  The last line of standard output
is always the result object; progress goes to standard error.
"""

from __future__ import annotations

import os

# A single client: BLAS may use the machine's cores, no more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
MIN_PASSES = 2


def import_cli():
    """`multweight.cli` from this checkout's `src/`, or exit with an error."""
    if not (SRC / "multweight" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/multweight under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from multweight import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported multweight from {cli.__file__}, not from {SRC}")
    return cli


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from interpreter start to imported CLI and generated ops."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Pass:
    """Timings and failures of one pass over a workload's ops."""

    op_seconds: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, list[str]]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.op_seconds.values())

    def record(self, name: str, seconds: float, errors: list[str]) -> None:
        self.op_seconds[name] = seconds
        if errors:
            self.failures.append((name, errors))


def run_op(cli, op, workdir: Path, reference: dict) -> tuple[float, list[str]]:
    """Run one op through the CLI and check its report.

    Returns the seconds from the start of the op to the end of its check,
    and the reasons it failed (none when it passed).
    """
    path = workdir / f"{op.name}.json"
    path.unlink(missing_ok=True)
    t0 = perf_counter()
    try:
        code = cli.main([*op.argv, "--json", str(path)])
    except SystemExit as e:
        code = e.code
    except Exception:  # an op that crashes is a failed op, not a failed benchmark
        traceback.print_exc()
        code = "exception"
    errors = [f"exit {code!r}"] if code not in (0, None) else checks.check_report(op, path, reference)
    return perf_counter() - t0, errors


def run_pass(cli, ops, workdir: Path, reference: dict) -> Pass:
    p = Pass()
    for op in ops:
        p.record(op.name, *run_op(cli, op, workdir, reference))
    gc.collect()
    return p


def items_per_s(ops, p: Pass) -> float:
    """Draws per second over the sampled ops, else integers tabulated per second."""
    sampled = [op for op in ops if op.draws]
    if sampled:
        return sum(op.draws for op in sampled) / sum(p.op_seconds[op.name] for op in sampled)
    return sum(op.items for op in ops) / p.wall


def result_line(passes: list[Pass], ops, metrics: dict, units: dict) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: no value for metrics {sorted(missing)}")
    failed = sum(len(p.failures) for p in passes)
    return {
        "correct": failed == 0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def log_pass(kind: str, p: Pass) -> None:
    ops = " ".join(f"{k}={v:.2f}" for k, v in p.op_seconds.items())
    log(f"[{kind}] wall {p.wall:.3f}s  {ops}")
    for name, errors in p.failures:
        log(f"[{kind}] FAILED {name}: " + "; ".join(errors))


def measure(cli, ops, workdir, reference, seconds: float) -> tuple[list[Pass], dict]:
    """Untraced passes until the next one would end after `seconds`."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(cli, ops, workdir, reference))
        log_pass("pass", passes[-1])
        if len(passes) >= MIN_PASSES and perf_counter() - t0 + passes[-1].wall > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "items_per_s": statistics.median(items_per_s(ops, p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes, metrics


def measure_traced(cli, ops, workdir, reference, seconds: float, span_path: Path) -> tuple[list[Pass], dict]:
    """Each op untraced and traced back to back, in rounds; per-layer metrics of the traced runs.

    Back-to-back runs keep slow drifts of the machine's speed out of the
    tracing overhead.  Which of the two runs first alternates between rounds,
    because some ops are slower on their first call in a process.
    """
    import spans as spanlib

    passes, saved, overheads = [], [], []
    t0 = perf_counter()
    while True:
        plain, traced, tracer = Pass(), Pass(), spanlib.Tracer()
        for i, op in enumerate(ops):
            for p in (plain, traced) if len(saved) % 2 == 0 else (traced, plain):
                with tracer.installed(op_id=i) if p is traced else nullcontext():
                    p.record(op.name, *run_op(cli, op, workdir, reference))
        gc.collect()
        log_pass("untraced", plain)
        log_pass("traced", traced)
        passes += [plain, traced]
        saved.append(tracer.spans)
        overheads.append(traced.wall - plain.wall)
        if perf_counter() - t0 + plain.wall + traced.wall > seconds:
            break
    per_round = [spanlib.layer_metrics(spans) for spans in saved]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    count = spanlib.write_span_file(span_path, saved, [op.name for op in ops])
    log(f"spans: {count} in {span_path}")
    for name in sorted(metrics):
        log(f"  {name:40s} {metrics[name]:.6g}")
    return passes, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cli = import_cli()
    ops = workloads.make_ops(args.workload, args.seed)
    if args.setup_probe:
        return 0
    e2e_units, layer_units = metric_units()
    reference = checks.load_reference()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reports-", dir=OUT))
    try:
        if args.trace:
            span_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            passes, metrics = measure_traced(cli, ops, workdir, reference, args.seconds, span_path)
            units = layer_units
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            passes, metrics = measure(cli, ops, workdir, reference, args.seconds)
            metrics["setup_s"] = setup_s
            units = e2e_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_line(passes, ops, metrics, units)
    log(f"fail_frac {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
