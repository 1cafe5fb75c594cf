"""Alternating parent/change runs of the benchmark, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py --bench 16 --what "one line on the change" \\
        --pairs scan-1e7=10 --pairs draw-1e6=10 --pairs perm-rho=10

The change is the working tree this script sits in, not yet committed.  The
parent is HEAD, exported with `git archive` into a temporary directory that is
removed on exit; nothing is registered in `.git`.  For each workload and seed
i = 1..n it runs

    python3 perfbench/run.py --workload <w> --seed <i> --seconds <s> --trace 0

with s the `run_seconds` of BENCHMARK.json, once in each tree, one right
after the other, the parent first on odd i and the change first on even i.  Both runs of a pair get PYTHONHASHSEED=i, so a
metric that depends on the hash seed (the draw workload's peak RSS has done
so) is compared at the same one, and the pairs cover several of them.

Each end-to-end metric of BENCHMARK.json is summarized per workload:
[q1, median, q3] of each side's runs, the pairs in which the change is better
in the metric's direction, median(change) / median(parent) - 1, whether a
claimed gain would hold (`gain_rule_met`) and whether the metric stays within
its bound (`within_bound`).  Every run's result line is kept under
`pairs_by_seed`.  Standard library only; it
reads BENCHMARK.json and runs perfbench/run.py but imports nothing from
perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


@contextlib.contextmanager
def exported(rev: str):
    """A temporary directory holding the files of commit `rev`."""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    env = {**os.environ, "PYTHONHASHSEED": str(seed)}
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(pairs: dict[str, dict], metrics: list[dict]) -> dict:
    """Quartiles, wins and median relative change of each metric over the pairs,
    and the two rules a claim is held to:

    gain_rule_met: the change wins at least 9 in 10 of the pairs, and its median
    beats the parent's by more than the parent's q3 - q1;
    within_bound: the change's median is worse than the parent's by at most the
    metric's `bound`, relative.
    """
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        par = [p["parent"]["metrics"][name]["value"] for p in pairs.values()]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs.values()]
        quart = (lambda v: statistics.quantiles(v, n=4, method="inclusive")) if len(par) > 1 else (lambda v: v * 3)
        (q1, med, q3), med_chg = quart(par), statistics.median(chg)
        wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
        out[name] = {
            "parent_q1_med_q3": [q1, med, q3],
            "change_q1_med_q3": quart(chg),
            "change_wins": wins,
            "pairs": len(par),
            "median_change_rel": med_chg / med - 1.0,
            "gain_rule_met": 10 * wins >= 9 * len(par) and sign * (med - med_chg) > q3 - q1,
            "within_bound": sign * (med_chg / med - 1.0) <= m["bound"],
        }
    out["correct_all"] = all(p[side]["correct"] for p in pairs.values() for side in ("parent", "change"))
    return out


def host() -> str:
    versions = ", ".join(f"{pkg} {metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    return (f"{len(os.sched_getaffinity(0))}-core {platform.machine()}, {platform.system()}, "
            f"Python {platform.python_version()}, {versions}")


def parse_pairs(raw: str) -> tuple[str, int]:
    workload, _, n = raw.partition("=")
    if not n.isdigit() or int(n) < 1:
        raise argparse.ArgumentTypeError(f"need <workload>=<pairs>, got {raw!r}")
    return workload, int(n)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", type=int, required=True, help="n of the BENCH_<n>.json written at the root")
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--pairs", type=parse_pairs, action="append", required=True, metavar="WORKLOAD=N",
                    help="run seeds 1..N of a workload on both sides; repeat per workload")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    for workload, _ in args.pairs:
        if workload not in known:
            ap.error(f"unknown workload {workload!r}; known: {sorted(known)}")
    seconds = bench["run_seconds"]
    parent = git("rev-parse", "--short", "HEAD").decode().strip()
    doc = {
        "bench": args.bench,
        "what": args.what,
        "parent": parent,
        "command": (f"python3 perfbench/run.py --workload <w> --seed <i> --seconds {seconds:g} --trace 0, "
                    "parent and change alternating (parent first on odd i), same seed and PYTHONHASHSEED=i "
                    "on both sides; " + ", ".join(f"{w} seeds 1-{n}" for w, n in args.pairs)),
        "host": host(),
        "quartiles": "[q1, median, q3] over runs (statistics.quantiles, inclusive)",
        "runs": {},
    }
    with exported(parent) as parent_tree:
        for workload, n in args.pairs:
            pairs = {}
            for seed in range(1, n + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                trees = {"parent": parent_tree, "change": ROOT}
                pairs[str(seed)] = {side: run_once(trees[side], workload, seed, seconds) for side in order}
                wall = {side: pairs[str(seed)][side]["metrics"]["wall_s"]["value"] for side in order}
                print(f"{workload} seed {seed}: wall_s parent {wall['parent']:.3f} change {wall['change']:.3f}",
                      file=sys.stderr, flush=True)
            doc["runs"][workload] = {"summary": summarize(pairs, bench["end_to_end"]), "pairs_by_seed": pairs}
    path = ROOT / f"BENCH_{args.bench}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
