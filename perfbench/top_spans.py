"""Per-function self time, per op, from a span file of a traced run.

    python3 perfbench/top_spans.py .perfbench/spans-scan-1e7-seed1.npz [--top 40]

Figures are per traced pass: totals over the file divided by its passes.
"""

from __future__ import annotations

import argparse
from collections import defaultdict

import spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args(argv)
    rows, _, passes = spans.read_span_file(args.path)
    total, calls = defaultdict(float), defaultdict(int)
    for s, self_s in zip(rows, spans.self_times(rows)):
        total[s[4], s[0]] += self_s
        calls[s[4], s[0]] += 1
    print(f"{'op':18s} {'function':45s} {'self_s':>9s} {'calls':>9s}")
    for key, t in sorted(total.items(), key=lambda kv: -kv[1])[: args.top]:
        print(f"{key[0]:18s} {key[1]:45s} {t / passes:9.3f} {calls[key] // passes:9d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
