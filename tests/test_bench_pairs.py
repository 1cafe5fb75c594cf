import argparse
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(wall, rss, correct=True):
    return {"correct": correct, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_counts_wins_in_each_metrics_direction():
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]
    pairs = {"1": {"parent": _run(2.0, 280.0), "change": _run(1.0, 210.0)},
             "2": {"parent": _run(3.0, 290.0), "change": _run(3.5, 200.0)},
             "3": {"parent": _run(4.0, 300.0), "change": _run(2.0, 205.0)}}
    out = bench_pairs.summarize(pairs, metrics)
    assert out["wall_s"] == {"parent_q1_med_q3": [2.5, 3.0, 3.5], "change_q1_med_q3": [1.5, 2.0, 2.75],
                             "change_wins": 2, "pairs": 3, "median_change_rel": 2.0 / 3.0 - 1.0}
    assert out["peak_rss_mb"]["change_wins"] == 3
    assert out["correct_all"]
    pairs["2"]["parent"]["correct"] = False
    assert not bench_pairs.summarize(pairs, metrics)["correct_all"]
    higher = bench_pairs.summarize(pairs, [{"name": "wall_s", "better": "higher"}])
    assert higher["wall_s"]["change_wins"] == 1


def test_pairs_flag_names_a_workload_and_a_positive_count():
    assert bench_pairs.parse_pairs("scan-1e7=10") == ("scan-1e7", 10)
    for raw in ("scan-1e7", "scan-1e7=0", "scan-1e7=-1", "scan-1e7=x"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_pairs(raw)
