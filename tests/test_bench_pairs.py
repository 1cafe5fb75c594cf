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
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    pairs = {"1": {"parent": _run(2.0, 280.0), "change": _run(1.0, 210.0)},
             "2": {"parent": _run(3.0, 290.0), "change": _run(3.5, 200.0)},
             "3": {"parent": _run(4.0, 300.0), "change": _run(2.0, 205.0)}}
    out = bench_pairs.summarize(pairs, metrics)
    assert out["wall_s"] == {"parent_q1_med_q3": [2.5, 3.0, 3.5], "change_q1_med_q3": [1.5, 2.0, 2.75],
                             "change_wins": 2, "pairs": 3, "median_change_rel": 2.0 / 3.0 - 1.0,
                             "gain_rule_met": False, "within_bound": True}
    assert out["peak_rss_mb"]["change_wins"] == 3
    assert out["peak_rss_mb"]["gain_rule_met"]
    assert out["correct_all"]
    pairs["2"]["parent"]["correct"] = False
    assert not bench_pairs.summarize(pairs, metrics)["correct_all"]
    higher = bench_pairs.summarize(pairs, [{"name": "wall_s", "better": "higher", "bound": 0.25}])
    assert higher["wall_s"]["change_wins"] == 1
    assert not higher["wall_s"]["gain_rule_met"]
    assert not higher["wall_s"]["within_bound"]  # a third lower, where higher is better


def _pairs(parent, change, name="wall_s"):
    """Pairs of runs with one metric, parent[i] against change[i]."""
    run = lambda v: {"correct": True, "metrics": {name: {"value": v}}}
    return {str(i): {"parent": run(p), "change": run(c)} for i, (p, c) in enumerate(zip(parent, change), 1)}


def test_gain_rule_needs_nine_in_ten_wins_and_a_gap_past_the_parents_spread():
    lower = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, q3 - q1 = 0.45
    rule = lambda change: bench_pairs.summarize(_pairs(parent, change), lower)["wall_s"]["gain_rule_met"]
    assert rule([p - 0.5 for p in parent])  # 10/10, medians 0.5 apart
    assert rule([p - 0.5 for p in parent[:9]] + [2.0])  # 9/10 still meets it
    assert not rule([p - 0.5 for p in parent[:8]] + [2.0, 2.0])  # 8/10
    assert not rule([p - 0.4 for p in parent])  # 10/10, but 0.4 is inside the parent's spread
    assert not rule([p + 0.5 for p in parent])  # 0/10: a loss is no gain
    higher = [{"name": "items_per_s", "better": "higher", "bound": 0.25}]
    pairs = _pairs(parent, [p + 0.5 for p in parent], name="items_per_s")
    assert bench_pairs.summarize(pairs, higher)["items_per_s"]["gain_rule_met"]


def test_within_bound_is_the_changes_median_no_worse_than_the_bound_allows():
    parent = [1.0] * 10
    check = lambda change, better: bench_pairs.summarize(
        _pairs(parent, change), [{"name": "wall_s", "better": better, "bound": 0.25}])["wall_s"]["within_bound"]
    assert check([1.25] * 10, "lower")  # 25% worse: at the bound
    assert not check([1.26] * 10, "lower")
    assert check([0.5] * 10, "lower")  # better is always within
    assert check([0.75] * 10, "higher")
    assert not check([0.74] * 10, "higher")
    assert check([2.0] * 10, "higher")


def test_pairs_flag_names_a_workload_and_a_positive_count():
    assert bench_pairs.parse_pairs("scan-1e7=10") == ("scan-1e7", 10)
    for raw in ("scan-1e7", "scan-1e7=0", "scan-1e7=-1", "scan-1e7=x"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_pairs(raw)
