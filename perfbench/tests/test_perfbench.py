"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The last test runs one pass of every workload (about a minute).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()
REFERENCE = checks.load_reference()


def span(name, start, end, parent, info=None):
    return [name, start, end, parent, 0, info]


def test_self_times_subtract_child_cover():
    tree = [
        span("cli.main", 0.0, 10.0, -1),  # 0
        span("weights.build_weight_table", 1.0, 4.0, 0, 16_000_000),  # 1
        span("arith.primes_in", 2.0, 3.0, 1),  # 2
        span("arith.build_spf", 5.0, 9.0, 0, 100),  # 3
        span("arith.primes_upto", 6.0, 7.0, 3),  # 4: overlaps 5
        span("arith.primes_upto", 6.5, 8.0, 3),  # 5
        span("arith.build_spf", 9.0, 9.5, 0, 100),  # 6
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 2.0, 1.0, 1.5, 0.5])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["weights.table.self_s"] == pytest.approx(2.0)
    assert m["arith.primes.self_s"] == pytest.approx(3.5)
    assert m["arith.spf.self_s"] == pytest.approx(2.5)
    assert m["arith.spf.calls"] == 2
    assert m["arith.spf.useful_ratio"] == pytest.approx(0.5)
    assert m["weights.table.calls"] == 1
    assert m["weights.table.mb"] == pytest.approx(16.0)


def test_layer_metrics_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(spans.layer_metrics([])) | {"trace.overhead_s"}
    assert per_layer <= produced


def test_tracer_wraps_cross_module_calls_and_restores(monkeypatch):
    import multweight.arith as arith
    import multweight.weights as weights

    original = weights.factorize
    monkeypatch.delattr(arith, "nu_p_table")  # absent from some version: skipped
    tracer = spans.Tracer()
    with tracer.installed(op_id=3):
        spf = arith.build_spf(100)
        weights.evaluate_weight(weights.builtin_weight("divisor", k=2), 12, spf)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "arith.build_spf"
    ev = names.index("weights.evaluate_weight")
    fz = names.index("arith.factorize")
    assert tracer.spans[fz][3] == ev and tracer.spans[fz][4] == 3
    assert weights.factorize is original


class CorruptingCli:
    """Runs the real CLI, then damages the report it wrote."""

    def __init__(self, damage):
        self.damage = damage

    def main(self, argv):
        code = cli.main(argv)
        path = Path(argv[argv.index("--json") + 1])
        self.damage(path)
        return code


def _edit(fn):
    def damage(path):
        doc = json.loads(path.read_text())
        fn(doc)
        path.write_text(json.dumps(doc))
    return damage


@pytest.mark.parametrize("damage", [
    lambda p: p.write_text(p.read_text()[:50]),
    lambda p: p.unlink(),
    _edit(lambda d: d["results"]["l1_pmf"].update({"1": d["results"]["l1_pmf"]["1"] * (1 + 1e-9)})),
    _edit(lambda d: d["config"].update({"n": 11})),
], ids=["truncated", "missing", "changed-value", "other-size"])
def test_corrupted_report_counts_in_fail_frac(tmp_path, damage):
    ops = [op for op in workloads.make_ops("perm-rho", 1) if op.name == "ewens-exact-12"]
    good = run.run_pass(cli, ops, tmp_path, REFERENCE)
    bad = run.run_pass(CorruptingCli(damage), ops, tmp_path, REFERENCE)
    assert good.failures == [] and len(bad.failures) == 1
    line = run.result_line([good, bad], ops, {}, {})
    assert (line["correct"], line["failed"], line["attempted"]) == (False, 1, 2)


def test_nonzero_exit_is_a_failed_op(tmp_path):
    op = workloads.Op("bad", ("ewens", "--n", "12", "--theta", "-1", "--exact"), {})
    p = run.run_pass(cli, [op], tmp_path, REFERENCE)
    assert [name for name, _ in p.failures] == ["bad"]


def test_wrong_sampler_mean_fails_z_check():
    op = next(op for op in workloads.make_ops("perm-rho", 1) if op.name == "ewens-poly-1e4")
    expect = REFERENCE["expect"][op.name]
    se = expect["L1"]["sd"] / op.draws ** 0.5
    ok = {"l1_mean": expect["L1"]["mean"] + 2 * se, "mean_cycles": expect["C"]["mean"]}
    assert checks.check_sampled(op, ok, REFERENCE) == []
    assert checks.check_sampled(op, {**ok, "l1_mean": expect["L1"]["mean"] + 8 * se}, REFERENCE)


def test_second_seed_passes_every_check(tmp_path):
    for workload in workloads.WORKLOADS:
        ops = workloads.make_ops(workload, 20260)
        p = run.run_pass(cli, ops, tmp_path, REFERENCE)
        assert p.failures == [], workload
