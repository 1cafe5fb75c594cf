import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multweight import cli, experiments
from multweight.weights import builtin_weight


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


def _scipy_modules_loaded(tmp_path, ops, prefixes, then=()):
    """In a fresh interpreter: the modules under `prefixes` loaded by
    importing the CLI, after running `ops` as well, and after `then` too."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, multweight.cli as c\n"
        f"loaded = lambda: sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r}))\n"
        "def run(op):\n"
        f"    report = [] if op[0] == 'selftest' else ['--json', r'{tmp_path}/r.json']\n"
        "    assert c.main(op + report) == 0, op\n"
        "print(loaded())\n"
        f"for op in {list(ops)!r}:\n"
        "    run(op)\n"
        "print(loaded())\n"
        f"for op in {list(then)!r}:\n"
        "    run(op)\n"
        "print(loaded())"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return [line.strip() for line in done.stdout.splitlines() if line.startswith(("[]", "['"))]


# The benchmark's six scan ops, its two draw ops that need no CDF, and its
# three dickman ops, at small sizes.
_SCAN_OPS = [
    ["sieve-sum", "--weight", "theta_omega:2", "--x", "1e3,1e4", "--cutoff", "1e4"],
    ["exact-dist", "--weight", "divisor:2", "--x", "1e4", "--statistic", "big_omega"],
    ["smooth", "--weight", "power:0", "--x", "1e4", "--u", "1.5,2,3", "--step", "0.00390625"],
    ["small-prime", "--weight", "powerfree:2", "--x", "1e4", "--p", "2,3,5"],
    ["poly-asym", "--x", "1e3,1e4", "--K", "1", "--gamma", "1", "--cutoff", "1e4"],
    ["conditions", "--weight", "divisor:2", "--x", "1e3,1e4"],
]
_DRAW_OPS = [
    ["sample", "--weight", "theta_omega:2", "--x", "1e4", "--n", "1000", "--seed", "1"],
    ["pd-compare", "--weight", "power:0", "--x", "1e4", "--n", "1000", "--oracle-draws", "1000", "--seed", "1"],
]
_DICKMAN_OPS = [["dickman", "--theta", t, "--umax", "4", "--step", "0.00390625"] for t in ("0.5", "1", "2")]
_TYPICAL = ["poly-typical", "--x", "1e4", "--K", "1", "--gamma", "1", "--n", "1000", "--seed", "1"]
_EK = ["ek-compare", "--weight", "divisor:2", "--x", "1e3,1e4"]
_POLY_EWENS = ["ewens", "--n", "40", "--poly-gamma", "1", "--samples", "5", "--seed", "1"]


def test_the_dickman_and_smooth_ops_leave_scipy_integrate_unloaded(tmp_path):
    # no module needs scipy.integrate, and importing it costs about 25 MB
    # of RSS and 0.2 s: the benchmark's dickman ops and a smooth op run in
    # a fresh interpreter without loading it
    assert _scipy_modules_loaded(tmp_path, _DICKMAN_OPS + [_SCAN_OPS[2]], ["scipy.integrate"]) == ["[]"] * 3


def test_the_scan_and_draw_ops_leave_scipy_linalg_unloaded(tmp_path):
    # partition_function loads scipy.linalg for its BLAS triangular solve, and
    # importing it costs about 35 ms and 5 MB: importing the CLI and the
    # benchmark's scan and draw ops, at small sizes, must not load it
    assert _scipy_modules_loaded(tmp_path, _SCAN_OPS + _DRAW_OPS, ["scipy.linalg"], [_TYPICAL]) == ["[]"] * 3


def test_importing_the_cli_and_the_scan_ops_load_no_scipy_special(tmp_path):
    # scipy.special takes about a quarter second to import: the scan ops, the
    # draw ops, ek-compare and dickman use numpy and the standard library
    # alone.  ewens --poly-gamma's log-gamma still loads it
    before, after, then = _scipy_modules_loaded(
        tmp_path, _SCAN_OPS + _DRAW_OPS + [_TYPICAL, _EK] + _DICKMAN_OPS, ["scipy.special", "scipy.linalg"],
        [_POLY_EWENS])
    assert before == after == "[]"
    assert "'scipy.special'" in then  # the guard sees a module that is loaded


def test_the_sampled_cases_c04_c10_c14_load_no_scipy_special(tmp_path):
    # their CDFs run on numpy; c15's Poisson reference still loads scipy.special
    _, after, then = _scipy_modules_loaded(
        tmp_path, [["selftest", "--scale", "selftest", "--cases", "c04,c10,c14"]], ["scipy.special"],
        [["selftest", "--scale", "selftest", "--cases", "c15"]])
    assert after == "[]"
    assert "'scipy.special'" in then


def test_only_selftest_imports_the_harness_and_xml(tmp_path):
    # the acceptance cases and their JUnit writer (xml.etree) are imported by
    # selftest alone, not with the CLI for every subcommand
    before, after, then = _scipy_modules_loaded(
        tmp_path, [_SCAN_OPS[0], _DRAW_OPS[0]], ["multweight.harness", "xml"],
        [["selftest", "--scale", "selftest", "--cases", "c08"]])
    assert before == after == "[]"
    assert "'multweight.harness'" in then and "'xml.etree'" in then


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert _scipy_modules_loaded(tmp_path, [], ["scipy"])[0] == "[]"


def test_sieve_sum_csv_and_json(tmp_path):
    out = tmp_path / "sum.csv"
    rep = tmp_path / "sum.json"
    assert run(["sieve-sum", "--weight", "theta_omega:2", "--x", "1e4",
                "--out", str(out), "--json", str(rep)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert list(rows[0].keys()) == ["x", "exact", "predicted", "ratio"]
    assert float(rows[0]["exact"]) == 63869.0
    doc = read_json(rep)
    assert doc["results"]["rows"][0]["x"] == 10000


def test_dickman_table_contains_rho2(tmp_path):
    out = tmp_path / "rho.csv"
    rep = tmp_path / "rho.json"
    assert run(["dickman", "--theta", "1", "--umax", "3", "--step", "0.001",
                "--out", str(out), "--json", str(rep)]) == 0
    by_u = {row["u"]: float(row["rho"]) for row in csv.DictReader(out.open())}
    assert float(by_u["2.0"]) == pytest.approx(0.306853, abs=1e-6)
    assert read_json(rep)["results"]["max_residual"] <= 1e-8


def test_ewens_exact_l1_uniform(tmp_path):
    out = tmp_path / "l1.csv"
    assert run(["ewens", "--n", "7", "--theta", "1", "--exact",
                "--out", str(out), "--json", str(tmp_path / "l1.json")]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 7
    for row in rows:
        assert float(row["probability"]) == pytest.approx(1.0 / 7.0, rel=1e-9)


def test_ewens_sampled_report_and_csv_agree_and_repeat(tmp_path):
    outs = []
    for i in (1, 2):
        out, rep = tmp_path / f"c{i}.csv", tmp_path / f"c{i}.json"
        assert run(["ewens", "--n", "40", "--poly-gamma", "1", "--samples", "25", "--seed", "7",
                    "--out", str(out), "--json", str(rep)]) == 0
        outs.append((out.read_bytes(), json.dumps(read_json(rep)["results"], sort_keys=True)))
    assert outs[0] == outs[1]
    rows = [[int(tok) for tok in line.split(",")] for line in outs[0][0].decode().splitlines()]
    assert len(rows) == 25
    assert all(sum(r) == 40 and r == sorted(r, reverse=True) for r in rows)
    assert json.loads(outs[0][1])["mean_cycles"] == sum(map(len, rows)) / 25


def test_ewens_fast_growing_poly_weights(tmp_path, capsys):
    # theta_k ~ k^10 passes 1e33; the partition table used to lose 1182 of
    # its 2001 values, and the draws averaged 105 cycles instead of 1999.7
    rep = tmp_path / "g10.json"
    assert run(["ewens", "--poly-gamma", "10", "--n", "2000", "--samples", "5", "--seed", "1",
                "--json", str(rep)]) == 0
    assert read_json(rep)["results"]["mean_cycles"] == pytest.approx(1999.7, abs=1.0)
    # at k^100 the weights pass the float range: an error, not a report
    assert run(["ewens", "--poly-gamma", "100", "--n", "2000", "--samples", "5", "--seed", "1",
                "--json", str(tmp_path / "g100.json")]) == 2
    assert "error: weights must be finite" in capsys.readouterr().err
    assert not (tmp_path / "g100.json").exists()


def test_ewens_sampled_cycle_type_csv(tmp_path):
    out = tmp_path / "types.csv"
    assert run(["ewens", "--n", "6", "--theta", "1", "--samples", "20", "--seed", "3",
                "--out", str(out), "--json", str(tmp_path / "t.json")]) == 0
    for line in out.read_text().splitlines():
        lens = [int(tok) for tok in line.split(",")]
        assert sum(lens) == 6
        assert lens == sorted(lens, reverse=True)


def test_exact_dist_smooth(tmp_path):
    rep = tmp_path / "sm.json"
    assert run(["exact-dist", "--weight", "power:0", "--x", "1e4",
                "--statistic", "smooth", "--u", "2.0", "--json", str(rep)]) == 0
    doc = read_json(rep)
    assert doc["results"]["statistic"] == "smooth"


def test_small_prime_gaps(tmp_path):
    out = tmp_path / "sp.csv"
    rep = tmp_path / "sp.json"
    assert run(["small-prime", "--weight", "powerfree:2", "--x", "1e5",
                "--p", "2,3", "--out", str(out), "--json", str(rep)]) == 0
    doc = read_json(rep)
    assert doc["results"]["max_gap"] < 0.01


def test_conditions_report(tmp_path):
    rep = tmp_path / "cond.json"
    assert run(["conditions", "--weight", "theta_omega:2", "--x", "1e3,1e4",
                "--json", str(rep)]) == 0
    doc = read_json(rep)
    assert len(doc["results"]["condition_I_residuals"]) == 2
    assert doc["results"]["condition_II_margin"] == pytest.approx(2.0)


def test_sample_deterministic_and_reports_match(tmp_path):
    reps = []
    for i in (1, 2):
        rep = tmp_path / f"s{i}.json"
        assert run(["sample", "--weight", "divisor:2", "--x", "1e3", "--n", "500",
                    "--seed", "42", "--json", str(rep)]) == 0
        reps.append(strip_timing(read_json(rep)))
    assert json.dumps(reps[0], sort_keys=True) == json.dumps(reps[1], sort_keys=True)


def test_the_timing_block_reports_peak_rss(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["sieve-sum", "--weight", "divisor:2", "--x", "1e3", "--json", str(rep)]) == 0
    timing = read_json(rep)["timing"]
    assert set(timing) == {"runtime_seconds", "timestamp", "peak_rss_mb"}
    assert timing["peak_rss_mb"] > 1.0


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": {"kind": "theta_omega", "theta": 2.0}, "x": "1e4"}))
    rep = tmp_path / "r.json"
    assert run(["sieve-sum", "--config", str(cfg), "--json", str(rep)]) == 0
    doc = read_json(rep)
    assert doc["results"]["rows"][0]["exact"] == 63869.0


def _run_with_config(tmp_path, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rep = tmp_path / "r.json"
    assert run(argv + ["--config", str(cfg), "--json", str(rep)]) == 0
    return read_json(rep)


def test_config_value_replaces_a_flag_default(tmp_path):
    doc = _run_with_config(tmp_path, ["sample", "--weight", "divisor:2", "--x", "1e3"], {"n": 50})
    assert doc["results"]["n_samples"] == 50


def test_config_values_go_through_the_flag_types(tmp_path):
    doc = _run_with_config(tmp_path, ["exact-dist", "--weight", "power:0", "--x", "1e4"],
                           {"u": "3", "statistic": "smooth"})
    assert doc["config"]["u"] == 3.0
    assert doc["results"]["statistic"] == "smooth"
    rep = tmp_path / "flags.json"
    assert run(["exact-dist", "--weight", "power:0", "--x", "1e4", "--statistic", "smooth",
                "--u", "3", "--json", str(rep)]) == 0
    assert doc["results"] == read_json(rep)["results"]


def test_weight_flag_overrides_config_weight(tmp_path):
    doc = _run_with_config(tmp_path, ["sieve-sum", "--weight", "theta_omega:2", "--x", "1e4"],
                           {"weight": "divisor:2"})
    assert doc["config"]["weight"] == "theta_omega:2"
    assert doc["results"]["rows"][0]["exact"] == 63869.0


def test_config_value_rejected_by_its_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "abc"}))
    with pytest.raises(SystemExit) as e:
        run(["sample", "--weight", "divisor:2", "--x", "1e3", "--config", str(cfg)])
    assert e.value.code == 2
    assert "config error: seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 0])
def test_config_flag_entry_must_be_a_json_boolean(tmp_path, value, capsys):
    # "false" ran the exact enumeration and 0 the sampler, each echoed into the report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7, "theta": 1, "exact": value}))
    with pytest.raises(SystemExit) as e:
        run(["ewens", "--config", str(cfg), "--json", str(tmp_path / "r.json")])
    assert e.value.code == 2
    assert f"config error: exact={value!r} is invalid" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("exact", [False, True])
def test_config_flag_entry_true_or_false_picks_the_branch(tmp_path, exact):
    doc = _run_with_config(tmp_path, ["ewens", "--samples", "10"], {"n": 7, "theta": 1, "exact": exact})
    assert doc["config"]["exact"] is exact
    assert ("l1_pmf" in doc["results"]) == exact


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": "theta_omega:2", "x": "1e4", "bogus": 1}))
    with pytest.raises(SystemExit):
        run(["sieve-sum", "--config", str(cfg)])


INVALID_WEIGHTS = [
    ("nope:1", "unknown weight kind"),
    ("theta_omega", "takes 1 parameter"),
    ("theta_omega:1:2", "takes 1 parameter"),
    ("power:abc", "could not convert"),
    ("power:-2", "z > -1"),
    ({"theta": 2}, "needs a 'kind' key"),
    ({"kind": "theta_omega"}, "needs parameter 'theta'"),
    ({"kind": "theta_omega", "theta": 2, "z": 1}, "unexpected parameters"),
    ({"kind": "nope"}, "unknown weight kind"),
]


def test_invalid_weight_spec_fails_loudly(tmp_path, capsys):
    # a usage error, exit 2, like a bad flag, whether the spec is a flag or a config mapping
    rep = tmp_path / "r.json"
    cfg = tmp_path / "cfg.json"
    for spec, message in INVALID_WEIGHTS:
        argv = ["sieve-sum", "--x", "100", "--json", str(rep)]
        if isinstance(spec, dict):
            cfg.write_text(json.dumps({"weight": spec}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--weight", spec]
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2, spec
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid weight" in err and message in err, spec
        assert not rep.exists()


def test_missing_weight_is_an_error():
    with pytest.raises(SystemExit):
        run(["sieve-sum", "--x", "100"])


@pytest.mark.parametrize("argv, config", [
    (["ewens"], {"n": 5, "exact": True}),
    (["dickman", "--umax", "2"], {"theta": 0.5}),
])
def test_n_and_theta_may_come_from_the_config(tmp_path, argv, config):
    # both were argparse-required, so the config keys could never stand in
    doc = _run_with_config(tmp_path, argv, config)
    assert {k: doc["config"][k] for k in config} == config


@pytest.mark.parametrize("argv, flag", [(["ewens", "--exact"], "--n"), (["dickman"], "--theta")])
def test_missing_n_or_theta_exits_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    assert f"{flag} (or a config" in capsys.readouterr().err


# each draw-count flag, with a command line that is valid apart from it
DRAW_COUNTS = [
    (["sample", "--weight", "divisor:2", "--x", "1e3"], "n"),
    (["pd-compare", "--weight", "power:0", "--x", "1e3"], "n"),
    (["pd-compare", "--weight", "power:0", "--x", "1e3"], "oracle_draws"),
    (["poly-typical", "--x", "1e3"], "n"),
    (["ewens", "--n", "5"], "samples"),
    (["ewens", "--samples", "5"], "n"),
]


@pytest.mark.parametrize("argv, key", DRAW_COUNTS)
@pytest.mark.parametrize("value", [0, -2, 2.5])
def test_draw_count_must_be_a_positive_integer(tmp_path, argv, key, value, capsys):
    # 0 used to write NaN means into the report and exit 0
    rep = tmp_path / "r.json"
    with pytest.raises(SystemExit) as e:
        run(argv + [f"--{key.replace('_', '-')}", str(value), "--json", str(rep)])
    assert e.value.code == 2
    assert "need a positive integer" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as e:
        run(argv + ["--config", str(cfg), "--json", str(rep)])
    assert e.value.code == 2
    assert f"config error: {key}=" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("argv", [
    ["smooth", "--weight", "power:0", "--x", "1e3", "--u", "2"],
    ["dickman", "--theta", "1"],
])
@pytest.mark.parametrize("step", ["0", "-0.01"])
def test_nonpositive_step_is_rejected(tmp_path, argv, step, capsys):
    assert run(argv + ["--step", step, "--json", str(tmp_path / "r.json")]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["exact-dist", "--weight", "power:0", "--x", "1000.7"], "--x"),
    (["sample", "--weight", "power:0", "--x", "2.9"], "--x"),
    (["sieve-sum", "--weight", "theta_omega:2", "--x", "1e3", "--cutoff", "0.5"], "--cutoff"),
    (["exact-dist", "--weight", "power:0", "--x", "1e3,1e4"], "--x"),
    (["sieve-sum", "--weight", "power:0", "--x", "abc"], "--x"),
    (["sample", "--weight", "power:0", "--x", "1e3", "--n", "abc"], "--n"),
    (["smooth", "--weight", "power:0", "--x", "1e3", "--u", "abc"], "--u"),
    (["small-prime", "--weight", "powerfree:2", "--x", "1e3", "--p", "abc"], "--p"),
    (["sieve-sum", "--weight", "power:0", "--x", ",", "--cutoff", "1e4"], "--x"),
    (["conditions", "--weight", "power:0", "--x", ",,"], "--x"),
    (["poly-asym", "--x", ",", "--K", "1", "--gamma", "1", "--cutoff", "1e4"], "--x"),
    (["ek-compare", "--weight", "power:0", "--x", ","], "--x"),
], ids=["exact-dist-x", "sample-x", "sieve-sum-cutoff", "exact-dist-x-list", "sieve-sum-x-abc", "sample-n-abc",
        "smooth-u-abc", "small-prime-p-abc", "sieve-sum-x-empty", "conditions-x-empty", "poly-asym-x-empty",
        "ek-compare-x-empty"])
def test_fractional_x_and_cutoff_are_rejected(tmp_path, argv, flag, capsys):
    # the first three ran at x = 1000, at x = 2 and at cutoff 0 (an empty
    # Euler product), and exited 0; the next five, values that are no number
    # or a list where one bound goes, printed "could not convert string to
    # float", "invalid _x_spec value", "invalid _positive_int value" or a raw
    # int() error, naming no flag; the lists without entries reached the
    # experiment, which failed on max([]) with "max() arg is an empty sequence"
    with pytest.raises(SystemExit) as e:
        run(argv + ["--json", str(tmp_path / "r.json")])
    assert e.value.code == 2
    assert f"argument {flag}: need" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_report_config_keeps_x_as_written_and_cutoff_as_an_integer(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["sieve-sum", "--weight", "theta_omega:2", "--x", "1e3,2e3", "--cutoff", "1e4", "--json", str(rep)]) == 0
    config = read_json(rep)["config"]
    assert config["x"] == "1e3,2e3"
    assert config["cutoff"] == 10**4 and isinstance(config["cutoff"], int)


@pytest.mark.parametrize("argv, message", [
    (["exact-dist", "--weight", "power:0", "--x", "1e3", "--statistic", "smooth", "--u", "nan"],
     "smoothness parameter u must be positive and finite, got nan"),
    (["dickman", "--theta", "1", "--umax", "inf"], "u_max must be >= 1 and finite, got inf"),
    (["dickman", "--theta", "nan"], "theta must be positive and finite, got nan"),
], ids=["smooth-u-nan", "dickman-umax-inf", "dickman-theta-nan"])
def test_non_finite_parameters_are_rejected(tmp_path, argv, message, capsys):
    # u = nan reported P(smooth) = 1 and exited 0, u_max = inf ended in an
    # OverflowError traceback, and theta = nan in "Eigenvalues did not converge"
    assert run(argv + ["--json", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["sieve-sum", "--weight", "theta_omega:nan", "--x", "1e4", "--cutoff", "1e4"],
    ["poly-asym", "--x", "1e4", "--K", "inf", "--cutoff", "1e4"],
    ["poly-typical", "--x", "1e4", "--gamma", "nan", "--n", "100"],
], ids=["weight-spec", "poly-asym", "poly-typical"])
def test_non_finite_weight_parameters_fail_before_any_walk(monkeypatch, argv, capsys):
    # these walked n <= x and only then failed on S(x) = nan
    def no_walk(*args):
        raise AssertionError("a walk was started")

    monkeypatch.setattr(cli.arith, "Walk", no_walk)
    try:
        code = run(argv)
    except SystemExit as e:  # a bad --weight is a usage error
        code = e.code
    assert code == 2
    assert "requires a finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--weight", "theta_omega:2", "--x", "1e4", "--n", "10"],
    ["pd-compare", "--weight", "power:0", "--x", "1e4", "--n", "10", "--oracle-draws", "10"],
    ["poly-typical", "--x", "1e4", "--n", "10"],
], ids=["sample", "pd-compare", "poly-typical"])
def test_negative_seed_fails_before_any_walk(monkeypatch, tmp_path, argv, capsys):
    # --seed -1 walked n <= x and only then failed in np.random.default_rng,
    # with "error: expected non-negative integer", naming no flag; a config
    # entry went the same way
    def no_walk(*args):
        raise AssertionError("a walk was started")

    monkeypatch.setattr(cli.arith, "Walk", no_walk)
    rep = tmp_path / "r.json"
    with pytest.raises(SystemExit) as e:
        run(argv + ["--seed", "-1", "--json", str(rep)])
    assert e.value.code == 2
    assert "argument --seed: need a non-negative integer, got -1" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -5}))
    with pytest.raises(SystemExit) as e:
        run(argv + ["--config", str(cfg), "--json", str(rep)])
    assert e.value.code == 2
    assert "config error: seed=-5 is invalid (need a non-negative integer, got -5)" in capsys.readouterr().err
    assert not rep.exists()


def test_seed_zero_runs(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["sample", "--weight", "theta_omega:2", "--x", "1e3", "--n", "10", "--seed", "0", "--json", str(rep)]) == 0
    assert read_json(rep)["config"]["seed"] == 0


def test_small_prime_limit_law_of_fast_growing_weight(tmp_path):
    # alpha(2^k) = sigma_20(2^k) passes the float range at k = 52; the limit
    # law used to end in an OverflowError traceback (exit 1)
    rep = tmp_path / "sp.json"
    assert run(["small-prime", "--weight", "sigma:20", "--x", "1e4", "--p", "2", "--json", str(rep)]) == 0
    assert read_json(rep)["results"]["max_gap"] < 0.01


@pytest.mark.parametrize("op", [
    ["exact-dist", "--statistic", "big_omega"],
    ["small-prime", "--p", "2"],
])
def test_weight_table_past_the_float_range_is_an_error(tmp_path, op, capsys):
    # n^100 passes the float range at n = 1210, and S(1e4) is NaN: exact-dist
    # used to write a report with "mean": NaN
    rep = tmp_path / "r.json"
    assert run([op[0], "--weight", "power:100", "--x", "1e4", *op[1:], "--json", str(rep)]) == 2
    assert "error: power(100): degenerate table: S(10000)" in capsys.readouterr().err
    assert not rep.exists()


def test_weight_table_past_the_float_range_fails_without_numpy_warnings(tmp_path, capfd):
    # the table engine used to print six numpy RuntimeWarnings, with source
    # lines from weights.py, before the error; a fresh process shows stderr
    # as a user sees it
    src = str(Path(cli.__file__).resolve().parents[1])
    rep = tmp_path / "r.json"
    argv = ["exact-dist", "--weight", "power:100", "--x", "1e4", "--statistic", "omega", "--json", str(rep)]
    done = subprocess.run([sys.executable, "-m", "multweight.cli", *argv], env={**os.environ, "PYTHONPATH": src})
    err = capfd.readouterr().err
    assert done.returncode == 2
    assert err == "error: power(100): degenerate table: S(10000) = nan is not positive and finite\n"
    assert "RuntimeWarning" not in err
    assert not rep.exists()


@pytest.mark.parametrize("raw", ["inf", "nan", "abc", "-1"])
def test_bad_sieve_budget_is_an_error(tmp_path, monkeypatch, raw, capsys):
    monkeypatch.setenv("MULTWEIGHT_MAX_SIEVE", raw)
    rep = tmp_path / "r.json"
    assert run(["exact-dist", "--weight", "power:0", "--x", "1e3", "--json", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MULTWEIGHT_MAX_SIEVE=") and "Traceback" not in err
    assert not rep.exists()


def test_conditions_above_the_sieve_budget_is_an_error(tmp_path, monkeypatch, capsys):
    # the segmented prime sieve holds O(sqrt(x) + segment) memory, but its x is still checked
    monkeypatch.setenv("MULTWEIGHT_MAX_SIEVE", "1e5")
    rep = tmp_path / "r.json"
    assert run(["conditions", "--weight", "divisor:2", "--x", "1e4,1e6", "--json", str(rep)]) == 2
    assert capsys.readouterr().err == "error: limit 1000000 exceeds entry budget 100000; raise MULTWEIGHT_MAX_SIEVE to override\n"
    assert not rep.exists()


def test_smooth_rejects_the_step_before_building_a_table(monkeypatch, capsys):
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli.arith, "build_spf", no_tables)
    monkeypatch.setattr(cli.weights, "build_weight_table", no_tables)
    monkeypatch.setattr(cli.arith, "Walk", no_tables)
    assert run(["smooth", "--weight", "power:0", "--x", "1e7", "--u", "2", "--step", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sieve-sum", "--weight", "theta_omega:2", "--x", "1e3,1e4", "--cutoff", "1e4"],
    ["exact-dist", "--weight", "divisor:2", "--x", "1e4", "--statistic", "big_omega"],
    ["smooth", "--weight", "power:0", "--x", "1e4", "--u", "1.5,2", "--step", "0.0078125"],
    ["conditions", "--weight", "divisor:2", "--x", "1e3,1e4"],
    ["sample", "--weight", "theta_omega:2", "--x", "1e4", "--n", "1000"],
    ["pd-compare", "--weight", "power:0", "--x", "1e4", "--n", "1000", "--oracle-draws", "1000"],
    ["poly-typical", "--x", "1e4", "--n", "1000"],
    ["ewens", "--poly-gamma", "1", "--n", "1000", "--samples", "5"],
    ["ek-compare", "--weight", "theta_omega:2", "--x", "1e3,1e4"],
    ["small-prime", "--weight", "powerfree:2", "--x", "1e4", "--p", "2,3"],
    ["poly-asym", "--x", "1e3,1e4", "--cutoff", "1e4"],
    ["dickman", "--theta", "1", "--umax", "2"],
])
def test_scans_build_no_spf_table(monkeypatch, argv):
    # no CLI op builds an spf table: the scans read the p_1 table, and the
    # draws are factored from the p_1 table they were drawn over; the spf
    # sieve is the oracle of the tests and of c01
    def no_spf(*args):
        raise AssertionError("an spf table was built")

    monkeypatch.setattr(cli.arith, "build_spf", no_spf)
    assert run(argv) == 0


def test_constant_theta_builds_no_partition_table(monkeypatch):
    # Ewens(theta) is drawn by the Feller coupling, which needs no h_m table
    def no_table(*args):
        raise AssertionError("a partition table was built")

    monkeypatch.setattr(cli.permutations, "partition_function", no_table)
    assert run(["ewens", "--theta", "1", "--n", "1000", "--samples", "5"]) == 0


def test_sample_top_is_by_count_then_value(tmp_path):
    out, rep = tmp_path / "s.csv", tmp_path / "s.json"
    assert run(["sample", "--weight", "power:0", "--x", "300", "--n", "3000", "--seed", "5",
                "--out", str(out), "--json", str(rep)]) == 0
    values = [int(r["value"]) for r in csv.DictReader(out.open())]
    # the CSV is in draw order and the mean is of the draws, both taken before
    # the summary sorts the draws in place
    assert values == experiments.sample(builtin_weight("power", z=0.0), 300, 3000, 5).tolist()
    counts = {v: values.count(v) for v in sorted(set(values))}
    expected = sorted(counts.items(), key=lambda t: -t[1])[:10]
    results = read_json(rep)["results"]
    assert [(t["value"], t["count"]) for t in results["top"]] == expected
    assert len({t["count"] for t in results["top"]}) < 10  # ties, ordered by value
    assert results["distinct"] == len(set(values))
    assert results["mean"] == float(np.mean(values))


def test_poly_asym_double_ratio(tmp_path):
    rep = tmp_path / "pa.json"
    assert run(["poly-asym", "--K", "1", "--gamma", "1", "--x", "1e4,1e5",
                "--cutoff", "1e5", "--json", str(rep)]) == 0
    doc = read_json(rep)
    assert abs(doc["results"]["double_ratios"][0] - 1.0) < 0.25


def test_ek_compare_rows(tmp_path):
    out = tmp_path / "ek.csv"
    rep = tmp_path / "ek.json"
    assert run(["ek-compare", "--weight", "divisor:2", "--x", "1e3,1e4",
                "--out", str(out), "--json", str(rep)]) == 0
    doc = read_json(rep)
    assert len(doc["results"]["rows"]) == 2
    assert 0 < doc["results"]["rows"][1]["ks"] < 1
    rows = list(csv.DictReader(out.open()))
    assert [(int(r["x"]), float(r["ks"])) for r in rows] == [(r["x"], r["ks"]) for r in doc["results"]["rows"]]


def test_ek_compare_has_no_seed():
    # it draws nothing, so a seed flag or config key would only be echoed
    with pytest.raises(SystemExit):
        run(["ek-compare", "--weight", "divisor:2", "--x", "1e3", "--seed", "1"])


def test_config_keys_are_the_subcommand_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    with pytest.raises(SystemExit) as e:
        run(["ek-compare", "--weight", "divisor:2", "--x", "1e3", "--config", str(cfg)])
    assert e.value.code == 2
    assert "unknown keys ['seed']; allowed: ['weight', 'x']" in capsys.readouterr().err
    cfg.write_text(json.dumps({"json_path": "r.json"}))
    with pytest.raises(SystemExit) as e:
        run(["sample", "--weight", "divisor:2", "--x", "1e3", "--config", str(cfg)])
    assert e.value.code == 2
    assert "unknown keys" in capsys.readouterr().err


def test_ewens_poly_gamma_zero_is_rejected(tmp_path):
    # gamma = 0 used to fall through to constant theta weights
    assert run(["ewens", "--n", "5", "--poly-gamma", "0", "--samples", "3",
                "--json", str(tmp_path / "e.json")]) == 2
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("argv", [
    ["small-prime", "--weight", "powerfree:2", "--x", "1e4", "--p", "2,4"],
    ["exact-dist", "--weight", "power:0", "--x", "1e4", "--statistic", "nu", "--p", "4"],
    ["exact-dist", "--weight", "power:0", "--x", "1e4", "--statistic", "nu", "--p", "1"],
])
def test_non_prime_p_is_rejected(tmp_path, argv, capsys):
    assert run(argv + ["--json", str(tmp_path / "r.json")]) == 2
    assert "is not prime" in capsys.readouterr().err


def test_exact_dist_smooth_at_an_exact_cube(tmp_path):
    # 7^3 = 343: the 87 integers n <= 343 with p_1(n) <= 7, not the 57 with p_1 <= 5
    rep = tmp_path / "sm.json"
    assert run(["exact-dist", "--weight", "power:0", "--x", "343", "--statistic", "smooth", "--u", "3",
                "--json", str(rep)]) == 0
    assert read_json(rep)["results"]["mean"] == pytest.approx(87 / 343, rel=1e-15)


def test_exact_dist_smooth_at_small_u_is_certain(tmp_path):
    # x^(1/u) overflowed the float range at u = 0.001; at u <= 1 every n <= x is smooth
    rep = tmp_path / "sm.json"
    assert run(["exact-dist", "--weight", "power:0", "--x", "100", "--statistic", "smooth", "--u", "0.001",
                "--json", str(rep)]) == 0
    assert read_json(rep)["results"]["pmf_head"] == [{"probability": 1.0, "value": 1.0}]


def test_smooth_at_small_u_is_certain(tmp_path):
    rep = tmp_path / "sm.json"
    assert run(["smooth", "--weight", "power:0", "--x", "100", "--u", "0.001,1", "--json", str(rep)]) == 0
    assert [r["exact"] for r in read_json(rep)["results"]["rows"]] == [1.0, 1.0]


def test_largest_ratio_below_x_2_is_rejected(tmp_path, capsys):
    # log 1 = 0 used to write NaN into the report and exit 0
    assert run(["exact-dist", "--weight", "power:0", "--x", "1", "--statistic", "largest_ratio",
                "--json", str(tmp_path / "r.json")]) == 2
    assert "error: largest_ratio needs x >= 2" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["poly-typical", "--x", "1", "--n", "100"], "log P/log^(1/(gamma+1)) x needs x >= 2, got x=1"),
    (["pd-compare", "--weight", "power:0", "--x", "1", "--n", "100", "--oracle-draws", "100"],
     "log p/log x needs x >= 2, got x=1"),
    (["ek-compare", "--weight", "divisor:2", "--x", "1e3,2"],
     "(Omega - c)/sqrt(c), c = theta log log x, needs x >= 3, got x=2"),
    (["sieve-sum", "--weight", "theta_omega:2", "--x", "1,1e7"], "the predictors of S(x) need x >= 2, got x=1"),
    (["poly-asym", "--x", "2,1e7"], "the saddle point of S(x) needs x >= 3, got x=2"),
], ids=["poly-typical", "pd-compare", "ek-compare", "sieve-sum", "poly-asym"])
def test_log_x_ops_below_their_range_fail_before_any_walk(monkeypatch, tmp_path, argv, message, capsys):
    # poly-typical ended in a ZeroDivisionError traceback, pd-compare reported
    # 0.0 for each log p/log x, and ek-compare printed "error: math domain error";
    # sieve-sum and poly-asym walked n <= 1e7 before the predictor refused x
    def no_walk(*args):
        raise AssertionError("a walk was started")

    monkeypatch.setattr(cli.arith, "Walk", no_walk)
    assert run(argv + ["--json", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["poly-typical", "--x", "2", "--n", "100"],
    ["pd-compare", "--weight", "power:0", "--x", "2", "--n", "100", "--oracle-draws", "100"],
    ["ek-compare", "--weight", "divisor:2", "--x", "3"],
    ["sieve-sum", "--weight", "theta_omega:2", "--x", "2"],
    ["sieve-sum", "--weight", "poly_log:1:1", "--x", "2"],
    ["poly-asym", "--x", "3"],
], ids=["poly-typical", "pd-compare", "ek-compare", "sieve-sum", "sieve-sum-poly", "poly-asym"])
def test_log_x_ops_run_at_the_bottom_of_their_range(tmp_path, argv):
    assert run(argv + ["--json", str(tmp_path / "r.json")]) == 0
    assert read_json(tmp_path / "r.json")["results"]


@pytest.mark.parametrize("argv", [
    ["smooth", "--weight", "power:0", "--x", "1e4", "--u", "2,0"],
    ["exact-dist", "--weight", "power:0", "--x", "1e4", "--statistic", "smooth", "--u", "-1"],
])
def test_nonpositive_u_is_rejected(tmp_path, argv, capsys):
    assert run(argv + ["--json", str(tmp_path / "r.json")]) == 2
    assert "u must be positive" in capsys.readouterr().err


def test_powerfree_k_must_be_an_integer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": {"kind": "powerfree", "k": 2.5}, "x": "1e3"}))
    for argv in (["--weight", "powerfree:2.7", "--x", "1e3"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as e:
            run(["sieve-sum", *argv])
        assert e.value.code == 2
        assert "integer k" in capsys.readouterr().err
    doc = _run_with_config(tmp_path, ["sieve-sum"], {"weight": {"kind": "powerfree", "k": 3.0}, "x": "1e3"})
    assert doc["results"]["rows"][0]["exact"] > 0


def test_pd_compare(tmp_path):
    rep = tmp_path / "pd.json"
    assert run(["pd-compare", "--weight", "power:0", "--x", "1e4", "--n", "2000",
                "--oracle-draws", "2e4", "--seed", "3", "--json", str(rep)]) == 0
    doc = read_json(rep)
    rows = {r["stat"]: r for r in doc["results"]["rows"]}
    assert abs(rows["coord_1_mean"]["sample"] - rows["coord_1_mean"]["pd_oracle"]) < 0.05


def test_smooth_subcommand(tmp_path):
    out = tmp_path / "smooth.csv"
    assert run(["smooth", "--weight", "power:0", "--x", "1e5", "--u", "1.5,2",
                "--json", str(tmp_path / "s.json"), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [row["u"] for row in rows] == ["1.5", "2.0"]
    assert abs(float(rows[1]["exact"]) - float(rows[1]["rho"])) < 0.08


def test_poly_typical(tmp_path):
    rep = tmp_path / "pt.json"
    assert run(["poly-typical", "--K", "1", "--gamma", "1", "--x", "1e5",
                "--n", "2000", "--seed", "5", "--json", str(rep)]) == 0
    doc = read_json(rep)
    assert doc["results"]["gamma_law"] == {"shape": 2.0, "rate": 1.0}
    assert 0 < doc["results"]["ks"] < 0.5


def test_selftest_single_case(tmp_path, capsys):
    junit = tmp_path / "res.xml"
    assert run(["selftest", "--cases", "c07", "--scale", "selftest",
                "--junit", str(junit)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] c07" in out
    assert junit.exists()
    assert 'name="c07"' in junit.read_text()


def test_selftest_unknown_case():
    assert run(["selftest", "--cases", "zz"]) == 2
