import csv
import json

import pytest

from multweight import cli


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


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


def test_config_value_rejected_by_its_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "abc"}))
    with pytest.raises(SystemExit, match="config error: seed"):
        run(["sample", "--weight", "divisor:2", "--x", "1e3", "--config", str(cfg)])


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": "theta_omega:2", "x": "1e4", "bogus": 1}))
    with pytest.raises(SystemExit):
        run(["sieve-sum", "--config", str(cfg)])


def test_invalid_weight_spec_fails_loudly():
    with pytest.raises(SystemExit):
        run(["sieve-sum", "--weight", "nope:1", "--x", "100"])
    with pytest.raises(SystemExit):
        run(["sieve-sum", "--weight", "theta_omega", "--x", "100"])


def test_missing_weight_is_an_error():
    with pytest.raises(SystemExit):
        run(["sieve-sum", "--x", "100"])


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


def test_config_keys_are_the_subcommand_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    with pytest.raises(SystemExit, match="unknown keys \\['seed'\\]; allowed: \\['weight', 'x'\\]"):
        run(["ek-compare", "--weight", "divisor:2", "--x", "1e3", "--config", str(cfg)])
    cfg.write_text(json.dumps({"json_path": "r.json"}))
    with pytest.raises(SystemExit, match="unknown keys"):
        run(["sample", "--weight", "divisor:2", "--x", "1e3", "--config", str(cfg)])


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


@pytest.mark.parametrize("argv", [
    ["smooth", "--weight", "power:0", "--x", "1e4", "--u", "2,0"],
    ["exact-dist", "--weight", "power:0", "--x", "1e4", "--statistic", "smooth", "--u", "-1"],
])
def test_nonpositive_u_is_rejected(tmp_path, argv, capsys):
    assert run(argv + ["--json", str(tmp_path / "r.json")]) == 2
    assert "u must be positive" in capsys.readouterr().err


def test_powerfree_k_must_be_an_integer(tmp_path):
    with pytest.raises(SystemExit, match="integer k"):
        run(["sieve-sum", "--weight", "powerfree:2.7", "--x", "1e3"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": {"kind": "powerfree", "k": 2.5}, "x": "1e3"}))
    with pytest.raises(SystemExit, match="integer k"):
        run(["sieve-sum", "--config", str(cfg)])
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
