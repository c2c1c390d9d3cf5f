import json

import pytest

from spinstab import report, suites
from spinstab.cli import _metric_from_descriptor, main
from spinstab.report import VerificationReport
from spinstab.suites import default_config, merge_config
from spinstab.warped import scan_scalar_positivity, warped_scalar


def test_report_json_roundtrip():
    rep = VerificationReport("demo", 3, {"a": 1})
    rep.add("c1", "x = y", 1.25e-11, 1e-10, note="hi")
    rep.add("c2", "z = w", 2.0, 1e-10)
    text = rep.to_json()
    back = VerificationReport.from_json(text)
    assert back.suite == "demo"
    assert back.records[0].value == 1.25e-11
    assert back.records[0].passed
    assert not back.records[1].passed
    assert not back.passed
    assert back.to_json() == text


def test_report_pass_logic():
    rep = VerificationReport("demo", 0, {})
    rep.add("ok", "trivial", 0.0, 0.0, passed=True)
    assert rep.passed
    rep.add("bad", "trivial", 5.0, 1.0)
    assert not rep.passed
    assert [r.check_id for r in rep.failures()] == ["bad"]


def test_report_default_rule_at_tolerance_zero():
    rep = VerificationReport("demo", 0, {})
    for value in (0.0, -0.0, float("nan"), 5e-324):
        rep.add(repr(value), "exact", value, 0.0)
    assert [r.passed for r in rep.records] == [True, True, False, False]


def test_report_passed_is_keyword_only():
    rep = VerificationReport("demo", 0, {})
    with pytest.raises(TypeError):
        rep.add("c", "x = y", 5.0, 1.0, True)
    assert rep.records == []


def test_report_wall_time_is_time_since_previous_record(monkeypatch):
    clock = iter([10.0, 10.5, 12.0, 12.25])
    monkeypatch.setattr(report.time, "perf_counter", lambda: next(clock))
    rep = VerificationReport("demo", 0, {})  # reads 10.0
    for check_id in ("a", "b", "c"):
        rep.add(check_id, "trivial", 0.0, 0.0)
    assert [r.wall_time for r in rep.records] == [0.5, 1.5, 0.25]


def test_strip_timings_removes_wall_time():
    rep = VerificationReport("demo", 0, {})
    rep.add("ok", "trivial", 0.0, 0.0, passed=True)
    assert rep.records[0].wall_time >= 0.0
    obj = rep.strip_timings()
    assert "wall_time" not in obj["records"][0]
    assert obj["records"][0]["detail"] == {}


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])  # argparse rejects the choice


def test_verify_bad_cutoff_exits_2():
    assert main(["verify", "torus", "--cutoff", "99"]) == 2


def _no_runner(*_):
    raise AssertionError("a check ran")


@pytest.mark.parametrize("argv, overrides, message", [
    (["--cutoff", "99"], {}, "torus.cutoff must be an integer in [1, 16], not 99"),
    ([], {"torus": {"cutoff": 0}}, "torus.cutoff must be an integer in [1, 16], not 0"),
    ([], {"torus": {"cy_cutoff": 17}}, "torus.cy_cutoff must be an integer in [1, 16], not 17"),
    ([], {"torus": {"cutoff": True}}, "torus.cutoff must be an integer in [1, 16], not True"),
    ([], {"torus": {"cutoff": 2.0}}, "torus.cutoff must be an integer in [1, 16], not 2.0"),
])
def test_verify_bad_cutoff_in_flag_or_file_exits_2_first(tmp_path, monkeypatch, capsys,
                                                         argv, overrides, message):
    monkeypatch.setitem(suites.RUNNERS, "torus", _no_runner)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["verify", "torus", "--config", str(cfg)] + argv) == 2
    out = capsys.readouterr()
    assert out.err.splitlines() == [f"error: {message}"]
    assert out.out == ""


def test_verify_default_cutoffs_run(monkeypatch):
    seen = []
    monkeypatch.setitem(suites.RUNNERS, "torus", lambda rep, seed, cfg: seen.append(cfg))
    assert main(["verify", "torus"]) == 0
    assert main(["verify", "torus", "--cutoff", "16"]) == 0
    assert [(c["torus"]["cutoff"], c["torus"]["cy_cutoff"]) for c in seen] == [(2, 2), (16, 2)]


COUNT_KEYS = [(suite, key) for suite, keys in suites.COUNT_KEYS.items() for key in keys]


def test_count_keys_name_every_sample_count():
    assert COUNT_KEYS == [
        ("clifford", "isometry_samples"),
        ("curvalg", "curvature_samples"), ("curvalg", "tensor_samples"),
        ("torus", "rayleigh_samples"), ("torus", "first_variation_samples"),
        ("torus", "second_variation_modes"), ("torus", "sign_invariance_pairs"),
        ("g2", "identity_samples"), ("g2", "field_modes"),
        ("warped", "oracle_samples"), ("warped", "scan_points"), ("warped", "bound_samples"),
    ]


@pytest.mark.parametrize("value", [0, -5, True, 2.5])
@pytest.mark.parametrize("suite, key", COUNT_KEYS)
def test_verify_bad_count_in_config_exits_2_first(tmp_path, monkeypatch, capsys,
                                                  suite, key, value):
    for name in suites.SUITES:
        monkeypatch.setitem(suites.RUNNERS, name, _no_runner)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({suite: {key: value}}))
    assert main(["verify", "all", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.err.splitlines() == [f"error: {suite}.{key} must be an integer >= 1, "
                                    f"not {value!r}"]
    assert out.out == ""


def test_verify_default_and_unit_counts_run(tmp_path, monkeypatch):
    seen = []
    for name in suites.SUITES:
        monkeypatch.setitem(suites.RUNNERS, name, lambda rep, seed, cfg: seen.append(cfg))
    assert main(["verify", "all"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({suite: dict.fromkeys(keys, 1)
                               for suite, keys in suites.COUNT_KEYS.items()}))
    assert main(["verify", "all", "--config", str(cfg)]) == 0
    defaults = default_config()
    assert len(seen) == 2 * len(suites.SUITES)
    assert all(seen[0][s][k] == defaults[s][k] and seen[-1][s][k] == 1 for s, k in COUNT_KEYS)


def test_verify_curvalg_passes_where_k3_sample_draws_a_zero_block():
    # the suite's 13th sample is k3_sample(1362108595), whose first draw is zero
    assert main(["verify", "curvalg", "--seed", "1362108583"]) == 0


def test_verify_unreadable_config_exits_2(tmp_path):
    assert main(["verify", "clifford", "--config", str(tmp_path / "none.json")]) == 2


def _crashing_runner(exc):
    def run(rep, seed, cfg):
        rep.add("before_crash", "runs before the crash", 0.0, 0.0)
        raise exc
    return run


def test_verify_check_that_raises_is_a_failed_record(tmp_path, monkeypatch, capsys):
    error = RuntimeError("eigen-solver failed: residual 9.1e-08 after 4261 inner iterations")
    monkeypatch.setitem(suites.RUNNERS, "torus", _crashing_runner(error))
    out = tmp_path / "rep.json"
    assert main(["verify", "torus", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    records = payload["reports"][0]["records"]
    assert [r["id"] for r in records] == ["before_crash", "suite_error"]
    assert records[0]["passed"] and not records[1]["passed"]
    detail = records[1]["detail"]
    assert detail["error"] == f"RuntimeError: {error}"
    assert detail["after"] == "before_crash"
    assert detail["where"].startswith("test_cli.py:") and detail["where"].endswith(" in run")
    assert "[FAIL] torus.suite_error" in capsys.readouterr().out


def test_verify_value_error_inside_suite_exits_1_and_other_suites_run(monkeypatch):
    error = ValueError("metric not positive on grid (min eig -5.000e-01)")
    for name in suites.SUITES:
        monkeypatch.setitem(suites.RUNNERS, name, lambda rep, seed, cfg: None)
    monkeypatch.setitem(suites.RUNNERS, "curvalg", _crashing_runner(error))
    reports = suites.run_suite("all", seed=0)
    assert [r.suite for r in reports] == list(suites.SUITES)
    assert [r.passed for r in reports] == [True, False, True, True, True]
    assert main(["verify", "all"]) == 1


def test_verify_clifford_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "clifford", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["seed"] == 7
    assert payload["reports"][0]["suite"] == "clifford"
    text = capsys.readouterr().out
    assert "PASS" in text


def test_verify_tolerance_scale_flag(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify", "clifford", "--tolerance-scale", "10.0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["tolerance_scale"] == 10.0


@pytest.mark.parametrize("overrides, path", [
    ({"tolerance_scal": 2.0}, "tolerance_scal"),
    ({"warped": {"scan_point": 10}}, "warped.scan_point"),
    ({"torus": {"grids": {"5": 16}}}, "torus.grids.5"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, overrides, path):
    with pytest.raises(KeyError, match=path):
        merge_config(overrides)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["verify", "clifford", "--config", str(cfg)]) == 2
    assert path in capsys.readouterr().err


def test_merge_config_merges_nested_dicts():
    cfg = merge_config({"torus": {"grids": {"3": 16}}, "tolerance_scale": 2.0})
    assert cfg["torus"]["grids"] == {"2": 32, "3": 16, "4": 12}
    assert cfg["torus"]["cutoff"] == 2
    assert cfg["tolerance_scale"] == 2.0
    assert merge_config(None) == default_config()


def test_warped_oracle_product(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({
        "fiber": {"kind": "sphere", "radius": 1.0},
        "profile": {"kind": "zero"},
        "oracle": {"samples": 3},
    }))
    out = tmp_path / "oracle.csv"
    code = main(["warped", "oracle", "--family", str(fam), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,formula,fd_estimate,error_bar,within_tolerance"
    assert [line.split(",")[-1] for line in lines[1:]] == ["1", "1", "1"]


def test_warped_scan_product(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({
        "fiber": {"kind": "sphere", "radius": 1.0},
        "profile": {"kind": "zero"},
        "frozen_s": 0.0,
        "scan": {"points": 200},
    }))
    out = tmp_path / "scan.csv"
    code = main(["warped", "scan", "--family", str(fam), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,q_index,scalar,lower_bound"
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(abs(v - 2.0) for v in values) <= 1e-12  # S == S_M == 2


def test_warped_scan_sphere_path_matches_pointwise_scalar(tmp_path, capsys):
    desc = {
        "fiber": {"kind": "sphere_path", "radius_start": 0.2, "radius_end": 0.20002},
        "profile": {"kind": "construct"},
        "scan": {"points": 60},
    }
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(desc))
    out = tmp_path / "scan.csv"
    assert main(["warped", "scan", "--family", str(fam), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,q_index,scalar,lower_bound"
    rows = [line.split(",") for line in lines[1:]]
    metric, _ = _metric_from_descriptor(desc)
    points = metric.family.sample_points()
    assert len(rows) == 60 * len(points)
    for r, qi, scalar, bound in rows:
        assert float(scalar) == warped_scalar(metric, float(r), points[int(qi)])
        assert (bound != "") == (metric.r2 <= float(r) <= metric.r3)
    # the CSV is the certificate of the suite's scan at the same radii
    cert = scan_scalar_positivity(metric, 60)
    assert [float(row[0]) for row in rows] == cert.scan_radii.tolist() * len(points)
    assert [float(row[2]) for row in rows] == cert.scan_values.ravel().tolist()
    assert f"min scalar {cert.min_scalar:.6e} (PASS)" in capsys.readouterr().out


def test_warped_scan_construct_reuses_certificate(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({
        "fiber": {"kind": "sphere_path", "radius_start": 0.2, "radius_end": 0.20002},
        "profile": {"kind": "construct"},
    }))
    build = tmp_path / "build.json"
    assert main(["warped", "build", "--family", str(fam), "--out", str(build)]) == 0
    min_scalar = json.loads(build.read_text())["certificate"]["min_scalar"]
    scan = tmp_path / "scan.csv"
    assert main(["warped", "scan", "--family", str(fam), "--out", str(scan)]) == 0
    assert len(scan.read_text().strip().splitlines()) == 1 + 4000 * 4
    assert f"min scalar {min_scalar:.6e} (PASS)" in capsys.readouterr().out


def test_warped_build_reports_mass(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({
        "fiber": {"kind": "torus", "k": 2},
        "profile": {"kind": "tail", "m_inf": -2.0, "c": 5.0},
    }))
    out = tmp_path / "build.json"
    code = main(["warped", "build", "--family", str(fam), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mass"] == -2.0
    assert abs(payload["asymptotic_order"] - 1.0) < 0.05
    # the oracle and the scan are the paths that evaluate InverseTail.dm
    oracle = tmp_path / "oracle.csv"
    assert main(["warped", "oracle", "--family", str(fam), "--out", str(oracle)]) == 0
    rows = oracle.read_text().strip().splitlines()[1:]
    assert len(rows) == 25 and all(row.endswith(",1") for row in rows)
    scan = tmp_path / "scan.csv"
    assert main(["warped", "scan", "--family", str(fam), "--out", str(scan)]) == 0
    values = [float(row.split(",")[2]) for row in scan.read_text().strip().splitlines()[1:]]
    assert min(values) > 0.0


def test_warped_bad_descriptor_exits_2(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"fiber": {"kind": "klein_bottle"}}))
    assert main(["warped", "build", "--family", str(fam)]) == 2


def test_warped_missing_file_exits_2(tmp_path):
    assert main(["warped", "build", "--family",
                 str(tmp_path / "none.json")]) == 2


def test_spectrum_flat_t4(tmp_path):
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({"dim": 4, "cutoff": 1, "grid": 12}))
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--descriptor", str(desc), "--count", "3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,index,value,multiplicity,residual"
    first = lines[1].split(",")
    assert first[0] == "tt_rayleigh"
    assert float(first[2]) == 0.0
    assert int(first[3]) == 9  # constant traceless tensors in dimension 4
    second = lines[2].split(",")
    assert abs(float(second[2]) - 1.0) < 1e-10
    ground = lines[-1].split(",")
    assert ground[0] == "conformal_ground"
    assert abs(float(ground[2])) < 1e-10
    assert float(ground[4] or 0.0) <= 1e-8


def test_spectrum_count_zero_header_only(tmp_path):
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({"dim": 3, "cutoff": 1, "grid": 12}))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--descriptor", str(desc), "--count", "0",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["kind,index,value,multiplicity,residual"]


def test_spectrum_negative_count_exits_2(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--count", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--count" in capsys.readouterr().err


def test_spectrum_bad_cutoff_exits_2(tmp_path):
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({"dim": 4, "cutoff": 99}))
    assert main(["spectrum", "--descriptor", str(desc)]) == 2


def test_spectrum_perturbed_metric(tmp_path):
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({
        "dim": 3, "cutoff": 1, "grid": 16,
        "perturbation": {"seed": 3, "amplitude": 0.02, "count": 2},
    }))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--descriptor", str(desc), "--count", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    ground = lines[-1].split(",")
    assert ground[0] == "conformal_ground"
    assert float(ground[4]) <= 1e-8
