import json

import pytest

from spinstab import clifford as cliff
from spinstab import report, suites
from spinstab.cli import _metric_from_descriptor, main
from spinstab.report import VerificationReport
from spinstab.suites import default_config, merge_config
from spinstab.torus import operators as ops
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
    assert [r.check_id for r in rep.records if not r.passed] == ["bad"]


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


def test_verify_bad_cutoff_exits_2(capsys):
    # the cutoffs are constants of the suites; the flag is gone
    with pytest.raises(SystemExit) as exc:
        main(["verify", "torus", "--cutoff", "99"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cutoff 99" in capsys.readouterr().err


def _no_runner(*_):
    raise AssertionError("a check ran")


@pytest.mark.parametrize("argv, overrides, message", [
    (["--cutoff", "99"], {}, "torus.cutoff may not be set by a flag"),
    ([], {"torus": {"cutoff": 0}}, "torus.cutoff may not be set in the config"),
    ([], {"torus": {"cy_cutoff": 17}}, "torus.cy_cutoff may not be set in the config"),
    ([], {"torus": {"cutoff": True}}, "torus.cutoff may not be set in the config, even to true"),
    ([], {"torus": {"cutoff": 2.0}}, "torus.cutoff may not be set in the config, even to 2.0"),
])
def test_verify_bad_cutoff_in_flag_or_file_exits_2_first(tmp_path, monkeypatch, capsys,
                                                         argv, overrides, message):
    # the torus cutoffs are constants: argparse rejects the flag and
    # merge_config the key, both before a check runs
    monkeypatch.setitem(suites.RUNNERS, "torus", _no_runner)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    try:
        code = main(["verify", "torus", "--config", str(cfg)] + argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2, message
    assert out.out == ""
    if argv:
        assert "unrecognized arguments: --cutoff 99" in out.err
    else:
        (key,) = overrides["torus"]
        assert out.err.splitlines() == [f"error: unknown config key 'torus.{key}'"], message


@pytest.mark.parametrize("overrides, message", [
    ([1, 2], "config must be an object, not [1, 2]"),
    (None, "config must be an object, not None"),
    ({"torus": 5}, "torus must be an object, not 5"),
    ({"torus": {"cutoff": 2}}, "unknown config key 'torus.cutoff'"),
    ({"tolerance_scale": 2.0}, "unknown config key 'tolerance_scale'"),
    # one mode is on T^3 only, and conformal_second_variation scales T^4 by it
    ({"torus": {"second_variation_modes": 1}},
     "torus.second_variation_modes must be an integer >= 2, not 1"),
], ids=["list", "null", "suite_not_object", "cutoff", "tolerance_scale", "one_mode"])
def test_verify_malformed_config_exits_2_first(tmp_path, monkeypatch, capsys,
                                               overrides, message):
    for name in suites.SUITES:
        monkeypatch.setitem(suites.RUNNERS, name, _no_runner)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["verify", "all", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.err.splitlines() == [f"error: {message}"]
    assert out.out == ""


COUNT_KEYS = [(suite, key) for suite, counts in default_config().items() for key in counts]


def test_count_keys_name_every_sample_count():
    # the sample and mode counts are the only settable values
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
    low = suites.MIN_COUNT.get(f"{suite}.{key}", 1)
    assert out.err.splitlines() == [f"error: {suite}.{key} must be an integer >= {low}, "
                                    f"not {value!r}"]
    assert out.out == ""


def test_verify_default_and_unit_counts_run(tmp_path, monkeypatch):
    # every count at its least value: 1, or MIN_COUNT where that is larger
    seen = []
    for name in suites.SUITES:
        monkeypatch.setitem(suites.RUNNERS, name, lambda rep, seed, cfg: seen.append(cfg))
    assert main(["verify", "all"]) == 0
    least = {s: {k: suites.MIN_COUNT.get(f"{s}.{k}", 1) for k in counts}
             for s, counts in default_config().items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(least))
    assert main(["verify", "all", "--config", str(cfg)]) == 0
    assert len(seen) == 2 * len(suites.SUITES)
    assert seen[0] == default_config() and seen[-1] == least


def test_odd_sample_counts_draw_every_sample(monkeypatch):
    # embedding_isometry makes one twisted_inner per sample and
    # rayleigh_floor one tt_project; the odd sample goes to the first dimension
    dims = []
    inner, tt_project = cliff.twisted_inner, ops.tt_project
    monkeypatch.setattr(cliff, "twisted_inner",
                        lambda a, b: dims.append(len(a)) or inner(a, b))
    monkeypatch.setattr(ops, "tt_project", lambda h: dims.append(h.n) or tt_project(h))
    least = {"first_variation_samples": 1, "second_variation_modes": 2,
             "sign_invariance_pairs": 1}
    for count in (1, 3):
        dims.clear()
        (clif,) = suites.run_suite("clifford", 0, {"clifford": {"isometry_samples": count}})
        assert clif.passed and dims == [4] * (count - count // 2) + [7] * (count // 2)
        dims.clear()
        (torus,) = suites.run_suite("torus", 0, {"torus": {"rayleigh_samples": count, **least}})
        assert torus.passed and dims == [4] * (count - count // 2) + [7] * (count // 2)


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
    error = RuntimeError("eigen-solver failed: residual 9.1e-08 after 10000 iterations")
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


def test_verify_tolerance_scale_flag(capsys):
    # the tolerances are constants of the checks; neither flag is listed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "clifford", "--tolerance-scale", "10.0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance-scale 10.0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    usage = capsys.readouterr().out
    assert "--config" in usage
    assert "--tolerance-scale" not in usage and "--cutoff" not in usage


@pytest.mark.parametrize("overrides, path", [
    ({"tolerance_scal": 2.0}, "tolerance_scal"),
    ({"warped": {"scan_point": 10}}, "warped.scan_point"),
    ({"torus": {"grids": {"5": 16}}}, "torus.grids"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, overrides, path):
    with pytest.raises(KeyError, match=path):
        merge_config(overrides)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["verify", "clifford", "--config", str(cfg)]) == 2
    assert path in capsys.readouterr().err


def test_merge_config_merges_nested_dicts():
    cfg = merge_config({"torus": {"rayleigh_samples": 16}, "g2": {}})
    expect = default_config()
    expect["torus"]["rayleigh_samples"] = 16
    assert cfg == expect
    assert merge_config({}) == default_config()


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


SPHERE_ZERO = {"fiber": {"kind": "sphere", "radius": 1.0}, "profile": {"kind": "zero"}}


@pytest.mark.parametrize("argv, desc, message", [
    (["warped", "build"], [1], "descriptor must be an object, not [1]"),
    (["spectrum"], [1], "descriptor must be an object, not [1]"),
    (["spectrum"], {"dim": 3, "grid": 0}, "grid must be an integer >= 1, not 0"),
    (["spectrum"], {"dim": 3, "cutoff": -1}, "cutoff must be an integer in [0, 8], not -1"),
    (["spectrum"], {"dim": 3, "perturbation": 5}, "perturbation must be an object, not 5"),
    (["warped", "scan"], {**SPHERE_ZERO, "scan": {"points": 0}},
     "scan.points must be an integer >= 1, not 0"),
    (["warped", "scan"], {**SPHERE_ZERO, "scan": {"r_max_factor": -1}},
     "scan.r_max_factor must be > 0, not -1.0"),
    (["warped", "oracle"], {**SPHERE_ZERO, "oracle": {"samples": 0}},
     "oracle.samples must be an integer >= 1, not 0"),
    (["warped", "scan"], {**SPHERE_ZERO, "fiber": {"kind": "torus", "k": 0}},
     "fiber.k must be an integer >= 1, not 0"),
    (["verify", "all", "--seed", "-1"], {}, "argument --seed: must be >= 0, not -1"),
], ids=["warped_list", "spectrum_list", "grid_0", "cutoff_-1", "perturbation_5",
        "points_0", "r_max_factor_-1", "samples_0", "k_0", "seed_-1"])
def test_cli_input_errors_exit_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                     argv, desc, message):
    for name in suites.SUITES:
        monkeypatch.setitem(suites.RUNNERS, name, _no_runner)
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(desc))
    flag = {"warped": "--family", "spectrum": "--descriptor"}.get(argv[0])
    out = tmp_path / "out"
    try:
        code = main(argv + ([flag, str(path)] if flag else []) + ["--out", str(out)])
    except SystemExit as exc:  # argparse
        code = exc.code
    err = capsys.readouterr()
    assert code == 2
    assert err.out == "" and not out.exists()
    errors = [line for line in err.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}")
    if flag:
        assert err.err.splitlines() == errors


@pytest.mark.parametrize("points", [1, 10])
def test_verify_warped_fails_when_the_scan_misses_a_profile_piece(tmp_path, capsys, points):
    # r_top = 4 r3 = 86.3: one radius lies in the tail only, and ten skip the
    # pieces [18, 19) and [19, 21.57) of the construction's profile
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warped": {"scan_points": points}}))
    out = tmp_path / "rep.json"
    assert main(["verify", "warped", "--config", str(cfg), "--out", str(out)]) == 1
    last = json.loads(out.read_text())["reports"][0]["records"][-1]
    assert last["id"] == "suite_error" and not last["passed"]
    assert last["detail"]["error"].startswith("ConstructionError: positivity scan at ")
    assert "[19, 21.5714) without a scanned radius" in last["detail"]["error"]
    assert "verify warped: FAIL" in capsys.readouterr().out


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
