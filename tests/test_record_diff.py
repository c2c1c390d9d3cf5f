import importlib.util
import json
import math
from pathlib import Path

from spinstab.report import VerificationReport

_PATH = Path(__file__).resolve().parent.parent / "tools" / "record_diff.py"
_spec = importlib.util.spec_from_file_location("record_diff", _PATH)
record_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_diff)


def _payload(path, values=(0.0, 2e-12, 3.5), tolerances=(0.0, 1e-10, 5.0), samples=20,
             ids=("exact", "roundoff", "slope"), config=None):
    """A verify --out payload with one report of three records."""
    rep = VerificationReport("demo", 0, config or {"samples": samples})
    for check_id, value, tol in zip(ids, values, tolerances):
        rep.add(check_id, f"{check_id} holds", value, tol, samples=samples)
    path.write_text(json.dumps({"suite": "demo", "seed": 0, "passed": rep.passed,
                                "reports": [json.loads(rep.to_json())]}))
    return str(path)


def test_same_records_with_other_timings_do_not_differ(tmp_path, capsys):
    # wall times differ between the two reports; they are stripped
    a, b = _payload(tmp_path / "a.json"), _payload(tmp_path / "b.json")
    assert record_diff.main([a, b]) == 0
    assert capsys.readouterr().out.splitlines() == ["3 records, 0 moved, 0 WAS-0, same shape"]


def test_moved_values_are_listed_with_their_relative_change(tmp_path, capsys):
    a = _payload(tmp_path / "a.json")
    b = _payload(tmp_path / "b.json", values=(0.0, 1e-12, 3.5))
    assert record_diff.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[-1] == "3 records, 1 moved, 0 WAS-0, same shape"
    assert lines[0].split()[:2] == ["demo.roundoff", "tol"]
    assert "2.000000000e-12 -> 1.000000000e-12" in lines[0] and "rel 5.00e-01" in lines[0]
    assert "EXACT" not in lines[0] and "WAS-0" not in lines[0]
    assert record_diff.relative_change(0.0, 0.0) == 0.0
    assert math.isinf(record_diff.relative_change(0.0, 1e-20))


def test_a_record_that_moved_from_zero_is_tagged_and_counted(tmp_path, capsys):
    # the roundoff record read exactly 0 before; it has a tolerance, so the
    # exit code stays 0
    a = _payload(tmp_path / "a.json", values=(0.0, 0.0, 3.5))
    b = _payload(tmp_path / "b.json", values=(0.0, 1e-17, 3.5))
    assert record_diff.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("demo.roundoff") and lines[0].endswith("WAS-0")
    assert "EXACT" not in lines[0]
    assert lines[-1] == "3 records, 1 moved, 1 WAS-0, same shape"


def test_a_moved_exact_record_fails(tmp_path, capsys):
    a = _payload(tmp_path / "a.json")
    b = _payload(tmp_path / "b.json", values=(1e-300, 2e-12, 3.5))
    assert record_diff.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "EXACT  WAS-0" in out and "DIFFERS demo.exact: EXACT record moved" in out
    assert "1 WAS-0" in out


def test_shape_differences_fail(tmp_path, capsys):
    a = _payload(tmp_path / "a.json")
    cases = {
        "tolerance": dict(tolerances=(0.0, 1e-9, 5.0)),
        "sample counts": dict(samples=10, config={"samples": 20}),
        "config": dict(config={"samples": 21}),
        "record ids": dict(ids=("exact", "roundoff", "other")),
        "passed": dict(values=(0.0, 2e-12, 6.0)),
    }
    for word, kwargs in cases.items():
        b = _payload(tmp_path / f"{word}.json", **kwargs)
        assert record_diff.main([a, b]) == 1, word
        assert word in capsys.readouterr().out, word
