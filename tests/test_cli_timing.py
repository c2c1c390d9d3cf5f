import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_timing", _ROOT / "tools" / "cli_timing.py")
cli_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_timing)


def test_one_checkout_against_itself(capsys):
    assert cli_timing.main([str(_ROOT), str(_ROOT), "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["command", "before"]
    count = len(cli_timing.COMMANDS)
    table, runs = lines[1:1 + count], lines[1 + count:]
    assert [line[:16].strip() for line in table] == list(cli_timing.COMMANDS)
    for line in table:
        fields = line[16:].split()
        before, after, ratio = float(fields[0]), float(fields[2]), float(fields[4])
        assert ratio == pytest.approx(after / before, abs=0.01)
        assert fields[5] in ("0/1", "1/1")
        assert fields[6] == fields[8]  # the same modules on both sides
    assert len(runs) == 2 * len(cli_timing.COMMANDS)
    assert all(len(line.split(": ")[1].split()) == 1 for line in runs)


def test_failing_command_exits_1(tmp_path, capsys):
    # a checkout whose package cannot be imported
    package = tmp_path / "src" / "spinstab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise ImportError('broken checkout')\n")
    assert cli_timing.main([str(tmp_path), str(_ROOT), "--repeats", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: import in ")
