import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
_spec = importlib.util.spec_from_file_location("seed_sweep", _PATH)
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def test_parse_seeds():
    assert seed_sweep.parse_seeds("0-3") == [0, 1, 2, 3]
    assert seed_sweep.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        seed_sweep.parse_seeds("5-2")


def test_headroom():
    assert seed_sweep.headroom(1e-9, 1e-8) == pytest.approx(0.1)
    assert seed_sweep.headroom(0.0, 0.0) == 0.0
    assert math.isinf(seed_sweep.headroom(1e-20, 0.0))


def test_clifford_sweep_prints_wall_times(capsys):
    assert seed_sweep.main(["clifford", "--seeds", "0-1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "worst s" in lines[0] and "total s" in lines[0]
    rows = [line for line in lines if line.startswith("clifford.")]
    assert rows
    for line in rows:
        fields = line.split()
        worst_s, total_s = float(fields[-3]), float(fields[-2])
        assert fields[-1] == "-"
        assert 0.0 <= worst_s <= total_s
    total = [line for line in lines if line.startswith("clifford: ") and "check time" in line]
    assert len(total) == 1
    assert float(total[0].split()[1]) == pytest.approx(
        sum(float(line.split()[-2]) for line in rows), abs=0.1 + 0.01 * len(rows))
    assert lines[-1].startswith("clifford: ") and "over seeds 0-1 (2 seeds)" in lines[-1]
