"""Machine-readable verification reports.

Each check produces one record: an identifier, the mathematical property it
exercises (as a plain formula/property string), the measured value or
residual, the tolerance it must meet and the outcome: |value| <= tolerance
unless the check passes its own verdict.  A record's wall time is the time
since the report's previous record (or since the report was made), so it
includes set-up shared with later records.  Reports serialize to JSON
losslessly; wall times are informational and excluded from equality.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    check_id: str
    anchor: str           # the property being checked, human readable
    value: float
    tolerance: float
    passed: bool
    wall_time: float
    detail: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "wall_time": self.wall_time,
            "detail": self.detail,
        }

    @classmethod
    def from_json_obj(cls, obj):
        return cls(
            check_id=obj["id"], anchor=obj["anchor"], value=obj["value"],
            tolerance=obj["tolerance"], passed=obj["passed"],
            wall_time=obj["wall_time"], detail=obj.get("detail", {}),
        )


@dataclass
class VerificationReport:
    suite: str
    seed: int
    config: dict
    records: list = field(default_factory=list)
    # time of the previous record; the clock is looked up on each call
    _last_add: float = field(default_factory=lambda: time.perf_counter(),
                             init=False, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, check_id: str, anchor: str, value: float, tolerance: float,
            *, passed: bool | None = None, **detail):
        now = time.perf_counter()
        wall_time, self._last_add = now - self._last_add, now
        value = float(value)
        ok = (abs(value) <= tolerance) if passed is None else bool(passed)
        rec = CheckRecord(check_id, anchor, value, float(tolerance), ok,
                          wall_time, dict(detail))
        self.records.append(rec)
        return rec

    def to_json(self) -> str:
        obj = {
            "suite": self.suite,
            "seed": self.seed,
            "config": self.config,
            "passed": self.passed,
            "records": [r.to_json_obj() for r in self.records],
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        obj = json.loads(text)
        rep = cls(suite=obj["suite"], seed=obj["seed"], config=obj["config"])
        rep.records = [CheckRecord.from_json_obj(r) for r in obj["records"]]
        return rep

    def summary_lines(self):
        out = []
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            out.append(
                f"[{status}] {self.suite}.{r.check_id}: "
                f"value {r.value:.6e} vs tol {r.tolerance:.1e}  ({r.anchor})")
        return out

    def strip_timings(self) -> dict:
        """Deterministic content only (for run-to-run comparisons)."""
        obj = json.loads(self.to_json())
        for rec in obj["records"]:
            rec.pop("wall_time", None)
        return obj
