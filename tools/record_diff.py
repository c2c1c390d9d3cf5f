"""Record diff: what moved between two `spinstab verify --out` reports.

    python3 tools/record_diff.py before.json after.json

Both files are `verify --out` payloads (a single report's JSON works too).
Timings are stripped as `VerificationReport.strip_timings` strips them.
Prints one line per record whose value moved: suite.id, tolerance, old
value, new value and relative change |new - old| / |old|; a moved record
with tolerance 0 (an exact check) is flagged EXACT, and one whose old value
was exactly 0 is flagged WAS-0.  Then one line per difference in the
records' shape: ids and their order, anchors, tolerances, pass flags, detail
keys, sample counts (the report config and the detail entries named in
COUNT_KEYS), and a summary line that counts the moved and the WAS-0 records.

Exits 1 when the shape differs or an exact record moved, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spinstab.report import VerificationReport  # noqa: E402

# detail entries that hold a sample count, not a measured value
COUNT_KEYS = ("samples", "samples_per_metric", "pairs", "modes")


def load(path) -> list:
    """The stripped reports of a verify --out payload, in order."""
    obj = json.loads(Path(path).read_text())
    reports = obj["reports"] if "reports" in obj else [obj]
    return [VerificationReport.from_json(json.dumps(r)).strip_timings() for r in reports]


def _shape(report: dict) -> list:
    """(suite.id, anchor, tolerance, passed, detail keys, counts) per record."""
    return [(f"{report['suite']}.{r['id']}", r["anchor"], r["tolerance"], r["passed"],
             sorted(r["detail"]), {k: r["detail"][k] for k in COUNT_KEYS if k in r["detail"]})
            for r in report["records"]]


def relative_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0 else float("inf")


def diff(before: list, after: list) -> tuple:
    """(moved, problems): moved holds (name, tolerance, old, new, relative
    change) per record whose value moved; problems one line per shape
    difference and per moved exact record."""
    moved, problems = [], []
    if [r["suite"] for r in before] != [r["suite"] for r in after]:
        return moved, ["suites differ"]
    for old_rep, new_rep in zip(before, after):
        if old_rep["config"] != new_rep["config"]:
            problems.append(f"{old_rep['suite']}: config (sample counts) differs")
        old_shape, new_shape = _shape(old_rep), _shape(new_rep)
        if [s[0] for s in old_shape] != [s[0] for s in new_shape]:
            problems.append(f"{old_rep['suite']}: record ids differ")
            continue
        fields = ("anchor", "tolerance", "passed", "detail keys", "sample counts")
        for old_s, new_s, old, new in zip(old_shape, new_shape,
                                          old_rep["records"], new_rep["records"]):
            for name, a, b in zip(fields, old_s[1:], new_s[1:]):
                if a != b:
                    problems.append(f"{old_s[0]}: {name} {a!r} -> {b!r}")
            if old["value"] != new["value"]:
                moved.append((old_s[0], old["tolerance"], old["value"], new["value"],
                              relative_change(old["value"], new["value"])))
                if old["tolerance"] == 0 and new["tolerance"] == 0:
                    problems.append(f"{old_s[0]}: EXACT record moved")
    return moved, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args(argv)
    before, after = load(args.before), load(args.after)
    moved, problems = diff(before, after)
    for name, tol, old, new, rel in moved:
        flag = ("  EXACT" if tol == 0 else "") + ("  WAS-0" if old == 0 else "")
        print(f"{name:45s} tol {tol:<8.1e} {old:.9e} -> {new:.9e}  rel {rel:.2e}{flag}")
    for line in problems:
        print(f"DIFFERS {line}")
    total = sum(len(r["records"]) for r in before)
    was_zero = sum(1 for _, _, old, _, _ in moved if old == 0)
    print(f"{total} records, {len(moved)} moved, {was_zero} WAS-0, "
          f"{'same shape' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
