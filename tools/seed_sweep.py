"""Seed sweep: each check's worst value, tolerance and headroom over a seed range.

    python3 tools/seed_sweep.py warped --seeds 0-19
    python3 tools/seed_sweep.py all --seeds 0-3

Runs `spinstab.suites.run_suite` once per seed, one seed after another in
this process, with the default configuration.  Prints one row per check id,
in the order the suites make them: the worst |value| over the seeds and the
seed that gave it, the tolerance, the headroom |value| / tolerance (inf for a
nonzero value against a zero tolerance, 0 when both are 0), the check's
worst wall time over the seeds and its total, and the seeds at which the
check failed.  A record's wall time is the report's (the time since the
previous record), so set-up shared with later checks lands on the record
after which it runs.  One line per suite then gives its total wall time.
A check that a seed did not reach (its suite ended with `suite_error`) lists
that seed as missing.  Exits 1 when any check failed or went missing at any
seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spinstab.suites import SUITES, run_suite  # noqa: E402


def parse_seeds(text: str) -> list:
    """'0-19' -> [0, ..., 19]; '7' -> [7]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def headroom(value: float, tol: float) -> float:
    if tol > 0:
        return value / tol
    return 0.0 if value == 0 else float("inf")


def sweep(suite: str, seeds: list) -> dict:
    """check id -> {worst, worst_seed, tolerance, worst_s, total_s, failed,
    seen} over the seeds."""
    rows = {}
    for seed in seeds:
        for report in run_suite(suite, seed=seed):
            for rec in report.records:
                key = f"{report.suite}.{rec.check_id}"
                row = rows.setdefault(key, {"worst": -1.0, "worst_seed": None,
                                            "tolerance": rec.tolerance,
                                            "worst_s": 0.0, "total_s": 0.0,
                                            "failed": [], "seen": []})
                value = abs(float(rec.value))
                if value > row["worst"]:
                    row["worst"], row["worst_seed"] = value, seed
                row["worst_s"] = max(row["worst_s"], rec.wall_time)
                row["total_s"] += rec.wall_time
                row["seen"].append(seed)
                if not rec.passed:
                    row["failed"].append(seed)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("suite", choices=list(SUITES) + ["all"])
    parser.add_argument("--seeds", default="0-19", help="a range lo-hi (default 0-19)")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    start = time.perf_counter()
    rows = sweep(args.suite, seeds)
    elapsed = time.perf_counter() - start
    width = max(len(k) for k in rows)
    print(f"{'check':<{width}}  {'worst |value|':>13}  {'seed':>4}  {'tolerance':>9}  "
          f"{'headroom':>9}  {'worst s':>8}  {'total s':>8}  failing seeds")
    bad = False
    suite_s = {}
    for key, row in rows.items():
        missing = [s for s in seeds if s not in row["seen"]]
        note = ",".join(map(str, row["failed"])) or "-"
        if missing:
            note += " (missing at " + ",".join(map(str, missing)) + ")"
        bad = bad or bool(row["failed"]) or bool(missing)
        suite = key.partition(".")[0]
        suite_s[suite] = suite_s.get(suite, 0.0) + row["total_s"]
        print(f"{key:<{width}}  {row['worst']:13.3e}  {row['worst_seed']:>4}  "
              f"{row['tolerance']:9.1e}  {headroom(row['worst'], row['tolerance']):9.3g}  "
              f"{row['worst_s']:8.2f}  {row['total_s']:8.2f}  {note}")
    for suite, total in suite_s.items():
        print(f"{suite}: {total:.1f} s of check time over {len(seeds)} seeds")
    print(f"{args.suite}: {len(rows)} checks over seeds {args.seeds} "
          f"({len(seeds)} seeds) in {elapsed:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
