"""Before/after wall time of the command line, in fresh interpreters.

    python3 tools/cli_timing.py BEFORE_DIR AFTER_DIR [--repeats N]

BEFORE_DIR and AFTER_DIR are checkouts of the repository; each command runs
in a new interpreter with PYTHONPATH set to that checkout's `src/`.  The
commands are `import spinstab.cli`, `warped build` of the docs/formats.md
family (written to a temporary directory), `spectrum` (flat T^4, 5 rows)
and `verify clifford`.  Each repeat runs every command once per checkout,
alternating which checkout goes first, and times the whole process.

Prints, per command, the median and quartiles of each side in seconds, the
ratio of the medians (after / before), the pairs in which after was faster,
and the number of modules each side had loaded at exit; then every run.
Exits 1 if a command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# the family descriptor of docs/formats.md
FAMILY = {
    "fiber": {"kind": "sphere_path", "radius_start": 0.2, "radius_end": 0.20002},
    "profile": {"kind": "construct"},
    "scan": {"points": 4000, "r_max_factor": 4.0},
    "oracle": {"samples": 25},
}

COMMANDS = {
    "import": [],
    "warped build": ["warped", "build", "--family", "family.json", "--out", "build.json"],
    "spectrum": ["spectrum"],
    "verify clifford": ["verify", "clifford"],
}

# runs the command line (or only imports it, with no arguments), then
# reports how many modules are loaded
_DRIVER = """
import sys
if sys.argv[1:]:
    from spinstab.cli import main
    code = main(sys.argv[1:])
else:
    import spinstab.cli
    code = 0
sys.stderr.write(f"\\nmodules={len(sys.modules)}\\n")
sys.exit(code)
"""


def run_once(checkout: Path, argv: list, workdir: str) -> tuple:
    """(wall seconds, modules loaded) of one fresh-interpreter run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _DRIVER] + argv, cwd=workdir, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv) or 'import'} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return wall, int(proc.stderr.rsplit("modules=", 1)[1])


def measure(before: Path, after: Path, repeats: int) -> dict:
    """{command: {"before": [(s, modules), ...], "after": [...]}}."""
    runs = {name: {"before": [], "after": []} for name in COMMANDS}
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "family.json").write_text(json.dumps(FAMILY))
        for rep in range(repeats):
            for name, argv in COMMANDS.items():
                sides = [("before", before), ("after", after)]
                for side, checkout in sides[::-1] if rep % 2 else sides:
                    runs[name][side].append(run_once(checkout, argv, workdir))
    return runs


def row(name: str, before: list, after: list) -> str:
    """One command's line of the table."""
    b, a = (np.array([s for s, _ in side]) for side in (before, after))
    (bq1, bmed, bq3), (aq1, amed, aq3) = (np.percentile(x, [25, 50, 75]) for x in (b, a))
    won = int(np.sum(a < b))
    return (f"{name:<16} {bmed:7.3f} ({bq1:.3f}-{bq3:.3f}) {amed:7.3f} ({aq1:.3f}-{aq3:.3f}) "
            f"{amed / bmed:6.2f} {won:>3}/{len(b):<3} {before[0][1]:>5} -> {after[0][1]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", type=Path, help="checkout of the parent")
    p.add_argument("after", type=Path, help="checkout of the change")
    p.add_argument("--repeats", type=int, default=10, help="runs per command and side")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    try:
        runs = measure(args.before.resolve(), args.after.resolve(), args.repeats)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'command':<16} {'before s (q1-q3)':>21} {'after s (q1-q3)':>21} {'ratio':>6} "
          f"{'won':^7} {'modules':>7}")
    for name, sides in runs.items():
        print(row(name, sides["before"], sides["after"]))
    for name, sides in runs.items():
        for side in ("before", "after"):
            print(f"runs {name} {side}: " + " ".join(f"{s:.3f}" for s, _ in sides[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
