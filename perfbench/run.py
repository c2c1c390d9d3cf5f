"""spinstab benchmark: one workload, one single-threaded process, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The caller runs the workload's ops one after another in a
closed loop (the next op starts when the previous one has returned).  A pass
is one sweep over all ops; a run makes n = max(1, round(S / nominal pass
time)) passes, pass p on inputs of its own drawn from (seed, p), so every run
of a workload at one seed times the same ops and a run averages over n input
draws; no pass starts after 1.5 S, which only a much slower machine hits.
Each op is checked against the gate of the suite record it mirrors; an
exception or a missed gate is one failed op, and the run goes on.

With --trace 0 the last line of output reports the end-to-end metrics of
untraced passes.  With --trace 1, the first max(1, n // 2) passes run
untraced and then again under the span tracer (`spans.py`); the last line
reports the per-layer metrics of the traced passes and the tracing overhead.
The line before it holds the machine and provenance block, the pass digests
and per-op details; the full record and the spans go to `.perfbench/` in the
checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# single-threaded baseline: pin every thread pool before numpy is imported
THREAD_PINS = ("SPINSTAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3
# a seed kept out of tuning; a claimed gain must also hold at this seed
HELD_OUT_SEED = 7919


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "spinstab" / "__init__.py").is_file():
        _fail(f"no spinstab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import spinstab

    if Path(spinstab.__file__).resolve().parent != (SRC / "spinstab").resolve():
        _fail(f"imported spinstab from {spinstab.__file__}, not from {SRC}")


def _canonical(x):
    """JSON-ready form of op outputs in which floats keep every bit."""
    import numpy as np

    if isinstance(x, dict):
        return {str(k): _canonical(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_canonical(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real).hex(), float(x.imag).hex()]
    return str(x)


def run_pass(ops, pass_id: str, tracer=None) -> dict:
    """One closed-loop sweep over the ops of a pass."""
    ctx = {}
    latencies, failures, outputs = [], [], []
    gc.collect()  # start every pass with the same collector state
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{pass_id}.{i}"
        t0 = time.perf_counter()
        try:
            passed, out = op.run(ctx)
        except Exception as exc:  # an op that raises is one failed op
            passed, out = False, {"error": f"{type(exc).__name__}: {exc}"}
            out["traceback"] = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        if not passed:
            failures.append({"pass": pass_id, "op": i, "kind": op.kind,
                             "records": list(op.records),
                             "wrong_output": "error" not in out,
                             "error": out.get("error", "gate missed")})
        out.pop("traceback", None)
        outputs.append([op.kind, _canonical(out)])
    pass_s = time.perf_counter() - t_pass
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    return {"pass_s": pass_s, "latencies": latencies, "failures": failures,
            "digest": digest}


def run_passes(passes, budget_s: float, prefix: str, tracer=None):
    """The passes in order; none starts once `budget_s` has gone by, so a
    machine far slower than the nominal pass time still ends its run."""
    out, t0 = [], time.perf_counter()
    while len(out) < len(passes) and (not out or time.perf_counter() - t0 < budget_s):
        out.append(run_pass(passes[len(out)], f"{prefix}{len(out)}", tracer))
        if tracer is not None:
            out[-1]["spans"] = len(tracer.spans)
    return out


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import spinstab and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-probe"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def source_hash() -> str:
    """Identity of the code under test: the package and the benchmark."""
    h = hashlib.sha256()
    for f in sorted((SRC / "spinstab").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return model or platform.processor() or platform.machine(), caches


def provenance(args, src_hash: str) -> dict:
    import numpy
    import scipy

    model, caches = _cpu()
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((SRC / "spinstab").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
        "git_commit": _git_commit(),
        "source_sha256": src_hash,
        "src_lines": src_lines,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def check_digests(args, digests: list[str], key: str) -> str:
    """Compare the pass digests with earlier runs of the same sources and seed."""
    path = OUT_DIR / "digests" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.is_file() else {}
    earlier = known.get(key, [])
    if any(a != b for a, b in zip(digests, earlier)):
        return "mismatch"
    if len(digests) <= len(earlier):
        return "matched"
    known[key] = digests
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return "matched" if earlier else "stored"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=46.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the inputs, then exit (set-up timing)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    n_passes = max(1, round(args.seconds / workload.nominal_pass_s))
    n_phase = max(1, n_passes // 2) if args.trace else n_passes
    budget_s = 1.5 * args.seconds * n_phase / n_passes
    inputs = workload.passes(args.seed, n_phase)
    if args.setup_probe:
        return 0
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    setup_times = measure_setup(args)
    plain = run_passes(inputs, budget_s, "p")
    traced, layer_per_pass, nesting = [], [], []
    tracer = None
    if args.trace:
        tracer = spans.Tracer().install()
        try:
            # the same inputs again, so traced and untraced digests must agree
            traced = run_passes(inputs[:len(plain)], budget_s, "t", tracer)
        finally:
            tracer.uninstall()
        lo = 0
        for p in traced:
            layer_per_pass.append(tracer.layer_metrics(lo, p["spans"], p["pass_s"]))
            nesting += tracer.check_nesting(lo, p["spans"])
            lo = p["spans"]

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = len(failures)
    src_hash = source_hash()
    digests = [p["digest"] for p in plain]
    if any(t["digest"] != d for t, d in zip(traced, digests)):
        digest_status = "differs between untraced and traced passes"
    else:
        digest_status = check_digests(args, digests, src_hash)
    if digest_status not in ("matched", "stored"):
        failed += 1
        failures.append({"wrong_output": True,
                         "error": f"determinism digest {digest_status}"})
    if nesting:
        failed += 1
        failures.append({"wrong_output": True,
                         "error": "span tree unsound: " + "; ".join(nesting[:5])})

    latencies = [x for p in plain for x in p["latencies"]]
    tail_s, tail_pct = tail(latencies)
    plain_pass_s = statistics.median(p["pass_s"] for p in plain)
    if args.trace:
        layer = spans.median_metrics(layer_per_pass)
        traced_pass_s = statistics.median(p["pass_s"] for p in traced)
        layer["trace.overhead_frac"] = traced_pass_s / plain_pass_s - 1.0
        values = dict(layer)
    else:
        values = {
            "pass_s": plain_pass_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    per_kind = {}
    for ops, p in zip(inputs, plain):
        for op, lat in zip(ops, p["latencies"]):
            per_kind.setdefault(op.kind, []).append(lat)
    detail = {
        "workload": args.workload,
        "loop": "closed, one caller, one single-threaded process",
        "provenance": provenance(args, src_hash),
        "passes": {"untraced": [p["pass_s"] for p in plain],
                   "traced": [p["pass_s"] for p in traced]},
        "ops_per_pass": len(inputs[0]),
        "op_count": len(latencies),
        "op_tail_percentile": tail_pct,
        "op_kind_median_ms": {k: 1e3 * statistics.median(v) for k, v in per_kind.items()},
        "setup_samples_s": setup_times,
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "digest": digests,
        "digest_check": digest_status,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = dict(detail, metrics=metrics,
                  latencies_s=[p["latencies"] for p in passes],
                  layer_per_pass=layer_per_pass)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(results_dir / f"{stem}.spans.jsonl.gz")

    print(json.dumps(detail))
    # an op that raised produced no output: it is failed, not incorrect
    correct = not any(f["wrong_output"] for f in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
