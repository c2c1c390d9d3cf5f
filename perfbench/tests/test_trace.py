"""Trace completeness: the tracer sees every transform and every solve.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from spinstab.torus import eigen, fields, geometry  # noqa: E402


@pytest.fixture
def scipy_fft_calls(monkeypatch):
    """Count calls at the scipy.fft level, below the package's wrappers."""
    count = {"n": 0}
    for name in ("fftn", "ifftn"):
        original = getattr(scipy.fft, name)

        def counted(*args, _original=original, **kwargs):
            count["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return count


def _ops(ops, kind):
    return [op for op in ops if op.kind == kind]


def test_trace_counts_every_transform_and_solve(scipy_fft_calls):
    eig_ops = workloads.conformal_eigen(np.random.default_rng(3))
    curv_ops = workloads.curvature_pipeline(np.random.default_rng(3))
    chosen = (_ops(eig_ops, "cold_sign_pair")[:1] + _ops(eig_ops, "first_variation")[:1]
              + _ops(curv_ops, "conformal_2d_scalar_g32")[:1])

    tracer = spans.Tracer().install()
    try:
        ctx, direct = {}, 0
        for i, op in enumerate(chosen):
            tracer.op = f"t0.{i}"
            passed, out = op.run(ctx)
            assert passed, (op.kind, out)
            direct += out.get("direct_solves", 0)
    finally:
        tracer.uninstall()

    n = len(tracer.spans)
    m = tracer.layer_metrics(0, n, pass_s=1.0)
    assert scipy_fft_calls["n"] > 0
    assert m["fields.fft_calls"] == scipy_fft_calls["n"]
    assert direct >= 2
    assert m["eigen.variation_calls"] == 1
    assert m["eigen.solves"] == 9 * m["eigen.variation_calls"] + direct
    # each stencil's t = 0 solve has no neighbour to start from, so it is cold
    assert m["eigen.warm_solves"] == 8 * m["eigen.variation_calls"]
    assert m["eigen.cold_solves"] == m["eigen.solves"] - m["eigen.warm_solves"]
    assert m["eigen.inner_iters"] > 0
    assert tracer.check_nesting(0, n) == []
    assert min(tracer.self_times(0, n)) >= 0.0
    assert {op for *_, op in tracer.spans} == {f"t0.{i}" for i in range(len(chosen))}


def test_uninstall_restores_every_binding():
    originals = (fields.fftn, geometry.fftn, eigen.fftn, eigen.conformal_eigenvalue,
                 geometry.MetricGeometry.riemann, fields.Grid.gradient)
    tracer = spans.Tracer().install()
    try:
        assert geometry.fftn is fields.fftn is eigen.fftn
        assert geometry.fftn is not originals[0]
        assert geometry.MetricGeometry.riemann is not originals[4]
    finally:
        tracer.uninstall()
    assert (fields.fftn, geometry.fftn, eigen.fftn, eigen.conformal_eigenvalue,
            geometry.MetricGeometry.riemann, fields.Grid.gradient) == originals


def test_workload_record_matches_the_ops():
    """workloads.json describes exactly the ops each workload builds."""
    import json
    from collections import Counter

    record = json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]
    assert set(record) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        ops = workload.passes(0, 1)[0]
        kinds = Counter((op.kind, op.records) for op in ops)
        groups = record[name].get("groups", [record[name]])
        listed = {(op["kind"], tuple(op["records"])): op["count"]
                  for group in groups for op in group["ops"]}
        assert dict(kinds) == listed, name
        assert record[name]["nominal_pass_s"] == workload.nominal_pass_s, name
        assert all(r in workloads.GATES for op in ops for r in op.records
                   if not r.startswith("suite:")), name
