"""Acceptance battery: one test per criterion, at the pinned tolerances.

The full verification suites run once per session; each criterion asserts
on the relevant check records and prints a pass/fail line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
from pathlib import Path

import pytest

from spinstab.suites import SUITES, run_suite

SEED = 0


@pytest.fixture(scope="module")
def reports():
    reps = run_suite("all", seed=SEED)
    return {r.suite: r for r in reps}


def _rec(reports, suite, check_id):
    for r in reports[suite].records:
        if r.check_id == check_id:
            return r
    raise AssertionError(f"missing record {suite}.{check_id}")


def _announce(num, label, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_clifford_relations_and_embedding(reports):
    ok = True
    for n in (2, 3, 4, 7, 8):
        ok &= _rec(reports, "clifford", f"relation_n{n}").passed
        ok &= _rec(reports, "clifford", f"skew_n{n}").passed
    iso = _rec(reports, "clifford", "embedding_isometry")
    ok &= iso.passed and iso.value <= 1e-13 and iso.detail["samples"] >= 100
    der = _rec(reports, "clifford", "embedding_derivative")
    ok &= der.passed and der.value <= 1e-10
    _announce(1, "exact Clifford tables; embedding isometry 1e-13; "
                 "derivative commutation 1e-10", ok)


def test_criterion_02_bochner_split(reports):
    boch = _rec(reports, "curvalg", "bochner_contractions")
    ok = boch.passed and boch.value <= 1e-10 and boch.detail["pairs"] >= 400
    for n in (4, 7):
        sq = _rec(reports, "torus", f"dirac_square_n{n}")
        ok &= sq.passed and sq.value <= 1e-10
    _announce(2, "curvature half (20 x 20 seeded) and flat derivative half "
                 "of the Dirac-square identity at 1e-10", ok)


def test_criterion_03_quadratic_form_and_kernel(reports):
    ok = True
    for n in (4, 7):
        q = _rec(reports, "torus", f"quadratic_identity_n{n}")
        ok &= q.passed and q.value <= 1e-10
    ray = _rec(reports, "torus", "rayleigh_floor")
    ok &= ray.passed and ray.detail["samples"] >= 200
    for n in (4, 7):
        ok &= _rec(reports, "torus", f"kernel_dim_n{n}").passed
    _announce(3, "<Lich h, h> = |D embed h|^2; Rayleigh floor over 200 TT "
                 "fields; kernel dimensions n(n+1)/2 - 1", ok)


def test_criterion_04_linearization_formulas(reports):
    match = _rec(reports, "torus", "linearization_match")
    order = _rec(reports, "torus", "linearization_order")
    ok = match.passed and match.value <= 1e-6
    ok &= order.passed and min(order.detail["orders"]) >= 1.9
    _announce(4, "dRic/dS/dLap match finite differences at 1e-6 with "
                 "order >= 1.9", ok)


def test_criterion_05_variational_formulas(reports):
    first = _rec(reports, "torus", "first_variation_flat")
    second = _rec(reports, "torus", "second_variation_tt")
    lie = _rec(reports, "torus", "lie_invariance")
    conf = _rec(reports, "torus", "conformal_second_variation")
    ok = first.passed and first.value <= 1e-6 and first.detail["samples"] >= 20
    ok &= second.passed and second.value <= 2e-2 and second.detail["modes"] >= 10
    ok &= lie.passed and lie.value <= 1e-8
    ok &= conf.passed and conf.value <= 2e-2
    runtime = sum(r.wall_time for r in (first, second, lie, conf))
    ok &= runtime <= 120.0
    _announce(5, f"first/second variations, Lie flatness, conformal "
                 f"suppression (runtime {runtime:.0f}s <= 120s)", ok)


def test_criterion_06_conformal_sign_invariance(reports):
    rec = _rec(reports, "torus", "conformal_sign_invariance")
    ok = rec.passed and rec.detail["pairs"] >= 20 and rec.value == 0
    _announce(6, "no sign flips over 20 seeded (metric, weight) pairs", ok)


def test_criterion_07_g2_suite(reports):
    rep = reports["g2"]
    ok = rep.passed
    runtime = sum(r.wall_time for r in rep.records)
    ok &= runtime <= 30.0
    ids = {r.check_id for r in rep.records}
    ok &= {"cross_identities", "clifford_relation", "triple_pairing",
           "projector_ranks", "embed_identity", "dirac_two_methods",
           "constrained_harmonicity"} <= ids
    _announce(7, f"exact G2 algebra, projectors, embeddings, field "
                 f"identities (runtime {runtime:.0f}s <= 30s)", ok)


def test_criterion_08_calabi_yau_model(reports):
    ok = True
    for m in (1, 2):
        ok &= _rec(reports, "clifford", f"cy_relation_m{m}").passed
        d = _rec(reports, "torus", f"cy_dirac_m{m}")
        ok &= d.passed and d.value <= 1e-10
    _announce(8, "form-model Clifford relation exact; Dirac matches the "
                 "Dolbeault combination at 1e-10", ok)


def test_criterion_09_warped_formula(reports):
    oracle = _rec(reports, "warped", "scalar_vs_oracle")
    trace = _rec(reports, "warped", "ricci_trace_identity")
    ok = oracle.passed and oracle.detail["samples_per_metric"] >= 50
    ok &= trace.passed and trace.value <= 1e-12
    _announce(9, "scalar formula within max(1e-6, 3 error bars) of the FD "
                 "oracle; Ricci trace identity at 1e-12", ok)


def test_criterion_10_construction(reports):
    rep = reports["warped"]
    ids = ["admissibility", "scan_nonnegative", "horizon", "mass_negative",
           "transition_value", "tail_value", "mass_readoff",
           "asymptotic_order", "lower_bound_sound", "coefficient_bounds"]
    ok = all(_rec(reports, "warped", i).passed for i in ids)
    runtime = sum(r.wall_time for r in rep.records)
    ok &= runtime <= 60.0
    _announce(10, f"negative-mass construction certified (runtime "
                  f"{runtime:.0f}s <= 60s)", ok)


def test_criterion_11_cover_diagram(reports):
    comm = _rec(reports, "torus", "cover_commutation")
    ratio = _rec(reports, "torus", "cover_quadratic_ratio")
    ok = comm.passed and comm.value == 0.0
    ok &= ratio.passed and ratio.value == 0.0
    _announce(11, "pullback commutation and fundamental-domain ratio exact",
              ok)


def test_criterion_12_determinism():
    # two runs of the full battery with one seed must agree in every numeric
    # field; a reduced configuration keeps the double run affordable and is
    # echoed into both reports
    cfg = {
        "clifford": {"isometry_samples": 10},
        "curvalg": {"curvature_samples": 3, "tensor_samples": 3},
        "torus": {"rayleigh_samples": 10, "first_variation_samples": 2,
                  "second_variation_modes": 2, "sign_invariance_pairs": 2},
        "g2": {"identity_samples": 10},
        "warped": {"oracle_samples": 4, "scan_points": 600,
                   "bound_samples": 5},
    }
    first = [r.strip_timings() for r in run_suite("all", seed=SEED, config=cfg)]
    second = [r.strip_timings() for r in run_suite("all", seed=SEED, config=cfg)]
    ok = first == second
    _announce(12, "verify all twice with one seed: identical numeric fields",
              ok)


def test_report_contract_is_pinned(reports):
    # tests/data/records_seed0.json holds, for every record of verify all at
    # seed 0, its suite, id, anchor, tolerance and detail keys, plus the value
    # of every exact (tolerance 0) check
    pinned = json.loads((Path(__file__).parent / "data" / "records_seed0.json").read_text())
    current = []
    for suite in SUITES:
        for r in reports[suite].records:
            entry = {"suite": suite, "id": r.check_id, "anchor": r.anchor,
                     "tolerance": r.tolerance, "detail_keys": sorted(r.detail)}
            if r.tolerance == 0:
                entry["value"] = r.value
            current.append(entry)
    assert current == pinned


def test_overall_runtime_budget(reports):
    total = sum(r.wall_time for rep in reports.values() for r in rep.records)
    print(f"ACCEPTANCE -- total verify-all wall time {total:.0f}s (budget 300s)")
    assert total <= 300.0
