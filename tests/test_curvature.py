import numpy as np
import pytest

from spinstab import curvature
from spinstab.clifford import build_gamma_rep, unit_spinor
from spinstab.curvature import (
    AlgCurvature,
    CurvatureSymmetryError,
    SpinCompatibleCurvature,
    bochner_curvature_identity,
    curvature_from_chirality_block,
    curvature_symmetry_violations,
    joint_kernel_dimension,
    k3_sample,
    ring_action,
    spin_compatible_from_block,
    validate_curvature,
)
from spinstab.suites import run_suite


def sphere_pattern():
    r = np.zeros((2,) * 4)
    r[0, 1, 0, 1] = r[1, 0, 1, 0] = 1.0
    r[0, 1, 1, 0] = r[1, 0, 0, 1] = -1.0
    return r


def test_validate_zero():
    r = validate_curvature(np.zeros((4,) * 4))
    assert r.is_ricci_flat
    assert r.scalar == 0.0


def test_validate_sphere_ricci():
    r = validate_curvature(sphere_pattern())
    assert np.array_equal(r.ricci, np.eye(2))


def test_validate_rejects_with_named_identity():
    bad = sphere_pattern()
    bad[0, 1, 1, 0] = 1.0
    with pytest.raises(CurvatureSymmetryError) as err:
        validate_curvature(bad)
    assert "antisymmetry-second-pair" in str(err.value)


def test_validate_shape_guard():
    with pytest.raises(ValueError):
        validate_curvature(np.zeros((3, 3, 3)))


def test_ring_zero_curvature():
    r = validate_curvature(np.zeros((4,) * 4))
    assert np.abs(ring_action(r, np.eye(4))).max() == 0.0


def test_ring_identity_gives_ricci():
    sample = k3_sample(5)
    out = ring_action(sample.base, np.eye(4))
    assert np.array_equal(out, sample.base.ricci)


def test_ring_bruteforce_oracle():
    # independent four-loop summation of R_ikjl h_kl
    rng = np.random.default_rng(2)
    sample = k3_sample(11)
    a = rng.standard_normal((4, 4))
    h = 0.5 * (a + a.T)
    brute = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            acc = 0.0
            for k in range(4):
                for l in range(4):
                    acc += sample.base.tensor[i, k, j, l] * h[k, l]
            brute[i, j] = acc
    out = ring_action(sample.base, h)
    assert np.abs(out - 0.5 * (brute + brute.T)).max() <= 1e-13
    # pair symmetry makes the contraction symmetric already
    assert np.abs(brute - brute.T).max() <= 1e-13


def test_ring_dimension_guard():
    sample = k3_sample(0)
    with pytest.raises(ValueError):
        ring_action(sample.base, np.zeros((3, 3)))


def test_block_sample_is_exactly_ricci_flat():
    sample = spin_compatible_from_block(np.diag([2.0, -1.0, -1.0]))
    assert np.abs(sample.base.ricci).max() == 0.0
    viol = [resid for _, resid in
            curvature_symmetry_violations(sample.base.tensor)]
    assert max(viol) == 0.0
    assert joint_kernel_dimension(sample) == 2


def test_block_guards():
    with pytest.raises(ValueError):
        curvature_from_chirality_block(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        curvature_from_chirality_block(np.zeros((2, 2)))


def test_zero_block_annihilates_everything():
    r = curvature_from_chirality_block(np.zeros((3, 3)))
    rep = build_gamma_rep(4)
    assert np.abs(r.tensor).max() == 0.0
    # every spinor is in the kernel of the zero action
    c = SpinCompatibleCurvature(r, rep, unit_spinor(rep))
    assert c.rho.shape == (4, 4, 4, 4) and np.abs(c.rho).max() == 0.0


def test_k3_sample_kernel_spinor_exact():
    for seed in (1, 2, 3):
        sample = k3_sample(seed)
        assert sample.compatibility_residual() <= 1e-11
        assert joint_kernel_dimension(sample) == 2


def test_rho_stack_matches_the_double_sum():
    # rho_kl = 1/4 sum_ij R_klij gamma_i gamma_j, summed term by term
    for seed in (0, 1, 2, 5, 11):
        sample = k3_sample(seed)
        gam, r = sample.rep.gamma, sample.base.tensor
        loop = np.zeros((4, 4, 4, 4), dtype=complex)
        for k in range(4):
            for l in range(4):
                for i in range(4):
                    for j in range(4):
                        if r[k, l, i, j] != 0.0:
                            loop[k, l] += 0.25 * r[k, l, i, j] * (gam[i] @ gam[j])
        assert sample.rho.tobytes() == loop.tobytes()
        assert sample.rho is sample.rho  # built once per sample


def test_generic_spinor_not_annihilated():
    sample = k3_sample(1)
    sigma = np.ones(4, dtype=complex) / 2.0
    worst = float(np.linalg.norm(sample.rho @ sigma, axis=-1).max())
    assert worst > 1e-3


def test_bochner_zero_curvature_trivial():
    rep = build_gamma_rep(4)
    c = SpinCompatibleCurvature(
        AlgCurvature(4, np.zeros((4,) * 4)), rep, unit_spinor(rep))
    out = bochner_curvature_identity(c, np.eye(4)[None])
    assert out["ring_contraction"].shape == (1, 4)
    assert out["ring_contraction"].max() == 0.0
    assert out["ricci_contraction"].max() == 0.0


def _symmetric(rng, count):
    a = rng.standard_normal((count, 4, 4))
    return 0.5 * (a + np.swapaxes(a, 1, 2))


def test_bochner_identity_on_seeded_data():
    rng = np.random.default_rng(9)
    worst = 0.0
    for seed in range(5):
        out = bochner_curvature_identity(k3_sample(seed), _symmetric(rng, 5))
        worst = max(worst, out["ring_contraction"].max(), out["ricci_contraction"].max())
    assert worst <= 1e-10


def test_batched_bochner_matches_per_tensor_calls():
    rng = np.random.default_rng(3)
    for seed in (0, 7):
        sample = k3_sample(seed)
        hs = _symmetric(rng, 20)
        out = bochner_curvature_identity(sample, hs)
        assert out["ring_contraction"].shape == (20, 4)
        for t, h in enumerate(hs):
            one = bochner_curvature_identity(sample, h[None])
            assert one["ring_contraction"][0].tobytes() == out["ring_contraction"][t].tobytes()
            assert one["ricci_contraction"].tobytes() == out["ricci_contraction"].tobytes()


def test_bochner_identity_on_identity_tensor():
    sample = k3_sample(4)
    out = bochner_curvature_identity(sample, np.eye(4)[None])
    assert out["ring_contraction"].max() <= 1e-10
    assert out["ricci_contraction"].max() <= 1e-10


def test_curvalg_counts_what_it_checked(monkeypatch):
    # a joint kernel that is not 2-dimensional at the second sample ends the
    # loop there: two samples checked, one sample's tensors paired
    calls = []

    def kernel_dim(c):
        calls.append(c)
        return 3 if len(calls) == 2 else 2

    monkeypatch.setattr(curvature, "joint_kernel_dimension", kernel_dim)
    report = run_suite("curvalg", seed=0)[0]
    records = {r.check_id: r for r in report.records}
    assert records["kernel_spinor"].detail["samples"] == 2
    assert records["bochner_contractions"].detail["pairs"] == 20
    assert records["kernel_dimension"].value == 1 and not report.passed


def test_curvature_values_compare_by_identity():
    block = np.diag([2.0, -1.0, -1.0])
    first, second = (spin_compatible_from_block(block) for _ in range(2))
    assert first == first and first != second
    assert first.base != second.base
    assert len({first, second, first.base, second.base}) == 4


def test_symmetry_violations_batch_grid_axes_like_the_suite_check():
    from spinstab.torus.fields import FourierMetric, FourierSymTensor, Grid
    from spinstab.torus.geometry import MetricGeometry

    rng = np.random.default_rng(5)
    h = FourierSymTensor.random_real(3, 2, rng, scale=0.004, count=2)
    riem = MetricGeometry(FourierMetric.from_perturbation(h), Grid(3, 8)).riemann()
    assert riem.shape == (3, 3, 3, 3, 8, 8, 8)
    rest = tuple(range(4, riem.ndim))
    # the four expressions the torus suite's riemann_symmetries check wrote inline
    inline = [
        float(np.abs(riem + np.swapaxes(riem, 0, 1)).max()),
        float(np.abs(riem + np.swapaxes(riem, 2, 3)).max()),
        float(np.abs(riem - np.transpose(riem, (2, 3, 0, 1) + rest)).max()),
        float(np.abs(riem + np.transpose(riem, (1, 2, 0, 3) + rest)
                     + np.transpose(riem, (2, 0, 1, 3) + rest)).max()),
    ]
    assert [res for _, res in curvature_symmetry_violations(riem)] == inline
    assert max(inline) > 0.0  # rounding-level, but not vacuously zero


def test_k3_sample_redraws_a_zero_block():
    # seed 1362108595 first draws the zero block, whose kernel is all 4 spinors
    rng = np.random.default_rng(1362108595)
    assert not (rng.integers(-3, 4, size=2).any() or rng.integers(-3, 4, size=3).any())
    assert joint_kernel_dimension(k3_sample(1362108595)) == 2
    # a seed whose first block is not zero keeps it
    for seed in range(5):
        rng = np.random.default_rng(seed)
        (d0, d1), off = rng.integers(-3, 4, size=2), rng.integers(-3, 4, size=3)
        block = np.array([[d0, off[0], off[1]], [off[0], d1, off[2]],
                          [off[1], off[2], -d0 - d1]], dtype=float)
        assert np.array_equal(k3_sample(seed).base.tensor,
                              spin_compatible_from_block(block).base.tensor)
