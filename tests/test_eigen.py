import itertools
import re
import time

import jd_reference
import numpy as np
import pytest

from spinstab.torus import eigen as eig
from spinstab.torus.eigen import (
    _ConformalOperator,
    conformal_coefficient,
    conformal_eigenvalue,
    conformal_rescale,
    eigenvalue_variations,
    tt_quadratic_form,
)
from spinstab.torus.fields import (
    FourierMetric,
    FourierScalarField,
    FourierSymTensor,
    Grid,
    fftn,
    ifftn,
    irfftn,
    rfftn,
)
from spinstab.torus.geometry import MetricGeometry
from spinstab.torus.operators import tt_mode_projection

GRID3 = Grid(3, 16)


def _perturbed_operator(n, size, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    h = FourierSymTensor.random_real(n, 1, rng, scale=scale, count=2)
    metric = FourierMetric.from_perturbation(h)
    geo = MetricGeometry(metric, Grid(n, size))
    return _ConformalOperator(geo, conformal_coefficient(n)), metric, rng


def _apply_raw_complex_fft(op, psi):
    """Reference matvec: 2n + 2 complex transforms, real part of each."""
    axes = range(-op.n, 0)
    k = op.grid.wavenumbers
    spec = fftn(psi, axes=axes)
    dpsi = [ifftn(1j * k[ax] * spec, axes=axes).real for ax in range(op.n)]
    acc = np.zeros(op.grid.shape, dtype=complex)
    for i in range(op.n):
        flux = sum(op.wginv[i, j] * dpsi[j] for j in range(op.n))
        acc += 1j * k[i] * fftn(flux, axes=axes)
    return -ifftn(acc, axes=axes).real / op.w + op.pot * psi


@pytest.mark.parametrize("n,size", [(2, 8), (3, 16), (4, 12), (3, 15)])
def test_matvec_matches_complex_fft_reference(n, size):
    op, _, rng = _perturbed_operator(n, size, seed=11)
    for _ in range(2):
        psi = rng.standard_normal(op.grid.shape)
        ref = _apply_raw_complex_fft(op, psi)
        err = np.abs(op.apply_raw(psi) - ref).max() / np.abs(ref).max()
        assert err <= 1e-12


def _band_basis(op):
    """Orthonormal basis of range(P), one column per band mode."""
    shape = op.grid.shape
    dim = int(np.prod(shape))
    proj = np.stack([op.project(e.reshape(shape)).reshape(-1)
                     for e in np.eye(dim)], axis=1)
    vals, vecs = np.linalg.eigh(proj)
    assert np.all((np.abs(vals) <= 1e-12) | (np.abs(vals - 1.0) <= 1e-12))
    return vecs[:, vals > 0.5]


def _dense_spectrum(op):
    """Eigenvalues of the dense P A P on range(P), ascending."""
    basis = _band_basis(op)
    image = np.stack([op.apply_sym(q.reshape(op.grid.shape)).reshape(-1)
                      for q in basis.T], axis=1)
    dense = basis.T @ image
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    return np.linalg.eigvalsh(dense)


def _dense_lowest_and_solver(n, size, seed, scale):
    """Lowest eigenvalue of the dense P A P on range(P), and the solver's."""
    op, metric, _ = _perturbed_operator(n, size, seed, scale)
    return _dense_spectrum(op)[0], conformal_eigenvalue(metric, op.grid).lam


@pytest.mark.parametrize("n,size", [(2, 8), (3, 6)])
def test_solver_finds_smallest_dense_eigenvalue(n, size):
    for seed in range(3):
        lowest, lam = _dense_lowest_and_solver(n, size, seed, scale=0.005)
        assert abs(lam - lowest) <= 1e-12


def test_solver_finds_smallest_band_eigenvalue_coarse_grid_strong_metric():
    # on the full grid the checkerboard cluster made the solver converge to
    # an interior eigenpair here for every seed
    for seed in range(10):
        lowest, lam = _dense_lowest_and_solver(3, 6, seed, scale=0.05)
        assert abs(lam - lowest) <= 1e-12


def _suite_metrics(grid, seed, v_scale):
    """conformal_sign_invariance's input family on grid: a metric of amplitude
    0.05, and its grid values rescaled by exp(v), v of amplitude v_scale."""
    rng = np.random.default_rng(seed)
    m = FourierMetric.from_perturbation(
        FourierSymTensor.random_real(grid.n, 1, rng, scale=0.05, count=2))
    v = FourierScalarField.random_real(grid.n, 1, rng, scale=v_scale, count=2)
    return m, conformal_rescale(m, np.exp(v.sample(grid)), grid)


def _dense_spectrum_and_pair(values, grid):
    op = _ConformalOperator(MetricGeometry(values, grid), conformal_coefficient(3))
    return _dense_spectrum(op), conformal_eigenvalue(values, grid)


# at v amplitude 0.15 the draws [0, 8] to [3, 8], [6, 8] and [7, 8] put psi
# below zero on the grid of 8 (under-resolved, lambda down to -1.6e7); [4, 8]
# and [5, 8] are resolved
@pytest.mark.parametrize("seed,v_scale", [(0, 0.06), (1, 0.06), (4, 0.15), (5, 0.15)])
def test_solver_finds_the_dense_ground_state_of_rescaled_metrics(seed, v_scale):
    grid = Grid(3, 8)
    dense, pair = _dense_spectrum_and_pair(
        _suite_metrics(grid, [seed, 8], v_scale)[1], grid)
    assert len(dense) == 7**3  # the band of an even grid of 8
    assert abs(pair.lam - dense[0]) <= 1e-10 * abs(dense[0])
    assert pair.min_psi > 0.0


def test_solver_finds_the_dense_ground_state_on_a_subtorus_grid():
    grid = Grid(3, 8).invariant((True, False, True))
    values = _subtorus_metric(3, (1, 0, 1), seed=9).sample_matrix(grid)
    dense, pair = _dense_spectrum_and_pair(values, grid)
    assert len(dense) == 7**2
    assert abs(pair.lam - dense[0]) <= 1e-10 * abs(dense[0])
    assert pair.min_psi > 0.0


def test_solver_finds_the_ground_state_where_jacobi_davidson_settles_higher(monkeypatch):
    # under-resolved (psi changes sign on the grid), so only lambda is pinned;
    # the correction-equation solver returned the 26th eigenvalue here
    grid = Grid(3, 8)
    values = _suite_metrics(grid, [10, 8], 0.3)[1]
    dense, pair = _dense_spectrum_and_pair(values, grid)
    assert dense[0] < -800.0
    assert abs(pair.lam - dense[0]) <= 1e-10 * abs(dense[0])
    missed = _jd_reference_pair(monkeypatch, values, grid)
    assert missed.residual <= eig.EIG_TOL
    assert abs(missed.lam - dense[25]) <= 1e-10 * abs(dense[25])


@pytest.mark.parametrize("n,size", [(3, 16), (4, 12)])
def test_band_projection_annihilates_checkerboards_and_keeps_symmetry(n, size):
    op, _, rng = _perturbed_operator(n, size, seed=2)
    x = op.grid.points()
    half = size // 2
    for axes in itertools.product((0, 1), repeat=n):
        if not any(axes):
            continue
        psi = np.cos(sum(half * a * xa for a, xa in zip(axes, x)))
        assert np.abs(op.project(psi)).max() <= 1e-12
    # a mixed mode with one Nyquist index is off the band too
    assert np.abs(op.project(np.cos(half * x[0] + x[1]))).max() <= 1e-12
    u, v = (op.project(rng.standard_normal(op.grid.shape)) for _ in range(2))
    au, av = op.apply_sym(u), op.apply_sym(v)
    assert np.abs(op.project(au) - au).max() <= 1e-12 * np.abs(au).max()
    gap = abs(np.sum(u * av) - np.sum(v * au))
    assert gap <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(av)


def test_half_symbols_zero_only_the_nyquist_bin():
    _, k2 = Grid(3, 15).half_symbols
    assert k2[7, 14, 7] == 7**2 + 1**2 + 7**2  # odd grid: no Nyquist bin
    ik, k2 = Grid(2, 8).half_symbols
    assert k2[3, 2] == 13 and k2[5, 2] == 13 and k2[4, 3] == 9
    assert ik[:, 5, 2].tolist() == [-3j, 2j]


def test_cold_solve_t4_inner_iterations():
    rng = np.random.default_rng(3)
    h = FourierSymTensor.random_real(4, 1, rng, scale=0.03, count=2)
    pair = conformal_eigenvalue(FourierMetric.from_perturbation(h), Grid(4, 12))
    assert pair.residual <= 1e-9
    assert pair.iterations <= 22  # 11 with the scaled preconditioner


def _preconditioner_operator(grid, rescaled):
    """The operator of a perturbed metric on grid, or of its conformal
    rescaling by exp(4 v), v of amplitude 0.3 per mode; on a sub-torus grid
    both are constant along its one-point axes."""
    kvec = tuple(int(m > 1) for m in grid.shape)
    values = _subtorus_metric(3, kvec, seed=sum(grid.shape)).sample_matrix(grid)
    if rescaled:
        v = sum(FourierScalarField.cosine(3, k, 0.3, phase=0.4 * a).sample(grid)
                for a, k in enumerate(np.eye(3, dtype=int)) if k @ kvec)
        values = conformal_rescale(values, np.exp(v), grid)
    return _ConformalOperator(MetricGeometry(values, grid), conformal_coefficient(3))


@pytest.mark.parametrize("rescaled", [False, True])
@pytest.mark.parametrize("grid", [Grid(3, 8), Grid(3, 7), Grid(3, 8).invariant((True, False, True))],
                         ids=["even", "odd", "subtorus"])
def test_preconditioner_is_spd_on_the_band(grid, rescaled):
    op = _preconditioner_operator(grid, rescaled)
    basis = _band_basis(op)
    image = np.stack([op.precondition(q.reshape(grid.shape)).reshape(-1)
                      for q in basis.T], axis=1)
    # it maps band vectors into range(P): no part of the image is off the band
    off_band = image - basis @ (basis.T @ image)
    assert np.abs(off_band).max() <= 1e-12 * np.abs(image).max()
    dense = basis.T @ image
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert np.linalg.eigvalsh(dense)[0] > 0.0


def test_rescaled_cold_solves_inner_iterations():
    # conformal_sign_invariance's input family on its 16^3 grid: the
    # rescaled solves took 40-226 inner iterations with the unscaled symbol
    grid = Grid(3, 16)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h = FourierSymTensor.random_real(3, 1, rng, scale=0.05, count=2)
        v = FourierScalarField.random_real(3, 1, rng, scale=0.06, count=2)
        gw = conformal_rescale(FourierMetric.from_perturbation(h), np.exp(v.sample(grid)), grid)
        pair = conformal_eigenvalue(gw, grid)
        assert pair.residual <= eig.EIG_TOL
        assert pair.iterations <= 60


class _DiagonalOperator:
    """A diagonal matrix with counted applications and a counted identity
    preconditioner; `dropped` lists the precondition calls (from 1) that
    return zeros."""

    def __init__(self, spectrum, dropped=()):
        self.spectrum = spectrum
        self.dropped = dropped
        self.counts = {"a": 0, "pre": 0}

    def apply_sym(self, v):
        self.counts["a"] += 1
        return self.spectrum * v

    def precondition(self, r):
        self.counts["pre"] += 1
        return np.zeros_like(r) if self.counts["pre"] in self.dropped else r.copy()


@pytest.mark.parametrize("spectrum,budget,expect", [
    (np.arange(1.0, 11.0), 3, 3),  # ten distinct eigenvalues: budget exhausted
    (np.repeat([1.0, 4.0], 5), 10, 1),  # two distinct eigenvalues: exact in 1
])
def test_lobpcg_counts_its_steps_and_operator_calls(spectrum, budget, expect):
    op = _DiagonalOperator(spectrum)
    residual, x, lam, steps = eig._lobpcg(op, np.ones(len(spectrum)), 1e-12, budget)
    assert steps == expect
    # one matvec at the start and one per step; one preconditioning per step
    assert op.counts == {"a": steps + 1, "pre": steps}
    assert abs(residual - np.linalg.norm(spectrum * x - lam * x)) <= 1e-14
    assert (residual <= 1e-12) == (expect < budget)
    if expect < budget:
        assert abs(lam - spectrum.min()) <= 1e-14


def test_lobpcg_drops_a_direction_with_no_component_left():
    # the second preconditioned residual is zero: that step runs on {x, p}
    # alone, and the iteration goes on from there to the ground state
    spectrum = np.arange(1.0, 11.0)
    op = _DiagonalOperator(spectrum, dropped=(2,))
    residual, x, lam, steps = eig._lobpcg(op, np.ones(10), 1e-12, 100)
    assert residual <= 1e-12
    assert abs(lam - 1.0) <= 1e-14 and abs(abs(x[0]) - 1.0) <= 1e-12
    assert op.counts == {"a": steps, "pre": steps}  # no matvec for the dropped w
    # with every preconditioned residual zero there is nothing to move along:
    # the steps run out at the start vector's Rayleigh quotient
    op = _DiagonalOperator(spectrum, dropped=range(1, 6))
    residual, x, lam, steps = eig._lobpcg(op, np.ones(10), 1e-12, 5)
    assert steps == 5 and op.counts == {"a": 1, "pre": 5}
    assert lam == spectrum.mean() and np.all(x == x[0])


def test_orthonormalize_drops_a_vector_in_the_span():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((50, 3)))
    amat = np.diag(np.arange(50.0))
    basis = [(q[:, 0], amat @ q[:, 0]), (q[:, 1], amat @ q[:, 1])]
    scratch = np.empty(50)
    assert not eig._orthonormalize(2.0 * q[:, 0] - 3.0 * q[:, 1], None, basis, scratch)
    assert not eig._orthonormalize(np.zeros(50), np.zeros(50), basis, scratch)
    v = 2.0 * q[:, 0] + 0.5 * q[:, 2]
    av = amat @ v
    assert eig._orthonormalize(v, av, basis, scratch)
    assert np.abs(v - q[:, 2]).max() <= 1e-14
    assert np.abs(av - amat @ v).max() <= 1e-12


def test_matvecs_count_every_operator_application(monkeypatch):
    counts = {"a": 0}
    original = _ConformalOperator.apply_raw

    def counted(self, psi):
        counts["a"] += 1
        return original(self, psi)

    monkeypatch.setattr(_ConformalOperator, "apply_raw", counted)
    rng = np.random.default_rng(5)
    h = FourierSymTensor.random_real(3, 1, rng, scale=0.02, count=2)
    pair = conformal_eigenvalue(FourierMetric.from_perturbation(h), GRID3)
    assert pair.matvecs == counts["a"]
    # one matvec per LOBPCG step and one at the start
    assert pair.matvecs == pair.iterations + 1


@pytest.mark.parametrize("rescaled", [False, True])
def test_reported_residual_is_a_fresh_residual(rescaled):
    # the recurrence carries A x along with x; the residual it reports is
    # the one a fresh matvec of the returned eigenfunction gives
    grid = Grid(3, 16)
    metric = _suite_metrics(grid, [6, 16], 0.06)[rescaled]
    pair = conformal_eigenvalue(metric, grid)
    op = _ConformalOperator(MetricGeometry(metric, grid), conformal_coefficient(3))
    phi = op.sqrt_w * pair.psi
    phi = phi / np.linalg.norm(phi)
    fresh = float(np.linalg.norm(op.apply_sym(phi) - pair.lam * phi))
    assert pair.residual <= eig.EIG_TOL
    assert abs(pair.residual - fresh) <= 1e-14


def test_coefficient_values():
    assert conformal_coefficient(3) == 1.0 / 8.0
    assert conformal_coefficient(4) == 1.0 / 6.0


def test_flat_ground_state():
    pair = conformal_eigenvalue(FourierMetric.flat(3), GRID3)
    assert pair.lam == 0.0
    assert pair.residual <= 1e-12
    assert abs(pair.normalization - 1.0) < 1e-14
    assert pair.min_psi > 0.0
    assert np.abs(pair.psi - pair.psi.flat[0]).max() < 1e-13


def test_eigen_contract_on_perturbed_metric():
    rng = np.random.default_rng(5)
    h = FourierSymTensor.random_real(3, 1, rng, scale=0.02, count=2)
    pair = conformal_eigenvalue(FourierMetric.from_perturbation(h), GRID3)
    assert pair.residual <= 1e-8
    assert pair.min_psi > 0.0
    assert abs(pair.normalization - 1.0) < 1e-12
    assert pair.lam < 0.0  # TT content makes flat a strict local max


def test_scaling_law_power_of_two():
    rng = np.random.default_rng(5)
    h = FourierSymTensor.random_real(3, 1, rng, scale=0.03, count=2)
    g = FourierMetric.from_perturbation(h)
    p1 = conformal_eigenvalue(g, GRID3)
    p2 = conformal_eigenvalue(2.0 * g.sample_matrix(GRID3), GRID3)
    assert abs(p2.lam - p1.lam / 2.0) < 1e-11


def test_conformal_rescale_guard():
    g = FourierMetric.flat(3)
    with pytest.raises(ValueError):
        conformal_rescale(g, -np.ones(GRID3.shape), GRID3)


def test_sign_invariance_sampled():
    rng = np.random.default_rng(17)
    flips = 0
    checked = 0
    while checked < 3:
        h = FourierSymTensor.random_real(3, 1, rng, scale=0.05, count=2)
        g = FourierMetric.from_perturbation(h)
        base = conformal_eigenvalue(g, GRID3)
        if abs(base.lam) < 1e-4:
            continue
        checked += 1
        v = FourierScalarField.random_real(3, 1, rng, scale=0.05, count=2)
        w = np.exp(v.sample(GRID3))
        new = conformal_eigenvalue(conformal_rescale(g, w, GRID3), GRID3)
        flips += int(np.sign(new.lam) != np.sign(base.lam))
    assert flips == 0


def test_second_variation_closed_form_n3():
    # oracle: lambda''(0) = -(n-2)/(8(n-1)) |k|^2 |A|^2 / 2 for a TT cosine
    amat = np.diag([0.0, 1.0, -1.0])
    h = FourierSymTensor.from_mode(3, (1, 0, 0), amat)
    est = eigenvalue_variations(FourierMetric.flat(3), h, GRID3)
    expect = -(1.0 / 16.0) * 1.0 * (2.0 / 2.0)
    assert abs(est.second - expect) / abs(expect) < 2e-2
    assert abs(est.second - tt_quadratic_form(h)) / abs(expect) < 2e-2
    assert abs(est.first) < 1e-7


def test_second_variation_closed_form_n4():
    amat = np.diag([1.0, -1.0, 0.0, 0.0])
    h = FourierSymTensor.from_mode(4, (0, 0, 1, 0), amat)
    est = eigenvalue_variations(FourierMetric.flat(4), h, Grid(4, 12))
    expect = -(1.0 / 12.0) * 1.0 * (2.0 / 2.0)
    assert abs(est.second - expect) / abs(expect) < 2e-2


def test_extrapolated_warm_starts_match_cold_solves(monkeypatch):
    rng = np.random.default_rng(4)
    h = FourierSymTensor.random_real(3, 1, rng, scale=0.5, count=1)
    base = FourierMetric.from_perturbation(
        FourierSymTensor.random_real(3, 1, rng, scale=0.02, count=2))
    starts, psis = [], []

    def recording(metric, grid, tol, initial):
        starts.append(initial)
        pair = conformal_eigenvalue(metric, grid, tol=tol, initial=initial)
        psis.append(pair.psi)
        return pair

    monkeypatch.setattr(eig, "conformal_eigenvalue", recording)
    est = eigenvalue_variations(base, h, GRID3)
    monkeypatch.undo()
    assert len(est.lambdas) == 9
    # t = 0 cold, t = -s/4 from psi(0), t = s/4 from 2 psi(0) - psi(-s/4)
    assert starts[0] is None and np.array_equal(starts[1], psis[0])
    assert np.abs(starts[2] - (2 * psis[0] - psis[1])).max() <= 1e-12
    for t, lam in est.lambdas.items():
        gt = base if t == 0.0 else base + t * h
        cold = conformal_eigenvalue(gt, GRID3, tol=eig.VARIATION_TOL)
        assert abs(lam - cold.lam) <= 1e-12


def test_conformal_direction_second_variation_vanishes():
    u = FourierScalarField.cosine(3, (1, 0, 0), 1.0)
    h = FourierSymTensor.conformal(u)
    est = eigenvalue_variations(FourierMetric.flat(3), h, GRID3)
    assert abs(est.second) < 1e-4  # compare with TT scale ~ 6e-2


def test_lie_direction_leaves_lambda_flat():
    n, k, v = 3, (1, 1, 0), np.array([0.25, 0.0, 0.15])
    hlie = FourierSymTensor.from_mode(n, k, -(np.outer(k, v) + np.outer(v, k)), phase=np.pi / 2)
    for t in (1e-2, 5e-3):
        gt = FourierMetric.from_perturbation(hlie, t)
        assert abs(conformal_eigenvalue(gt, GRID3).lam) <= 1e-8


def test_tt_quadratic_form_value():
    # h = A cos(x1), A = diag(0,1,-1): mean of <Lich h, h> = |k|^2 |A|^2 / 2
    amat = np.diag([0.0, 1.0, -1.0])
    h = FourierSymTensor.from_mode(3, (1, 0, 0), amat)
    assert abs(tt_quadratic_form(h) + (1.0 / 16.0)) < 1e-14


def test_solve_that_runs_out_of_iterations_raises(monkeypatch):
    # cold solves of the conformal_sign_invariance family (amplitude 0.05,
    # grid 16); the budget is read at call time
    monkeypatch.setattr(eig, "MAX_ITER", 1)
    for seed in range(3):
        rng = np.random.default_rng([seed, 2024])
        h = FourierSymTensor.random_real(3, 1, rng, scale=0.05, count=2)
        with pytest.raises(RuntimeError) as info:
            conformal_eigenvalue(FourierMetric.from_perturbation(h), GRID3)
        found = re.fullmatch(r"eigen-solver failed: residual (\S+) after (\d+) "
                             r"iterations", str(info.value))
        assert found is not None
        assert float(found[1]) > eig.HARD_RESIDUAL
        assert int(found[2]) == 1


def test_solve_that_stalls_stops_after_the_stall_window():
    # under-resolved draw (dense lambda_1 = -1.56e7): the rounding floor of
    # the operator lies above EIG_TOL, so the residual stops halving; the
    # whole 10000-step budget took about 2 s
    grid = Grid(3, 8)
    values = _suite_metrics(grid, [3, 8], 0.15)[1]
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as info:
        conformal_eigenvalue(values, grid)
    assert time.perf_counter() - start < 0.25
    found = re.fullmatch(r"eigen-solver failed: residual (\S+) after (\d+) "
                         r"iterations", str(info.value))
    assert found is not None
    assert float(found[1]) > eig.HARD_RESIDUAL
    assert eig.STALL_STEPS < int(found[2]) < 2 * eig.STALL_STEPS


def _jd_reference_pair(monkeypatch, metric, grid):
    with monkeypatch.context() as patch:
        patch.setattr(eig, "_lobpcg", jd_reference.refine)
        return conformal_eigenvalue(metric, grid)


def _assert_matches_jd_reference(monkeypatch, metrics, grid):
    for metric in metrics:
        pair, ref = conformal_eigenvalue(metric, grid), _jd_reference_pair(monkeypatch, metric, grid)
        assert abs(pair.lam - ref.lam) <= 1e-12 * abs(ref.lam)
        assert pair.residual <= eig.EIG_TOL and pair.min_psi > 0.0


@pytest.mark.parametrize("n,size", [(3, 16), (3, 24), (4, 12)])
def test_lobpcg_matches_the_jacobi_davidson_reference(monkeypatch, n, size):
    grid = Grid(n, size)
    metrics = [g for seed in range(2) for g in _suite_metrics(grid, [seed, n, size], 0.06)]
    _assert_matches_jd_reference(monkeypatch, metrics, grid)


def test_lobpcg_matches_the_jacobi_davidson_reference_on_a_subtorus(monkeypatch):
    grid = Grid(3, 24)
    metric = _subtorus_metric(3, (1, 1, 0), seed=5)
    assert grid.invariant(metric.keys.any(axis=0)).shape == (24, 24, 1)
    _assert_matches_jd_reference(monkeypatch, [metric], grid)


def _subtorus_metric(n, kvec, seed):
    """Two cosine modes with k_a = 0 wherever kvec is 0, amplitude ~0.05."""
    rng = np.random.default_rng(seed)
    k2 = np.zeros(n, dtype=int)
    k2[np.flatnonzero(kvec)[0]] = 1
    h = FourierSymTensor.zero(n)
    for k, phase in ((kvec, 0.0), (tuple(k2), 0.7)):
        a = rng.standard_normal((n, n))
        h = h + FourierSymTensor.from_mode(n, k, 0.025 * (a + a.T), phase=phase)
    return FourierMetric.from_perturbation(h)


def _assert_same_pair(reduced, full):
    scale = np.abs(full.psi).max()
    assert reduced.psi.shape == full.psi.shape
    assert abs(reduced.lam - full.lam) <= 1e-14
    assert np.abs(reduced.psi - full.psi).max() <= 1e-12 * scale
    assert abs(reduced.min_psi - full.min_psi) <= 1e-12 * scale
    assert reduced.residual <= eig.EIG_TOL and full.residual <= eig.EIG_TOL
    assert np.isclose(reduced.residual, full.residual, rtol=1e-2, atol=1e-14)


# one and two invariant axes at each grid
@pytest.mark.parametrize("n,size,kvec", [
    (3, 24, (0, 1, 1)), (3, 24, (1, 0, 0)),
    (3, 15, (1, 0, 1)), (3, 15, (0, 1, 0)),
    (4, 12, (1, 1, 0, 1)), (4, 12, (0, 1, 1, 0)),
])
def test_subtorus_solve_matches_full_grid_solve(n, size, kvec):
    # a FourierMetric is solved on its invariant sub-torus, its grid values
    # on the full grid: the same eigenpair up to roundoff
    grid = Grid(n, size)
    metric = _subtorus_metric(n, kvec, seed=size + n)
    reduced = conformal_eigenvalue(metric, grid)
    full = conformal_eigenvalue(metric.sample_matrix(grid), grid)
    _assert_same_pair(reduced, full)
    cut = tuple(slice(None) if k else slice(0, 1) for k in kvec)
    assert np.array_equal(reduced.psi, np.broadcast_to(reduced.psi[cut], grid.shape))


def test_subtorus_warm_start_from_a_full_grid_guess():
    grid = Grid(3, 24)
    metric = _subtorus_metric(3, (1, 1, 0), seed=8)
    guess = conformal_eigenvalue(0.9 * metric.sample_matrix(grid)
                                 + 0.1 * np.eye(3)[:, :, None, None, None], grid).psi
    reduced = conformal_eigenvalue(metric, grid, initial=guess)
    _assert_same_pair(reduced, conformal_eigenvalue(metric.sample_matrix(grid), grid,
                                                    initial=guess))
    # a guess that varies along the invariant axis is projected onto the
    # invariant fields; the full-grid solve leaves that part to the iteration,
    # so the two agree to the solver tolerance, not to roundoff
    wavy = guess * (1.0 + 0.01 * np.cos(grid.points()[2]))
    reduced = conformal_eigenvalue(metric, grid, initial=wavy)
    full = conformal_eigenvalue(metric.sample_matrix(grid), grid, initial=wavy)
    assert abs(reduced.lam - full.lam) <= 1e-14
    assert np.abs(reduced.psi - full.psi).max() <= eig.EIG_TOL * np.abs(full.psi).max()


@pytest.mark.parametrize("n,size,kvec", [(3, 24, (1, 0, 0)), (4, 12, (0, 1, 1, 0))])
def test_subtorus_variations_match_tt_form_within_suite_gate(n, size, kvec):
    amat = tt_mode_projection(np.diag(np.arange(1.0, n + 1)), kvec)
    h = FourierSymTensor.from_mode(n, kvec, amat)
    est = eigenvalue_variations(FourierMetric.flat(n), h, Grid(n, size))
    pred = tt_quadratic_form(h)
    assert abs(est.second - pred) / abs(pred) <= 2e-5  # second_variation_tt's gate
    assert abs(est.first) <= 1e-6


def _apply_sym_every_axis(op, geo, phi):
    """apply_sym with the derivative and the flux formed along every axis,
    the length-1 ones (symbol 0) included."""
    axes = range(-op.n, 0)
    shape = op.grid.shape
    ik = op.grid.half_symbols[0]
    psi = phi / op.sqrt_w
    dpsi = irfftn(ik * rfftn(psi, axes=axes), shape, axes=axes)
    flux = np.einsum("ij...,j...->i...", geo.ginv * op.w, dpsi)
    div = irfftn((ik * rfftn(flux, axes=axes)).sum(axis=0), shape, axes=axes)
    return op.project(op.sqrt_w * (-div / op.w + op.pot * psi))


@pytest.mark.parametrize("shape", [(24, 24, 1), (24, 1, 1), (1, 1, 1), (16, 16, 16)])
def test_matvec_on_active_axes_equals_every_axis_formula(shape):
    # the matvec skips the length-1 axes of a sub-torus grid; their
    # derivative and flux are exact zeros, so the values are the same bits
    rng = np.random.default_rng(sum(shape))
    active = [m > 1 for m in shape]
    grid = Grid(3, max(shape)).invariant(active)
    a = rng.standard_normal((3, 3))
    h = FourierSymTensor.from_constant(0.02 * (a + a.T))
    for k in [np.eye(3, dtype=int)[ax] for ax in np.flatnonzero(active)] + [active]:
        if any(k):
            a = rng.standard_normal((3, 3))
            h = h + FourierSymTensor.from_mode(3, np.array(k, dtype=int), 0.025 * (a + a.T),
                                               phase=rng.uniform(0, 2 * np.pi))
    geo = MetricGeometry(FourierMetric.from_perturbation(h), grid)
    op = _ConformalOperator(geo, conformal_coefficient(3))
    assert grid.shape == shape
    assert op.wginv.shape[:2] == (sum(active),) * 2
    for _ in range(2):
        phi = op.project(rng.standard_normal(shape))
        assert np.array_equal(op.apply_sym(phi), _apply_sym_every_axis(op, geo, phi))
