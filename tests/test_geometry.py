import numpy as np
import pytest

from spinstab.torus import geometry as geometry_module
from spinstab.torus.fields import (
    FourierMetric,
    FourierScalarField,
    FourierSymTensor,
    Grid,
    irfftn,
    rfftn,
)
from spinstab.torus.geometry import (
    MetricGeometry,
    _values_and_gradient,
    fd_variation,
    linearized_formulas,
    metric_curvature,
)


def test_flat_metric_curvature_vanishes():
    grid = Grid(2, 16)
    out = metric_curvature(FourierMetric.flat(2), grid)
    assert np.abs(out["riemann"]).max() == 0.0
    assert np.abs(out["ricci"]).max() == 0.0
    assert np.abs(out["scalar"]).max() == 0.0


def test_conformal_2d_scalar_closed_form():
    # S(e^{2u} delta) = -2 e^{-2u} Lap u on a surface
    grid = Grid(2, 32)
    u = FourierScalarField.cosine(2, (1, 0), 0.1)
    g = FourierMetric.conformal_flat(u, grid)
    out = metric_curvature(g, grid)
    uv = u.sample(grid)
    lap = grid.deriv(grid.deriv(uv, 0), 0) + grid.deriv(grid.deriv(uv, 1), 1)
    assert np.abs(out["scalar"] + 2.0 * np.exp(-2.0 * uv) * lap).max() < 1e-9


def test_riemann_symmetries_pointwise():
    rng = np.random.default_rng(7)
    h = FourierSymTensor.random_real(3, 2, rng, scale=0.004, count=2)
    geo = MetricGeometry(FourierMetric.from_perturbation(h), Grid(3, 32))
    r = geo.riemann()
    rest = tuple(range(4, r.ndim))
    assert np.abs(r + np.swapaxes(r, 0, 1)).max() < 1e-9
    assert np.abs(r + np.swapaxes(r, 2, 3)).max() < 1e-9
    assert np.abs(r - np.transpose(r, (2, 3, 0, 1) + rest)).max() < 1e-9
    bianchi = r + np.transpose(r, (1, 2, 0, 3) + rest) + np.transpose(r, (2, 0, 1, 3) + rest)
    assert np.abs(bianchi).max() < 1e-9
    # contraction convention agrees with the direct ricci computation
    contr = np.einsum("ik...,ijkl...->jl...", geo.ginv, r)
    assert np.abs(contr - geo.ricci()).max() < 1e-9


def test_non_positive_metric_rejected():
    h = FourierSymTensor.from_mode(2, (1, 0), np.diag([3.0, 0.0]))
    with pytest.raises(ValueError):
        MetricGeometry(FourierMetric.from_perturbation(h), Grid(2, 16))


def test_indefinite_metric_with_positive_diagonal_rejected():
    grid = Grid(2, 16)
    x, _ = grid.points()
    one, c = np.ones(grid.shape), 1.5 * np.cos(x)
    with pytest.raises(ValueError, match="min eig -5.000e-01"):
        MetricGeometry(np.array([[one, c], [c, one]]), grid)


def test_metric_with_zero_eigenvalue_rejected():
    # [[1, cos x], [cos x, 1]] is singular where cos x = 1, i.e. at x = 0
    grid = Grid(2, 16)
    x, _ = grid.points()
    one, c = np.ones(grid.shape), np.cos(x)
    with pytest.raises(ValueError, match="not positive"):
        MetricGeometry(np.array([[one, c], [c, one]]), grid)


def test_ricci_perturbation_slope():
    rng = np.random.default_rng(1)
    h = FourierSymTensor.random_real(3, 1, rng, scale=1.0, count=1)
    grid = Grid(3, 16)
    sizes = []
    for eps in (1e-2, 1e-3):
        geo = MetricGeometry(FourierMetric.from_perturbation(h, eps), grid)
        sizes.append(np.abs(geo.ricci()).max())
    slope = np.log(sizes[0] / sizes[1]) / np.log(10.0)
    assert abs(slope - 1.0) < 0.05


def test_flat_symbols():
    grid = Grid(3, 16)
    fv = FourierScalarField.cosine(3, (1, 2, 0), 1.0).sample(grid)
    geo = MetricGeometry(FourierMetric.flat(3), grid)
    assert np.abs(geo.laplacian(fv) + 5.0 * fv).max() < 1e-11
    hv = FourierSymTensor.from_constant(np.diag([1.0, 2.0, 3.0])).sample_matrix(grid)
    assert np.abs(geo.divergence_sym2(hv)).max() < 1e-12
    assert np.abs(np.einsum("ij...,ij...->...", geo.ginv, hv) - 6.0).max() < 1e-12


def test_divergence_sign_by_hand():
    # flat g, h = A cos(k.x): (delta h)_j = (A k)_j sin(k.x)
    grid = Grid(3, 16)
    amat = np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 1.0], [0.0, 1.0, 0.3]])
    k = (1, 0, 1)
    h = FourierSymTensor.from_mode(3, k, amat)
    div = MetricGeometry(FourierMetric.flat(3), grid).divergence_sym2(h.sample_matrix(grid))
    x = grid.points()
    sin_kx = np.sin(x[0] + x[2])
    target = np.stack([(amat @ np.array(k, dtype=float))[j] * sin_kx
                       for j in range(3)])
    assert np.abs(div - target).max() < 1e-12


def test_adjointness_of_delta_star():
    rng = np.random.default_rng(2)
    grid = Grid(3, 24)
    h = FourierSymTensor.random_real(3, 1, rng, scale=0.02, count=2)
    geo = MetricGeometry(FourierMetric.from_perturbation(h), grid)
    hv = FourierSymTensor.random_real(3, 2, rng, scale=0.4, count=2).sample_matrix(grid)
    wv = np.stack([
        FourierScalarField.random_real(3, 2, rng, scale=0.4, count=2).sample(grid)
        for _ in range(3)])
    lhs = grid.integrate(np.einsum(
        "ia...,jb...,ij...,ab...->...", geo.ginv, geo.ginv,
        geo.sym_derivative_oneform(wv), hv) * geo.sqrt_det)
    rhs = grid.integrate(np.einsum(
        "ij...,i...,j...->...", geo.ginv, geo.divergence_sym2(hv), wv)
        * geo.sqrt_det)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_linearized_formulas_against_finite_differences():
    rng = np.random.default_rng(11)
    grid = Grid(3, 24)
    base = FourierMetric.from_perturbation(
        FourierSymTensor.random_real(3, 1, rng, scale=0.02, count=2))
    hdir = FourierSymTensor.random_real(3, 1, rng, scale=0.3, count=2)
    fdir = FourierScalarField.random_real(3, 2, rng, scale=0.5, count=3)
    lin = linearized_formulas(base, hdir, fdir, grid)
    for name, quantity in (
        ("dric", lambda g: g.ricci()),
        ("dscalar", lambda g: g.scalar()),
        ("dlaplacian", lambda g: g.laplacian(fdir.sample(grid))),
    ):
        fd = fd_variation(base, hdir, quantity, 1e-4, grid)
        scale = max(1e-12, float(np.abs(fd["richardson"]).max()))
        assert np.abs(lin[name] - fd["richardson"]).max() / scale < 1e-6
        # convergence order of the plain central difference
        e1 = float(np.abs(lin[name] - fd["step"]).max())
        e2 = float(np.abs(lin[name] - fd["half_step"]).max())
        assert np.log2(e1 / e2) > 1.9


def test_linearized_constant_direction():
    # constant h: all derivative terms vanish; dRic = sym(Ric.h) at flat = 0,
    # dS = 0, dLap f = -<h, Hess f>
    grid = Grid(3, 16)
    h = FourierSymTensor.from_constant(np.diag([1.0, -0.5, 0.25]))
    f = FourierScalarField.cosine(3, (1, 1, 0), 1.0)
    lin = linearized_formulas(FourierMetric.flat(3), h, f, grid)
    assert np.abs(lin["dric"]).max() < 1e-12
    assert np.abs(lin["dscalar"]).max() < 1e-12
    geo = MetricGeometry(FourierMetric.flat(3), grid)
    target = -np.einsum("ij...,ij...->...", h.sample_matrix(grid),
                        geo.hessian(f.sample(grid)))
    assert np.abs(lin["dlaplacian"] - target).max() < 1e-12


def test_linearized_conformal_direction_closed_form():
    # flat background, h = u g: dS = (1 - n) Lap u
    grid = Grid(3, 24)
    u = FourierScalarField.cosine(3, (0, 1, 1), 0.4)
    h = FourierSymTensor.conformal(u)
    f = FourierScalarField.cosine(3, (1, 0, 0), 1.0)
    lin = linearized_formulas(FourierMetric.flat(3), h, f, grid)
    geo = MetricGeometry(FourierMetric.flat(3), grid)
    target = -2.0 * geo.laplacian(u.sample(grid))
    scale = np.abs(target).max()
    assert np.abs(lin["dscalar"] - target).max() / scale < 1e-6


def test_lichnerowicz_reduces_to_rough_laplacian_on_flat():
    grid = Grid(3, 16)
    geo = MetricGeometry(FourierMetric.flat(3), grid)
    h = FourierSymTensor.from_mode(3, (1, 1, 0), np.diag([1.0, -1.0, 0.0]))
    hv = h.sample_matrix(grid)
    out = geo.lichnerowicz(hv)
    assert np.abs(out - 2.0 * hv).max() < 1e-11  # |k|^2 = 2


class _ComplexGrid(Grid):
    """Grid whose gradient is the complex-FFT formula ifftn(1j k fftn(f)).real."""

    def gradient(self, values):
        axes = range(-self.n, 0)
        spec = np.fft.fftn(values, axes=axes)
        return np.stack([np.fft.ifftn(1j * k * spec, axes=axes).real
                         for k in self.wavenumbers])


def _reference_riemann(geo):
    """R_ijkl as riemann() once built it: d_a Gamma^k_ij by one geo.grid.gradient
    per row Gamma[k, i, i:], then textbook R^l_ijk, lowered and negated."""
    n, grid, gamma = geo.n, geo.grid, geo.gamma
    dgamma = np.empty((n, n, n, n) + grid.shape)
    for k in range(n):
        for i in range(n):
            dgamma[:, k, i, i:] = dgamma[:, k, i:, i] = grid.gradient(gamma[k, i, i:])
    r_up = np.einsum("iljk...->lijk...", dgamma) - np.einsum("jlik...->lijk...", dgamma)
    r_up += np.einsum("lim...,mjk...->lijk...", gamma, gamma)
    r_up -= np.einsum("ljm...,mik...->lijk...", gamma, gamma)
    return -np.einsum("lm...,mijk...->ijkl...", geo.g, r_up)


def _reference_geometry(g, size):
    """MetricGeometry as built with batched LAPACK and complex transforms;
    its riemann(), which lichnerowicz() also reads, is _reference_riemann."""
    n = g.shape[0]
    ref = MetricGeometry.__new__(MetricGeometry)
    ref.grid, ref.n, ref.g = _ComplexGrid(n, size), n, g
    ref.riemann = lambda: _reference_riemann(ref)
    flat = np.moveaxis(g.reshape(n, n, -1), -1, 0)
    assert np.linalg.eigvalsh(flat).min() > 0
    ref.ginv = np.moveaxis(np.linalg.inv(flat), 0, -1).reshape(g.shape)
    ref.sqrt_det = np.sqrt(np.linalg.det(flat)).reshape(ref.grid.shape)
    dg = np.stack([np.stack([ref.grid.gradient(g[i, j]) for j in range(n)], axis=1)
                   for i in range(n)], axis=1)
    rest = tuple(range(3, dg.ndim))
    bracket = dg + dg.transpose(1, 0, 2, *rest) - dg.transpose(1, 2, 0, *rest)
    ref.gamma = 0.5 * np.einsum("kl...,ijl...->kij...", ref.ginv, bracket)
    return ref


def _reference_ricci(ref):
    n, grid = ref.n, ref.grid
    div_g = np.empty((n, n) + grid.shape)
    for j in range(n):
        for k in range(n):
            spec = np.fft.fftn(ref.gamma[:, j, k], axes=range(-n, 0))
            acc = sum(1j * grid.wavenumbers[i] * spec[i] for i in range(n))
            div_g[j, k] = np.fft.ifftn(acc).real
    c = np.einsum("iik...->k...", ref.gamma)
    dc = np.stack([grid.gradient(c[k]) for k in range(n)], axis=1)
    term = div_g - dc
    term += np.einsum("iim...,mjk...->jk...", ref.gamma, ref.gamma)
    term -= np.einsum("ijm...,mik...->jk...", ref.gamma, ref.gamma)
    return 0.5 * (term + np.swapaxes(term, 0, 1))


@pytest.mark.parametrize("n, size", [(2, 16), (3, 15), (3, 24), (4, 12)])
def test_geometry_matches_lapack_complex_fft_build(n, size):
    rng = np.random.default_rng(100 + n + size)
    grid = Grid(n, size)
    metric = FourierMetric.from_perturbation(
        FourierSymTensor.random_real(n, 2, rng, scale=0.02, count=3))
    hv = FourierSymTensor.random_real(n, 2, rng, scale=0.3, count=2).sample_matrix(grid)
    geo = MetricGeometry(metric, grid)
    ref = _reference_geometry(metric.sample_matrix(grid), size)
    assert geo.ginv.flags.c_contiguous
    ric, ref_ric = geo.ricci(), _reference_ricci(ref)
    pairs = {
        "ginv": (geo.ginv, ref.ginv),
        "sqrt_det": (geo.sqrt_det, ref.sqrt_det),
        "gamma": (geo.gamma, ref.gamma),
        "ricci": (ric, ref_ric),
        "scalar": (geo.scalar(), np.einsum("jk...,jk...->...", ref.ginv, ref_ric)),
        "riemann": (geo.riemann(), ref.riemann()),
        "lichnerowicz": (geo.lichnerowicz(hv), ref.lichnerowicz(hv)),
    }
    for name, (new, old) in pairs.items():
        assert new.shape == old.shape, name
        err = np.abs(new - old).max() / np.abs(old).max()
        assert err < 1e-12, (name, err)


# -- row-batched transforms ----------------------------------------------------

def _pair_loop_dg(g, grid):
    """dg[a, i, j] = partial_a g_ij, one gradient per pair i <= j."""
    n = g.shape[0]
    dg = np.empty((n, n, n) + grid.shape)
    for i in range(n):
        for j in range(i, n):
            dg[:, i, j] = dg[:, j, i] = grid.gradient(g[i, j])
    return dg


def _pair_loop_ricci(geo):
    """ricci() with one forward and one inverse transform per pair j <= k."""
    n, grid, gamma = geo.n, geo.grid, geo.gamma
    axes = range(-n, 0)
    ik, _ = grid.half_symbols
    c = np.einsum("iik...->k...", gamma)
    c_hat = rfftn(c, axes=axes)
    out = np.empty((n, n) + grid.shape)
    for j in range(n):
        for k in range(j, n):
            spec = (ik * rfftn(gamma[:, j, k], axes=axes)).sum(axis=0)
            spec -= 0.5 * (ik[j] * c_hat[k] + ik[k] * c_hat[j])
            out[j, k] = out[k, j] = irfftn(spec, grid.shape, axes=axes)
    quad = np.einsum("m...,mjk...->jk...", c, gamma)
    quad -= np.einsum("ijm...,mik...->jk...", gamma, gamma)
    out += 0.5 * (quad + np.swapaxes(quad, 0, 1))
    return out


ROW_CASES = [(2, 16, None), (3, 15, None), (3, 24, None), (4, 12, None),
             (3, 24, (True, True, False)), (4, 12, (True, False, False, False))]


def _row_case(n, size, active, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(n, size) if active is None else Grid(n, size).invariant(active)
    mask = np.ones(n, dtype=np.int64) if active is None else np.array(active, np.int64)
    h = FourierSymTensor.random_real(n, 2, rng, scale=0.02, count=3)
    metric = FourierMetric._build(n, h.keys * mask, h.amps)
    return grid, metric


@pytest.mark.parametrize("n, size, active", ROW_CASES)
def test_row_batched_transforms_equal_the_pair_loops(n, size, active):
    grid, metric = _row_case(n, size, active, 300 + n + size)
    g = metric.sample_matrix(grid)
    values, dg = _values_and_gradient(g, grid)
    assert values is g
    assert np.array_equal(dg, _pair_loop_dg(g, grid))
    geo = MetricGeometry(g, grid)
    assert np.array_equal(geo.ricci(), _pair_loop_ricci(geo))
    riem, ref_riem = geo.riemann(), _reference_riemann(geo)
    assert np.abs(riem - ref_riem).max() <= 1e-14 * np.abs(ref_riem).max()


@pytest.mark.parametrize("n, size, active", ROW_CASES)
def test_fourier_build_matches_the_build_from_grid_values(n, size, active):
    grid, metric = _row_case(n, size, active, 400 + n + size)
    geo, ref = MetricGeometry(metric, grid), MetricGeometry(metric.sample_matrix(grid), grid)
    # its derivatives come from the spectrum, a grid-value build's from the samples
    g, dg = _values_and_gradient(metric, grid)
    assert np.abs(dg - _pair_loop_dg(ref.g, grid)).max() <= 1e-13 * np.abs(dg).max()
    assert np.abs(g - ref.g).max() <= 1e-15
    for name in ("ginv", "sqrt_det", "gamma"):
        new, old = getattr(geo, name), getattr(ref, name)
        assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max(), name
    ric, ref_ric = geo.ricci(), ref.ricci()
    assert np.abs(ric - ref_ric).max() <= 1e-13 * np.abs(ref_ric).max()


def _record_transforms(monkeypatch) -> list:
    """The list that the names of geometry's transform calls are appended to."""
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(geometry_module, name)
        monkeypatch.setattr(geometry_module, name,
                            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    return calls


def test_fourier_build_makes_one_inverse_transform_per_row(monkeypatch):
    calls = _record_transforms(monkeypatch)
    grid = Grid(3, 12)
    full = FourierMetric.from_perturbation(
        FourierSymTensor.random_real(3, 1, np.random.default_rng(5), scale=0.05, count=2))
    u = FourierScalarField.random_real(3, 1, np.random.default_rng(6), scale=0.1, count=2)
    conformal = FourierMetric.conformal_flat(u, grid)  # the diagonal only
    for metric, rows in ((full, 3), (conformal, 3), (FourierMetric.flat(3), 0)):
        calls.clear()
        geo = MetricGeometry(metric, grid)
        assert calls == ["irfftn"] * rows
    # the zero entries of the conformal metric were not transformed, yet are 0
    off = ~np.eye(3, dtype=bool)
    assert not MetricGeometry(conformal, grid).g[off].any()


def test_riemann_makes_one_forward_transform_and_one_inverse_per_pair(monkeypatch):
    calls = _record_transforms(monkeypatch)
    rng = np.random.default_rng(8)
    for n, size in ((2, 16), (3, 12), (4, 8)):
        metric = FourierMetric.from_perturbation(
            FourierSymTensor.random_real(n, 1, rng, scale=0.05, count=2))
        geo = MetricGeometry(metric, Grid(n, size))
        calls.clear()
        geo.riemann()
        assert calls == ["rfftn"] + ["irfftn"] * (n * (n - 1) // 2)


# -- one covariant derivative --------------------------------------------------

def _nabla_by_rank(geo, t):
    """The covariant derivatives nabla() replaced, one hand-written formula per rank."""
    gamma, d = geo.gamma, geo.grid.gradient(t)
    rank = t.ndim - geo.n
    if rank == 1:
        return d - np.einsum("mij...,m...->ij...", gamma, t)
    if rank == 2:
        return (d - np.einsum("mai...,mj...->aij...", gamma, t)
                - np.einsum("maj...,im...->aij...", gamma, t))
    return (d - np.einsum("mba...,mij...->baij...", gamma, t)
            - np.einsum("mbi...,amj...->baij...", gamma, t)
            - np.einsum("mbj...,aim...->baij...", gamma, t))


@pytest.mark.parametrize("n, size, active", [(3, 15, None), (3, 24, (True, True, False))])
def test_nabla_equals_the_formulas_by_rank(n, size, active):
    grid, metric = _row_case(n, size, active, 500 + size)
    geo = MetricGeometry(metric, grid)
    rng = np.random.default_rng(600 + size)
    h = rng.standard_normal((n, n) + grid.shape)
    for t in (h[0], h + np.swapaxes(h, 0, 1), rng.standard_normal((n, n, n) + grid.shape)):
        assert np.array_equal(geo.nabla(t), _nabla_by_rank(geo, t))


# -- contract-first Lichnerowicz -----------------------------------------------

def _einsum_connection_laplacian(geo, h):
    """-g^{ab} (nabla^2 h)_{ab ij} through the whole rank-4 nabla(nabla(h))."""
    return -np.einsum("ab...,abij...->ij...", geo.ginv, geo.nabla(geo.nabla(h)))


def _einsum_ring_action(geo, h):
    hu = np.einsum("ka...,lb...,ab...->kl...", geo.ginv, geo.ginv, h)
    return np.einsum("ikjl...,kl...->ij...", geo.riemann(), hu)


def _einsum_compose_sym(geo, k, h):
    kh = np.einsum("ia...,ab...,bj...->ij...", k, geo.ginv, h)
    return 0.5 * (kh + np.swapaxes(kh, 0, 1))


def _einsum_inner_sym2(geo, a, b):
    return np.einsum("ia...,jb...,ij...,ab...->...", geo.ginv, geo.ginv, a, b)


@pytest.mark.parametrize("n, size", [(2, 16), (3, 15), (3, 24), (4, 12)])
def test_contracted_operators_equal_the_einsum_forms(n, size):
    rng = np.random.default_rng(700 + n + size)
    grid = Grid(n, size)
    metric = FourierMetric.from_perturbation(
        FourierSymTensor.random_real(n, 2, rng, scale=0.02, count=3))
    geo = MetricGeometry(metric, grid)
    h, k = (FourierSymTensor.random_real(n, 2, rng, scale=0.3, count=2).sample_matrix(grid)
            for _ in range(2))
    pairs = {
        "connection_laplacian_sym2": (geo.connection_laplacian_sym2(h),
                                      _einsum_connection_laplacian(geo, h)),
        "ring_action": (geo.ring_action(h), _einsum_ring_action(geo, h)),
        "compose_sym": (geo.compose_sym(k, h), _einsum_compose_sym(geo, k, h)),
        "inner_sym2": (geo.inner_sym2(k, h), _einsum_inner_sym2(geo, k, h)),
    }
    for name, (new, old) in pairs.items():
        assert new.shape == old.shape, name
        err = np.abs(new - old).max() / np.abs(old).max()
        assert err < 1e-12, (name, err)
    lap = pairs["connection_laplacian_sym2"][0]
    assert np.array_equal(lap, np.swapaxes(lap, 0, 1))


def test_one_riemann_tensor_per_geometry(monkeypatch):
    calls = _record_transforms(monkeypatch)
    rng = np.random.default_rng(9)
    grid = Grid(3, 12)
    geo = MetricGeometry(FourierMetric.from_perturbation(
        FourierSymTensor.random_real(3, 1, rng, scale=0.05, count=2)), grid)
    h, k = (FourierSymTensor.random_real(3, 1, rng, scale=0.3, count=2).sample_matrix(grid)
            for _ in range(2))
    calls.clear()
    geo.lichnerowicz(h)
    geo.lichnerowicz(k)
    assert calls == ["rfftn"] + ["irfftn"] * 3
    riem = geo.riemann()
    assert riem is geo.riemann() and not riem.flags.writeable
    with pytest.raises(ValueError):
        riem[0, 1, 0, 1] += 1.0
