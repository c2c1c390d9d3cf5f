"""Nonlinear Levi-Civita pipeline for perturbed torus metrics.

All derivatives are exact spectral derivatives of the grid samples; all
products are pointwise on the grid.  Curvature conventions are fixed so
that the round 2-sphere pattern has R_1212 = +1 and ricci_jl = sum_i R_ijil
(matching the pointwise algebra in spinstab.curvature), i.e. the rank-4
tensor here is the negative of the textbook lowered R(X,Y)Z convention.
"""

from __future__ import annotations

import numpy as np

from .fields import (FourierMetric, FourierScalarField, FourierSymTensor,
                     Grid, fftn, ifftn)


class MetricGeometry:
    """Grid-sampled metric with cached inverse and Christoffel symbols.

    Accepts either a spectral FourierMetric or raw grid values of shape
    (n, n) + grid.shape.
    """

    def __init__(self, metric, grid: Grid):
        self.grid = grid
        if isinstance(metric, np.ndarray):
            g = metric
            self.n = g.shape[0]
        else:
            self.n = metric.n
            g = metric.sample_matrix(grid)  # (n, n) + shape
        self.g = g
        flat = np.moveaxis(g.reshape(self.n, self.n, -1), -1, 0)
        w = np.linalg.eigvalsh(flat)
        if w.min() <= 0:
            raise ValueError(f"metric not positive on grid (min eig {w.min():.3e})")
        ginv_flat = np.linalg.inv(flat)
        self.ginv = np.moveaxis(ginv_flat, 0, -1).reshape(g.shape)
        self.sqrt_det = np.sqrt(np.linalg.det(flat)).reshape(grid.shape)
        # dg[a, i, j] = partial_a g_ij
        self.dg = np.stack([
            np.stack([grid.gradient(g[i, j]) for j in range(self.n)], axis=1)
            for i in range(self.n)
        ], axis=1)
        # Christoffel: G^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij);
        # dg[a, i, j] = d_a g_ij, so the bracket indexed (i, j, l) is
        # dg + dg.T(1,0,2) - dg.T(1,2,0)
        dg = self.dg
        rest = tuple(range(3, dg.ndim))
        bracket = dg + dg.transpose(1, 0, 2, *rest) - dg.transpose(1, 2, 0, *rest)
        self.gamma = 0.5 * np.einsum("kl...,ijl...->kij...", self.ginv, bracket)
        self._dgamma = None

    @property
    def dgamma(self) -> np.ndarray:
        """dgamma[a, k, i, j] = partial_a Gamma^k_ij (computed on demand)."""
        if self._dgamma is None:
            n, grid = self.n, self.grid
            out = np.empty((n, n, n, n) + grid.shape)
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        d = grid.gradient(self.gamma[k, i, j])
                        out[:, k, i, j] = d
                        out[:, k, j, i] = d
            self._dgamma = out
        return self._dgamma

    # -- curvature ---------------------------------------------------------
    def riemann(self) -> np.ndarray:
        """R_ijkl with the sign convention stated in the module docstring."""
        dgm = self.dgamma
        # textbook R^l_ijk (R(e_i, e_j) e_k = R^l_ijk e_l), then lower and negate
        r_up = np.einsum("iljk...->lijk...", dgm) - np.einsum("jlik...->lijk...", dgm)
        r_up += np.einsum("lim...,mjk...->lijk...", self.gamma, self.gamma)
        r_up -= np.einsum("ljm...,mik...->lijk...", self.gamma, self.gamma)
        r_low = np.einsum("lm...,mijk...->ijkl...", self.g, r_up)
        return -r_low

    def ricci(self) -> np.ndarray:
        """Ricci tensor (positive for the round sphere).

        Built from contracted Christoffel derivatives directly, which needs
        far fewer transforms than the full rank-4 tensor.
        """
        n, grid = self.n, self.grid
        # div-type term: sum_i partial_i Gamma^i_jk
        div_g = np.empty((n, n) + grid.shape)
        for j in range(n):
            for k in range(j, n):
                spec = fftn(self.gamma[:, j, k], axes=range(-n, 0))
                acc = np.zeros(grid.shape, dtype=complex)
                for i in range(n):
                    acc += 1j * grid.wavenumbers[i] * spec[i]
                val = ifftn(acc).real
                div_g[j, k] = val
                div_g[k, j] = val
        # gradient of the contracted symbol C_k = sum_i Gamma^i_ik
        c = np.einsum("iik...->k...", self.gamma)
        dc = np.stack([grid.gradient(c[k]) for k in range(n)], axis=1)
        term = div_g - dc
        term += np.einsum("iim...,mjk...->jk...", self.gamma, self.gamma)
        term -= np.einsum("ijm...,mik...->jk...", self.gamma, self.gamma)
        # term = textbook Ric_jk = R^i_ijk; equals g^{ik} R_ijkl in the
        # convention of this module, hence symmetric
        return 0.5 * (term + np.swapaxes(term, 0, 1))

    def scalar(self) -> np.ndarray:
        return np.einsum("jk...,jk...->...", self.ginv, self.ricci())

    # -- covariant derivatives ---------------------------------------------
    def grad_scalar(self, f: np.ndarray) -> np.ndarray:
        return self.grid.gradient(f)

    def hessian(self, f: np.ndarray) -> np.ndarray:
        """D^2 f_ij = d_i d_j f - Gamma^m_ij d_m f."""
        df = self.grid.gradient(f)
        ddf = np.stack([self.grid.gradient(df[i]) for i in range(self.n)], axis=1)
        ddf = 0.5 * (ddf + np.swapaxes(ddf, 0, 1))
        return ddf - np.einsum("mij...,m...->ij...", self.gamma, df)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Trace of the Hessian: nonpositive-definite Laplace-Beltrami."""
        return np.einsum("ij...,ij...->...", self.ginv, self.hessian(f))

    def nabla_sym2(self, h: np.ndarray) -> np.ndarray:
        """(nabla h)[a, i, j] = nabla_a h_ij for a symmetric 2-tensor field."""
        n = self.n
        dh = np.stack([
            np.stack([self.grid.gradient(h[i, j]) for j in range(n)], axis=1)
            for i in range(n)
        ], axis=1)
        out = dh - np.einsum("mai...,mj...->aij...", self.gamma, h) \
                 - np.einsum("maj...,im...->aij...", self.gamma, h)
        return out

    def nabla_3tensor(self, t: np.ndarray) -> np.ndarray:
        """Covariant derivative of a covariant 3-tensor t[a, i, j]."""
        n = self.n
        dt = np.empty((n,) + t.shape)
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    dt[:, a, i, j] = self.grid.gradient(t[a, i, j])
        out = dt - np.einsum("mba...,mij...->baij...", self.gamma, t) \
                 - np.einsum("mbi...,amj...->baij...", self.gamma, t) \
                 - np.einsum("mbj...,aim...->baij...", self.gamma, t)
        return out

    def connection_laplacian_sym2(self, h: np.ndarray) -> np.ndarray:
        """nabla* nabla h = -g^{ab} (nabla^2 h)_{ab ij}."""
        nh = self.nabla_sym2(h)
        nnh = self.nabla_3tensor(nh)
        return -np.einsum("ab...,abij...->ij...", self.ginv, nnh)

    def divergence_sym2(self, h: np.ndarray) -> np.ndarray:
        """(delta h)_j = -g^{ik} nabla_i h_kj."""
        nh = self.nabla_sym2(h)
        return -np.einsum("ik...,ikj...->j...", self.ginv, nh)

    def divergence_oneform(self, w: np.ndarray) -> np.ndarray:
        """delta w = -g^{ij} nabla_i w_j."""
        dw = np.stack([self.grid.gradient(w[j]) for j in range(self.n)], axis=1)
        ndw = dw - np.einsum("mij...,m...->ij...", self.gamma, w)
        return -np.einsum("ij...,ij...->...", self.ginv, ndw)

    def sym_derivative_oneform(self, w: np.ndarray) -> np.ndarray:
        """(delta* w)_ij = (nabla_i w_j + nabla_j w_i) / 2, adjoint of delta."""
        dw = np.stack([self.grid.gradient(w[j]) for j in range(self.n)], axis=1)
        ndw = dw - np.einsum("mij...,m...->ij...", self.gamma, w)
        return 0.5 * (ndw + np.swapaxes(ndw, 0, 1))

    def ring_action(self, h: np.ndarray) -> np.ndarray:
        """(R h)_ij = g^{ka} g^{lb} R_ikjl h_ab (curvature action on sym2)."""
        r = self.riemann()
        hu = np.einsum("ka...,lb...,ab...->kl...", self.ginv, self.ginv, h)
        return np.einsum("ikjl...,kl...->ij...", r, hu)

    def lichnerowicz(self, h: np.ndarray) -> np.ndarray:
        """nabla* nabla h - 2 (R h)."""
        return self.connection_laplacian_sym2(h) - 2.0 * self.ring_action(h)

    def compose_sym(self, k: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Symmetric part of the (1,1)-composition of two sym 2-tensors."""
        kh = np.einsum("ia...,ab...,bj...->ij...", k, self.ginv, h)
        return 0.5 * (kh + np.swapaxes(kh, 0, 1))

    def inner_sym2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ia...,jb...,ij...,ab...->...", self.ginv, self.ginv, a, b)

    def inner_oneform(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij...,i...,j...->...", self.ginv, a, b)


def metric_curvature(metric: FourierMetric, grid: Grid | None = None) -> dict:
    """Full curvature data of a torus metric as pointwise grid fields."""
    grid = grid if grid is not None else Grid(metric.n)
    geo = MetricGeometry(metric, grid)
    return {
        "geometry": geo,
        "christoffel": geo.gamma,
        "riemann": geo.riemann(),
        "ricci": geo.ricci(),
        "scalar": geo.scalar(),
    }


def tensor_calculus(
    metric: FourierMetric,
    f: FourierScalarField | None = None,
    h: FourierSymTensor | None = None,
    w: list | None = None,
    grid: Grid | None = None,
) -> dict:
    """Hessian, Laplacian, divergence, trace and delta* on grid samples."""
    grid = grid if grid is not None else Grid(metric.n)
    geo = MetricGeometry(metric, grid)
    out = {"geometry": geo}
    if f is not None:
        fv = f.sample(grid)
        out["hessian"] = geo.hessian(fv)
        out["laplacian"] = geo.laplacian(fv)
    if h is not None:
        hv = h.sample_matrix(grid)
        out["divergence"] = geo.divergence_sym2(hv)
        out["trace"] = np.einsum("ij...,ij...->...", geo.ginv, hv)
    if w is not None:
        wv = np.stack([c.sample(grid) for c in w])
        out["sym_derivative"] = geo.sym_derivative_oneform(wv)
        out["divergence_oneform"] = geo.divergence_oneform(wv)
    return out


def linearized_formulas(
    metric: FourierMetric,
    h: FourierSymTensor,
    f: FourierScalarField,
    grid: Grid | None = None,
) -> dict:
    """First variations of Ricci, scalar curvature and the Laplacian.

        dRic  = 1/2 (nabla*nabla h - 2 Rh) - delta* delta h - 1/2 D^2 tr h
                + sym(Ric . h)
        dS    = -<h, Ric> + delta(delta h) - Lap(tr h)
        dLap f = -<h, D^2 f> + <delta h + 1/2 d tr h, df>

    evaluated at the given base metric, as grid fields.
    """
    grid = grid if grid is not None else Grid(metric.n)
    geo = MetricGeometry(metric, grid)
    hv = h.sample_matrix(grid)
    fv = f.sample(grid)

    ric = geo.ricci()
    delta_h = geo.divergence_sym2(hv)
    tr_h = np.einsum("ij...,ij...->...", geo.ginv, hv)
    d_tr_h = geo.grad_scalar(tr_h)

    dric = 0.5 * geo.lichnerowicz(hv)
    dric -= geo.sym_derivative_oneform(delta_h)
    dric -= 0.5 * geo.hessian(tr_h)
    dric += geo.compose_sym(ric, hv)

    ds = -geo.inner_sym2(hv, ric) + geo.divergence_oneform(delta_h) - geo.laplacian(tr_h)

    df = geo.grad_scalar(fv)
    dlap = -geo.inner_sym2(hv, geo.hessian(fv)) + geo.inner_oneform(
        delta_h + 0.5 * d_tr_h, df
    )
    return {"geometry": geo, "dric": dric, "dscalar": ds, "dlaplacian": dlap}


def fd_variation(
    metric: FourierMetric,
    h: FourierSymTensor,
    quantity,
    step: float,
    grid: Grid,
):
    """Central finite difference of a nonlinear functional of the metric.

    `quantity` maps a MetricGeometry to a grid array; the derivative along
    g + t h at t = 0 is returned together with the halved-step value for
    Richardson/order diagnostics.
    """
    def at(t: float):
        return quantity(MetricGeometry(metric + t * h, grid))

    d1 = (at(step) - at(-step)) / (2 * step)
    d2 = (at(step / 2) - at(-step / 2)) / step
    richardson = (4.0 * d2 - d1) / 3.0
    return {"step": d1, "half_step": d2, "richardson": richardson}
