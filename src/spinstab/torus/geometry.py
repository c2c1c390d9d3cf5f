"""Nonlinear Levi-Civita pipeline for perturbed torus metrics.

All derivatives are exact real spectral derivatives of the grid samples,
with the wavenumber 0 at an even grid's Nyquist bin (Grid.half_symbols);
products are pointwise, grid axes last, e.g. (n, n) + grid.shape.
Pointwise elimination gives the inverse metric and the determinant, and its
pivots check positivity; the metric's derivatives are not stored.

A FourierMetric's values g and first derivatives dg come from its half
spectrum (ModeField.half_spectrum): row i of the upper triangle, g_ij and
d_a g_ij for its nonzero entries j >= i, is one inverse transform, with no
forward transform and no complex one.  Grid values take one forward
transform per row instead.  The transforms are batched by row, not by
pair and not over the whole triangle: a call's cost on the small sub-torus
grids is mostly its fixed overhead, and a row keeps the transient stacks
as small as the arrays being filled.  ricci() makes one forward transform
per row j of Gamma[:, j, j:], one for the contraction C and one inverse per
row.  riemann() makes one forward transform of the whole Gamma stack and one
inverse per pair i < j of d_i Gamma^l_jk - d_j Gamma^l_ik, once per
geometry: the tensor is kept, read-only, so the lichnerowicz calls on one
geometry share it.  Every covariant derivative is MetricGeometry.nabla: the
gradient minus one Gamma term per slot.  The Lichnerowicz Laplacian contracts
g^{ab} into the Gamma terms before it differentiates nabla h, and raises
indices as two pointwise matrix products, so it costs O(n^4) per point.

Curvature conventions are fixed so that the round 2-sphere pattern has
R_1212 = +1 and ricci_jl = sum_i R_ijil (matching the pointwise algebra in
spinstab.curvature), i.e. the rank-4 tensor here is the negative of the
textbook lowered R(X,Y)Z convention.
"""

from __future__ import annotations

import numpy as np

# fftn/ifftn stay module attributes: tracing tools rebind the transforms here
from .fields import (FourierMetric, FourierScalarField, FourierSymTensor,  # noqa: F401
                     Grid, fftn, ifftn, irfftn, rfftn)


def _spd_inverse(g: np.ndarray):
    """Inverse and determinant of a symmetric matrix field g, (n, n) + shape.

    Gauss-Jordan elimination without pivoting, pointwise over the grid.  The
    k-th pivot is the ratio of the k-th to the (k-1)-th leading principal
    minor, so all pivots are positive exactly where g is positive definite
    (Sylvester), and their product is det g.
    """
    n = g.shape[0]
    a, inv = g.astype(float), np.zeros(g.shape)
    inv[range(n), range(n)] = 1.0
    det = np.ones(g.shape[2:])
    for p in range(n):
        piv = a[p, p].copy()
        if not np.all(piv > 0):
            w = np.linalg.eigvalsh(np.moveaxis(g.reshape(n, n, -1), -1, 0)).min()
            raise ValueError(f"metric not positive on grid (min eig {w:.3e})")
        det *= piv
        # columns < p of `a` and > p of `inv` are still identity columns
        a[p, p:] /= piv
        inv[p, :p + 1] /= piv
        for i in range(n):
            if i != p:  # inv first: it reads a[i, p] before a's row update zeroes it
                inv[i, :p + 1] -= a[i, p] * inv[p, :p + 1]
                a[i, p:] -= a[i, p] * a[p, p:]
    return inv, det


def _values_and_gradient(metric, grid: Grid):
    """g, (n, n) + shape, and dg[a, i, j] = partial_a g_ij (g is symmetric).

    Grid values: one gradient per row g[i, i:].  A FourierMetric: from its
    half spectrum, one inverse transform per row of the upper triangle that
    has a nonzero entry.
    """
    if isinstance(metric, np.ndarray):
        n = metric.shape[0]
        dg = np.empty((n, n, n) + grid.shape)
        for i in range(n):
            dg[:, i, i:] = dg[:, i:, i] = grid.gradient(metric[i, i:])
        return metric, dg
    n, axes = metric.n, range(-metric.n, 0)
    ik, _ = grid.half_symbols
    spec = metric.half_spectrum(grid)
    nonzero = metric.amps.any(axis=0)
    g = np.zeros((n, n) + grid.shape)
    dg = np.zeros((n, n, n) + grid.shape)
    for i in range(n):
        cols = [j for j in range(i, n) if nonzero[i, j]]
        if not cols:
            continue
        row = np.empty((1 + n, len(cols)) + grid.half_shape, dtype=complex)
        row[0] = spec[i, cols]
        np.multiply(ik[:, None], row[0], out=row[1:])
        values = irfftn(row, grid.shape, axes=axes)
        g[i, cols] = g[cols, i] = values[0]
        dg[:, i, cols] = dg[:, cols, i] = values[1:]
    g[range(n), range(n)] += 1.0
    return g, dg


class MetricGeometry:
    """Grid-sampled metric with cached inverse and Christoffel symbols.

    Accepts either a spectral FourierMetric or raw grid values of shape
    (n, n) + grid.shape.
    """

    def __init__(self, metric, grid: Grid):
        self.grid = grid
        self.g, dg = _values_and_gradient(metric, grid)
        self.n = self.g.shape[0]
        self.ginv, det = _spd_inverse(self.g)
        self.sqrt_det = np.sqrt(det)
        # Christoffel: G^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij);
        # the bracket indexed (i, j, l) is dg + dg.T(1,0,2) - dg.T(1,2,0)
        rest = tuple(range(3, dg.ndim))
        bracket = dg + dg.transpose(1, 0, 2, *rest)
        bracket -= dg.transpose(1, 2, 0, *rest)
        del dg
        self.gamma = np.einsum("kl...,ijl...->kij...", 0.5 * self.ginv, bracket)
        self._riemann = None

    # -- curvature ---------------------------------------------------------
    def riemann(self) -> np.ndarray:
        """R_ijkl with the sign convention stated in the module docstring,
        built on the first call and then kept, read-only."""
        if self._riemann is not None:
            return self._riemann
        # textbook R^l_ijk (R(e_i, e_j) e_k = R^l_ijk e_l), then lower and negate;
        # its derivative part d_i G^l_jk - d_j G^l_ik is antisymmetric in (i, j)
        n, grid = self.n, self.grid
        axes = range(-n, 0)
        ik, _ = grid.half_symbols
        spec = rfftn(self.gamma, axes=axes)
        r_up = np.zeros((n, n, n, n) + grid.shape)
        for i in range(n):
            for j in range(i + 1, n):
                d = irfftn(ik[i] * spec[:, j] - ik[j] * spec[:, i], grid.shape, axes=axes)
                r_up[:, i, j], r_up[:, j, i] = d, -d
        r_up += np.einsum("lim...,mjk...->lijk...", self.gamma, self.gamma)
        r_up -= np.einsum("ljm...,mik...->lijk...", self.gamma, self.gamma)
        r_low = np.einsum("lm...,mijk...->ijkl...", self.g, r_up)
        self._riemann = -r_low
        self._riemann.flags.writeable = False
        return self._riemann

    def ricci(self) -> np.ndarray:
        """Ricci tensor (positive for the round sphere).

        Built from contracted Christoffel derivatives directly, which needs
        far fewer transforms than the full rank-4 tensor: the textbook
        Ric_jk = d_i G^i_jk - d_j C_k + G^i_im G^m_jk - G^i_jm G^m_ik, C_k =
        G^i_ik, symmetrized (it equals g^{ik} R_ijkl here).  The derivative
        terms are summed in the half spectrum, one inverse per row j.
        """
        n, grid, gamma = self.n, self.grid, self.gamma
        axes = range(-n, 0)
        ik, _ = grid.half_symbols
        c = np.einsum("iik...->k...", gamma)
        c_hat = rfftn(c, axes=axes)
        out = np.empty((n, n) + grid.shape)
        for j in range(n):
            # spec[k - j] for k >= j
            spec = (ik[:, None] * rfftn(gamma[:, j, j:], axes=axes)).sum(axis=0)
            spec -= 0.5 * (ik[j] * c_hat[j:] + ik[j:] * c_hat[j])
            out[j, j:] = out[j:, j] = irfftn(spec, grid.shape, axes=axes)
        quad = np.einsum("m...,mjk...->jk...", c, gamma)
        quad -= np.einsum("ijm...,mik...->jk...", gamma, gamma)
        out += 0.5 * (quad + np.swapaxes(quad, 0, 1))
        return out

    def scalar(self) -> np.ndarray:
        return np.einsum("jk...,jk...->...", self.ginv, self.ricci())

    # -- covariant derivatives ---------------------------------------------
    def nabla(self, t: np.ndarray) -> np.ndarray:
        """Covariant derivative of a covariant tensor field t[a_1, ..., a_r]:
        (nabla t)[b, a_1, ..., a_r] = d_b t - sum_s Gamma^m_{b a_s} t[..., m, ...]
        with m in slot s."""
        rank = t.ndim - self.n
        slots = "acdefhijkl"[:rank]
        out = self.grid.gradient(t)
        for s in range(rank):
            moved = slots[:s] + "m" + slots[s + 1:]
            out -= np.einsum(f"mb{slots[s]}...,{moved}...->b{slots}...", self.gamma, t)
        return out

    def hessian(self, f: np.ndarray) -> np.ndarray:
        """D^2 f_ij = d_i d_j f - Gamma^m_ij d_m f."""
        ddf = self.nabla(self.grid.gradient(f))
        return 0.5 * (ddf + np.swapaxes(ddf, 0, 1))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Trace of the Hessian: nonpositive-definite Laplace-Beltrami."""
        return np.einsum("ij...,ij...->...", self.ginv, self.hessian(f))

    def connection_laplacian_sym2(self, h: np.ndarray) -> np.ndarray:
        """nabla* nabla h = -g^{ab} (nabla^2 h)_{ab ij}, contracted first: with
        T = nabla h, -g^{ab} d_a T_bij + (g^{ab} G^m_ab) T_mij + X_ij + X_ji,
        X_ij = (g^{ab} G^m_ai) T_bmj; only T's components i <= j are
        differentiated (T_bij is symmetric in (i, j))."""
        n, ginv, gamma = self.n, self.ginv, self.gamma
        iu, ju = np.triu_indices(n)
        t = self.nabla(h)
        tu = t[:, iu, ju]  # (b, p) + shape, p running over the pairs i <= j
        upper = np.einsum("m...,mp...->p...", np.einsum("ab...,mab...->m...", ginv, gamma), tu)
        upper -= np.einsum("ab...,abp...->p...", ginv, self.grid.gradient(tu))
        x = np.einsum("bmi...,bmj...->ij...", np.einsum("ab...,mai...->bmi...", ginv, gamma), t)
        out = x + np.swapaxes(x, 0, 1)
        out[iu, ju] += upper
        out[ju, iu] = out[iu, ju]
        return out

    def divergence_sym2(self, h: np.ndarray) -> np.ndarray:
        """(delta h)_j = -g^{ik} nabla_i h_kj."""
        return -np.einsum("ik...,ikj...->j...", self.ginv, self.nabla(h))

    def divergence_oneform(self, w: np.ndarray) -> np.ndarray:
        """delta w = -g^{ij} nabla_i w_j."""
        return -np.einsum("ij...,ij...->...", self.ginv, self.nabla(w))

    def sym_derivative_oneform(self, w: np.ndarray) -> np.ndarray:
        """(delta* w)_ij = (nabla_i w_j + nabla_j w_i) / 2, adjoint of delta."""
        ndw = self.nabla(w)
        return 0.5 * (ndw + np.swapaxes(ndw, 0, 1))

    def _raised(self, a: np.ndarray) -> np.ndarray:
        """a^{ij} = g^{ik} a_kl g^{lj} of a symmetric 2-tensor, as two
        pointwise matrix products."""
        ga = np.einsum("ik...,kl...->il...", self.ginv, a)
        return np.einsum("il...,lj...->ij...", ga, self.ginv)

    def ring_action(self, h: np.ndarray) -> np.ndarray:
        """(R h)_ij = g^{ka} g^{lb} R_ikjl h_ab (curvature action on sym2)."""
        return np.einsum("ikjl...,kl...->ij...", self.riemann(), self._raised(h))

    def lichnerowicz(self, h: np.ndarray) -> np.ndarray:
        """nabla* nabla h - 2 (R h)."""
        return self.connection_laplacian_sym2(h) - 2.0 * self.ring_action(h)

    def compose_sym(self, k: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Symmetric part of the (1,1)-composition of two sym 2-tensors."""
        kg = np.einsum("ia...,ab...->ib...", k, self.ginv)
        kh = np.einsum("ib...,bj...->ij...", kg, h)
        return 0.5 * (kh + np.swapaxes(kh, 0, 1))

    def inner_sym2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij...,ij...->...", self._raised(a), b)

    def inner_oneform(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij...,i...,j...->...", self.ginv, a, b)


def metric_curvature(metric: FourierMetric, grid: Grid) -> dict:
    """Full curvature data of a torus metric as pointwise grid fields."""
    geo = MetricGeometry(metric, grid)
    ric = geo.ricci()
    return {
        "geometry": geo,
        "christoffel": geo.gamma,
        "riemann": geo.riemann(),
        "ricci": ric,
        "scalar": np.einsum("jk...,jk...->...", geo.ginv, ric),
    }


def linearized_formulas(
    metric: FourierMetric,
    h: FourierSymTensor,
    f: FourierScalarField,
    grid: Grid,
) -> dict:
    """First variations of Ricci, scalar curvature and the Laplacian.

        dRic  = 1/2 (nabla*nabla h - 2 Rh) - delta* delta h - 1/2 D^2 tr h
                + sym(Ric . h)
        dS    = -<h, Ric> + delta(delta h) - Lap(tr h)
        dLap f = -<h, D^2 f> + <delta h + 1/2 d tr h, df>

    evaluated at the given base metric, as grid fields.
    """
    geo = MetricGeometry(metric, grid)
    hv = h.sample_matrix(grid)
    fv = f.sample(grid)

    ric = geo.ricci()
    delta_h = geo.divergence_sym2(hv)
    tr_h = np.einsum("ij...,ij...->...", geo.ginv, hv)
    d_tr_h = grid.gradient(tr_h)

    dric = 0.5 * geo.lichnerowicz(hv)
    dric -= geo.sym_derivative_oneform(delta_h)
    dric -= 0.5 * geo.hessian(tr_h)
    dric += geo.compose_sym(ric, hv)

    ds = -geo.inner_sym2(hv, ric) + geo.divergence_oneform(delta_h) - geo.laplacian(tr_h)

    df = grid.gradient(fv)
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
