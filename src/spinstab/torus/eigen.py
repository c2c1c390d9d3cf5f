"""Principal eigenvalue of the conformal Laplacian -Lap + c_n S on tori.

The operator is discretized in divergence form on the collocation grid and
conjugated by the volume weight, which makes it exactly symmetric; the
lowest eigenpair comes from preconditioned correction equations (inverse
iteration deflated against the current estimate), and a solve
whose residual stays above HARD_RESIDUAL raises.  The first and
second t-derivatives of the eigenvalue along metric lines g + t h are
estimated from symmetric 5-point stencils with an empirically chosen step;
each stencil solve starts from the Lagrange extrapolation of the nearest
solved eigenfunctions.

Both first derivatives of the divergence form are real spectral derivatives,
so on an even grid they apply the wavenumber 0 at the Nyquist bin (a real
field's derivative cannot carry that mode).  On the full grid the 2^n - 1
pure checkerboard modes, and the mixed modes with a Nyquist index, would get
no stiffness (or too little) and form a spurious near-degenerate cluster at
the ground state.  The solver therefore works on the Galerkin band instead:
P A P, where P zeroes every rfftn half-spectrum bin with an index at N/2, is
the truncation to trigonometric polynomials of degree < N/2 on each axis
(Canuto, Hussaini, Quarteroni & Zang, Spectral Methods; Boyd, Chebyshev and
Fourier Spectral Methods, ch. 11).  The start vector and every matvec are
projected by P.

The preconditioner is P D M0 D P, after Concus & Golub ("Use of fast direct
methods for the efficient numerical solution of nonseparable elliptic
equations", SIAM J. Numer. Anal. 10, 1973): a constant-coefficient inverse
scaled pointwise to the variable coefficient.  The symmetrized operator
S A S^-1 has principal symbol g^ij k_i k_j, which is (tr g^-1 / n) |k|^2 up
to the anisotropy of g; M0 = F^-1 [band / max(sum_a k~_a^2, 1)] F (k~ from
Grid.half_symbols, F the rfftn) inverts |k|^2 on the band, and the
multiplication D = (n / tr g^-1)^(1/2) undoes the pointwise scale.  On a
conformally rescaled metric e^(4v) g that scale is e^(-4v), which the flat
symbol alone would leave to the iteration.  With B = D P the preconditioner
is B^T M0 B: symmetric, and positive on range(P), because a band vector
u != 0 has u . D u > 0, so D u has a band component, where M0 is positive.
The final P keeps every iterate in range(P).

A FourierMetric whose modes all have k_a = 0 on some axes is constant along
them, and so are its geometry, the operator's coefficients and its ground
state.  It is solved on Grid.invariant, the grid of its invariant sub-torus
(one point on each such axis), and psi is broadcast back to the full grid.
This is exact: the operator commutes with translations along those axes,
the start vector sqrt(w) (times a warm start averaged over those axes) is
invariant, so is every iterate, and on invariant fields the band, the matvec
and the normalized residual are the sub-grid's.  Grid values are solved on
the grid they come on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fftn/ifftn stay module attributes: tracing tools rebind the transforms here
from .fields import (FourierMetric, FourierSymTensor, Grid, fftn, ifftn,  # noqa: F401
                     irfftn, rfftn)
from .geometry import MetricGeometry
from .operators import lichnerowicz_flat, tt_split

EIG_TOL = 1e-9
HARD_RESIDUAL = 1e-8
MAX_ITER = 10_000
VARIATION_TOL = 1e-8  # eigen-solver tolerance of the stencil solves


def conformal_coefficient(n: int) -> float:
    return (n - 2) / (4.0 * (n - 1))


@dataclass
class ConformalEigenpair:
    """Lowest eigenpair of -Lap_g + c_n S_g.

    psi is normalized by integral(psi dV_g) = 1 and positive; the residual
    is |P A P phi - lam phi| for phi = sqrt(w) psi / |sqrt(w) psi|, the
    weighted L2 residual of the divergence-form operator on the band.
    """

    lam: float
    psi: np.ndarray
    residual: float
    iterations: int  # inner (correction-equation CG) iterations
    matvecs: int  # operator applications, inner and outer
    min_psi: float
    normalization: float


class _ConformalOperator:
    """Symmetrized divergence-form conformal Laplacian on the grid's band."""

    def __init__(self, geo: MetricGeometry, c_n: float):
        self.grid = geo.grid
        self.n = geo.n
        self.w = geo.sqrt_det
        self.sqrt_w = np.sqrt(self.w)
        self.pot = c_n * geo.scalar()
        self.wginv = geo.ginv * self.w  # (n, n) + shape
        self._ik = self.grid.half_symbols[0]
        self._band, self._flat_inverse = self.grid.band_symbols
        # D = (n / tr g^-1)^(1/2): the pointwise scale of the principal symbol
        self._scale = np.sqrt(self.n / np.einsum("ii...->...", geo.ginv))
        self.matvecs = 0

    def apply_raw(self, psi: np.ndarray) -> np.ndarray:
        """(-Lap_g + c_n S) psi in divergence form."""
        axes = range(-self.n, 0)
        shape = self.grid.shape
        dpsi = irfftn(self._ik * rfftn(psi, axes=axes), shape, axes=axes)
        flux = np.einsum("ij...,j...->i...", self.wginv, dpsi)
        div_spec = (self._ik * rfftn(flux, axes=axes)).sum(axis=0)
        div = irfftn(div_spec, shape, axes=axes)
        return -div / self.w + self.pot * psi

    def project(self, v: np.ndarray) -> np.ndarray:
        """P: the orthogonal projection of grid values onto the band."""
        return irfftn(self._band * rfftn(v), self.grid.shape)

    def apply_sym(self, phi: np.ndarray) -> np.ndarray:
        """P S A S^-1 on phi = S psi, S = sqrt(w): Euclidean-symmetric on
        range(P), which it maps into itself."""
        self.matvecs += 1
        psi = phi / self.sqrt_w
        return self.project(self.sqrt_w * self.apply_raw(psi))

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """P D M0 D P r, M0 the flat inverse Laplacian on the band (see the
        module docstring); r is taken to lie on the band already."""
        flat = irfftn(self._flat_inverse * rfftn(self._scale * r), self.grid.shape)
        return self.project(self._scale * flat)


def _jd_refine(op: "_ConformalOperator", phi: np.ndarray, tol: float,
               maxiter: int):
    """Drive the eigen-residual down by correction equations.

    Returns (residual, phi, lam, inner_iterations); stops on tolerance,
    iteration budget or stagnation.
    """
    phi = phi / np.linalg.norm(phi)
    a_phi = op.apply_sym(phi)
    lam = float(np.sum(phi * a_phi))
    residual = float(np.linalg.norm(a_phi - lam * phi))
    best = (residual, phi, lam)
    total = 0
    stale = 0
    for _ in range(40):
        if best[0] <= tol or total > maxiter:
            break
        current = phi

        def proj(v):
            return v - current * float(np.sum(current * v))

        def corr_op(v, lam_=lam):
            pv = proj(v)
            return proj(op.apply_sym(pv) - lam_ * pv)

        def corr_pre(v):
            return proj(op.precondition(proj(v)))

        r = a_phi - lam * phi
        # inner relative tolerance 1e-4 gives one to two orders of residual
        # reduction per outer step at moderate inner cost
        z, its = _pcg(corr_op, corr_pre, -r, 1e-4, min(maxiter, 400))
        total += its
        phi = phi + proj(z)
        phi = phi / np.linalg.norm(phi)
        a_phi = op.apply_sym(phi)
        lam = float(np.sum(phi * a_phi))
        residual = float(np.linalg.norm(a_phi - lam * phi))
        if residual < 0.9 * best[0]:
            stale = 0
        else:
            stale += 1
        if residual < best[0]:
            best = (residual, phi, lam)
        if stale >= 3:
            break
    residual, phi, lam = best
    return residual, phi, lam, total


def _pcg(apply_a, precond, b, tol, maxiter):
    """Preconditioned CG for SPD apply_a; returns the solution and the
    number of apply_a calls (at most maxiter)."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    b_norm = float(np.linalg.norm(b))
    its = 0
    while its < maxiter:
        ap = apply_a(p)
        its += 1
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        if its == maxiter or float(np.linalg.norm(r)) <= tol * b_norm:
            break
        z = precond(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, its


def conformal_eigenvalue(
    metric,
    grid: Grid,
    tol: float = EIG_TOL,
    initial: np.ndarray | None = None,
) -> ConformalEigenpair:
    """Smallest eigenpair of the conformal Laplacian of a torus metric.

    `metric` may be a FourierMetric or grid values (n, n) + grid.shape.
    `initial` warm-starts the iteration with a psi-space guess (e.g. the
    eigenfunction of a nearby metric).  A FourierMetric with no mode along
    some axes is solved on the grid of its invariant sub-torus (see the
    module docstring); psi comes back on the full grid either way.
    """
    active = None if isinstance(metric, np.ndarray) else metric.keys.any(axis=0)
    if active is None or active.all():
        return _ground_pair(metric, grid, tol, initial)
    if initial is not None:
        # the orthogonal projection onto the fields constant along ~active
        initial = initial.mean(axis=tuple(np.flatnonzero(~active)), keepdims=True)
    pair = _ground_pair(metric, grid.invariant(active), tol, initial)
    pair.psi = np.broadcast_to(pair.psi, grid.shape).copy()
    return pair


def _ground_pair(metric, grid: Grid, tol: float, initial) -> ConformalEigenpair:
    geo = MetricGeometry(metric, grid)
    op = _ConformalOperator(geo, conformal_coefficient(geo.n))

    phi = op.project(op.sqrt_w if initial is None else op.sqrt_w * initial)

    # Correction-equation iteration (Jacobi-Davidson style): the projected
    # operator at the Rayleigh shift stays definite and well conditioned on
    # the orthogonal complement, so the inner solves are cheap even when
    # nearly singular shifted systems would not be.  A solve that stalls
    # above HARD_RESIDUAL raises.
    residual, phi, lam, total_cg = _jd_refine(op, phi, tol, MAX_ITER)
    if residual > HARD_RESIDUAL:
        raise RuntimeError(
            f"eigen-solver failed: residual {residual:.3e} after "
            f"{total_cg} inner iterations")

    psi = phi / op.sqrt_w
    mass = grid.integrate(psi * geo.sqrt_det)
    if mass < 0:
        psi, mass = -psi, -mass
    psi = psi / mass
    return ConformalEigenpair(
        lam=lam,
        psi=psi,
        residual=residual,
        iterations=total_cg,
        matvecs=op.matvecs,
        min_psi=float(psi.min()),
        normalization=float(grid.integrate(psi * geo.sqrt_det)),
    )


def conformal_rescale(metric, weight: np.ndarray, grid: Grid):
    """Grid values of w^(4/(n-2)) g for a positive weight function w."""
    geo_ref = metric if isinstance(metric, np.ndarray) else metric.sample_matrix(grid)
    n = geo_ref.shape[0]
    if np.any(weight <= 0):
        raise ValueError("conformal weight must be positive")
    factor = weight ** (4.0 / (n - 2))
    return geo_ref * factor


@dataclass
class VariationEstimate:
    """Stencil estimates of eigenvalue derivatives along g0 + t h."""

    first: float
    second: float
    first_error: float
    second_error: float
    lambdas: dict


def _stencil_values(metric: FourierMetric, h: FourierSymTensor, grid: Grid,
                    steps) -> dict:
    values = {}
    # walk outward from t = 0; each solve starts from the Lagrange
    # extrapolation of psi through the (up to) three nearest solved points
    guesses = {}
    for t in sorted(steps, key=abs):
        gt = metric if t == 0.0 else metric + t * h
        near = sorted(guesses, key=lambda u: abs(u - t))[:3]
        start = sum(np.prod([(t - v) / (u - v) for v in near if v != u]) * guesses[u]
                    for u in near) if near else None
        pair = conformal_eigenvalue(gt, grid, tol=VARIATION_TOL, initial=start)
        values[t] = pair.lam
        guesses[t] = pair.psi
    return values


def eigenvalue_variations(
    metric: FourierMetric,
    h: FourierSymTensor,
    grid: Grid,
) -> VariationEstimate:
    """First and second derivative of lambda(g + t h) at t = 0.

    Uses the symmetric 5-point stencil at a base step and at half the step;
    the half-step values refine the estimate (Richardson on the h^4 error
    model) and their disagreement is reported as the empirical error.
    """
    # keep products resolved: amplitude * harmonics must stay below the
    # grid Nyquist tail at the eigen-solver tolerance
    s = min(0.04, 0.02 / max(h.max_amp(), 1e-9))
    pts = sorted({c * s for c in (-2, -1, -0.5, -0.25, 0.25, 0.5, 1, 2)} | {0.0})
    vals = _stencil_values(metric, h, grid, pts)

    def five_point(step):
        lm2, lm1, l0, lp1, lp2 = (
            vals[-2 * step], vals[-step], vals[0.0], vals[step], vals[2 * step]
        )
        d1 = (lm2 - 8 * lm1 + 8 * lp1 - lp2) / (12 * step)
        d2 = (-lp2 + 16 * lp1 - 30 * l0 + 16 * lm1 - lm2) / (12 * step**2)
        return d1, d2

    d1_a, d2_a = five_point(s)
    d1_b, d2_b = five_point(s / 2)
    # both stencils have O(s^4) truncation: Richardson-extrapolate
    first = (16 * d1_b - d1_a) / 15
    second = (16 * d2_b - d2_a) / 15
    return VariationEstimate(
        first=first,
        second=second,
        first_error=abs(d1_b - d1_a) / 15,
        second_error=abs(d2_b - d2_a) / 15,
        lambdas=vals,
    )


def tt_quadratic_form(h: FourierSymTensor) -> float:
    """Predicted second variation on a flat background.

    -(n-2)/(8(n-1)) times the mean of <Lich h_tt, h_tt> over the torus
    (the eigenvalue normalization fixes the unit-volume convention, hence
    the division by the torus volume).
    """
    n = h.n
    tt = tt_split(h)[0]
    quad = float(np.real(lichnerowicz_flat(tt).l2_inner(tt)))
    vol = (2 * np.pi) ** n
    return -((n - 2) / (8.0 * (n - 1))) * quad / vol
