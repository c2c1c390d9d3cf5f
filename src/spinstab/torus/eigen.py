"""Principal eigenvalue of the conformal Laplacian -Lap + c_n S on tori.

The operator is discretized in divergence form on the collocation grid and
conjugated by the volume weight, which makes it exactly symmetric.  The
lowest eigenpair comes from single-vector LOBPCG (Knyazev, "Toward the
optimal preconditioned eigensolver: locally optimal block preconditioned
conjugate gradient method", SIAM J. Sci. Comput. 23, 2001): each step
minimizes the Rayleigh quotient over span{x, T r, p} (T the preconditioner
below, r the residual, p the previous step's direction) by a Rayleigh-Ritz
step.  The Rayleigh quotient only falls, so the iteration moves toward the
lowest eigenvalue; an iteration whose shift follows the Rayleigh quotient
(Jacobi-Davidson) can settle on an excited eigenpair instead.  A solve
whose residual ends above HARD_RESIDUAL raises; a solve stops early when its
best residual has not halved in STALL_STEPS steps.  The first and
second t-derivatives of the eigenvalue along metric lines g + t h are
estimated from symmetric 5-point stencils with an empirically chosen step;
each stencil solve starts from the Lagrange extrapolation of the (up to) five
nearest solved eigenfunctions.

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
STALL_STEPS = 100  # a solve whose best residual has not halved in this many steps stops
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
    iterations: int  # LOBPCG steps
    matvecs: int  # operator applications: one per step and one at the start
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
        # the derivative and the flux along a length-1 axis are exact zeros,
        # so they are formed on the axes of length > 1 only
        active = [a for a, m in enumerate(self.grid.shape) if m > 1]
        self._ik = self.grid.half_symbols[0]
        if len(active) == self.n:
            self.wginv = geo.ginv * self.w  # (n, n) + shape
        else:
            self.wginv = geo.ginv[np.ix_(active, active)] * self.w
            self._ik = self._ik[active]
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


def _orthonormalize(v, av, basis, scratch) -> bool:
    """Remove from v (and from av = A v alongside, if given) the components
    along the orthonormal basis vectors and scale to |v| = 1, in place;
    False when nothing of v is left.  The second pass restores the
    orthogonality that one classical Gram-Schmidt pass loses to
    cancellation."""
    size = float(np.linalg.norm(v))
    for _ in range(2):
        for b, ab in basis:
            c = float(np.vdot(b, v))
            v -= np.multiply(c, b, out=scratch)
            if av is not None:
                av -= np.multiply(c, ab, out=scratch)
    norm = float(np.linalg.norm(v))
    if norm <= 1e-8 * size:
        return False
    v /= norm
    if av is not None:
        av /= norm
    return True


def _lobpcg(op: "_ConformalOperator", phi: np.ndarray, tol: float, maxiter: int):
    """Single-vector LOBPCG for the lowest eigenpair of op.apply_sym.

    Each step is a Rayleigh-Ritz step on span{x, T r, p}: T the
    preconditioner, r the residual, p the previous step's direction.  A
    direction with nothing left after orthogonalization is dropped for that
    step.  Returns (residual, phi, lam, steps) after the first step with
    residual <= tol, after maxiter steps, or after STALL_STEPS steps in which
    the best residual since the first step has not halved; one matvec per
    step and one at the start.
    """
    x = phi / np.linalg.norm(phi)
    ax = op.apply_sym(x)
    lam = float(np.vdot(x, ax))
    r = np.empty_like(x)
    p = ap = None
    steps = marked = 0
    mark = np.inf
    while True:
        np.subtract(ax, np.multiply(lam, x, out=r), out=r)
        residual = float(np.linalg.norm(r))
        # from the first step on: a cold start's first steps can raise the residual
        if steps and residual <= 0.5 * mark:
            mark, marked = residual, steps
        if residual <= tol or steps == maxiter or steps - marked == STALL_STEPS:
            return residual, x, lam, steps
        steps += 1
        w = op.precondition(r)
        # r is free from here on: it is the scratch of the orthogonalization
        basis = [(x, ax)]
        if p is not None and _orthonormalize(p, ap, basis, r):
            basis.append((p, ap))
        if _orthonormalize(w, None, basis, r):
            basis.append((w, op.apply_sym(w)))
        if len(basis) == 1:
            p = None
            continue
        # V^T A V of the orthonormal basis V, from dot products
        gram = np.array([[float(np.vdot(u, av)) for _, av in basis] for u, _ in basis])
        c = np.linalg.eigh(0.5 * (gram + gram.T))[1][:, 0]
        # p <- c1 p + c2 w (c1 times the one direction kept, if one was
        # dropped) and x <- c0 x + p, in the arrays of the basis
        (p, ap), *rest = basis[1:]
        p *= c[1]
        ap *= c[1]
        for w, aw in rest:
            p += np.multiply(c[2], w, out=w)
            ap += np.multiply(c[2], aw, out=aw)
        x *= c[0]
        x += p
        ax *= c[0]
        ax += ap
        norm = float(np.linalg.norm(x))
        x /= norm
        ax /= norm
        lam = float(np.vdot(x, ax))


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

    # a solve that ends above HARD_RESIDUAL raises
    residual, phi, lam, steps = _lobpcg(op, phi, tol, MAX_ITER)
    if residual > HARD_RESIDUAL:
        raise RuntimeError(
            f"eigen-solver failed: residual {residual:.3e} after {steps} iterations")

    psi = phi / op.sqrt_w
    mass = grid.integrate(psi * geo.sqrt_det)
    if mass < 0:
        psi, mass = -psi, -mass
    psi = psi / mass
    return ConformalEigenpair(
        lam=lam,
        psi=psi,
        residual=residual,
        iterations=steps,
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
    # extrapolation of psi through the (up to) five nearest solved points
    guesses = {}
    for t in sorted(steps, key=abs):
        gt = metric if t == 0.0 else metric + t * h
        near = sorted(guesses, key=lambda u: abs(u - t))[:5]
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
