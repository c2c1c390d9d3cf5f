"""The Jacobi-Davidson eigen-solver that LOBPCG replaced, kept as a test
reference.

`refine(op, phi, tol, maxiter)` has the signature and the return value
(residual, phi, lam, iterations) of `eigen._lobpcg`, so a test can run
`conformal_eigenvalue` on it by monkeypatching `eigen._lobpcg`.  Each outer
step solves the correction equation (I - x x^T)(A - lam)(I - x x^T) z = -r
by preconditioned CG to a relative 1e-4 and counts the CG steps as its
iterations; its shift follows the Rayleigh quotient, so it can settle on an
excited eigenpair.
"""

import numpy as np


def refine(op, phi: np.ndarray, tol: float, maxiter: int):
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
        z, its = pcg(corr_op, corr_pre, -r, 1e-4, min(maxiter, 400))
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


def pcg(apply_a, precond, b, tol, maxiter):
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

