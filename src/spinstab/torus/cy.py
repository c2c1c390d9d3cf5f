"""Dolbeault realization of the flat-torus Dirac operator on T^(2m).

Spinor fields live in the antiholomorphic form model of
spinstab.clifford.CYCliffordModel; the Dirac operator assembled from the
Clifford action is compared mode by mode with sqrt(2) (dbar - dbar*).

Sign convention: with the complex structure z_j = x_(2j) + i x_(2j+1), the
identity holds when dbar* is taken with the sign OPPOSITE to the L2 formal
adjoint of dbar (equivalently, the Clifford Dirac equals
sqrt(2) (dbar + dbar_adjoint)).  The codifferential here follows the
identity's convention and `adjoint_sign` records the relation, verified
discretely, instead of silently flipping a sign.
"""

from __future__ import annotations

import numpy as np

from ..clifford import CYCliffordModel, cy_clifford_model
from .fields import _freq_box
from .operators import dirac_symbol


def dbar_symbol(model: CYCliffordModel, k) -> np.ndarray:
    """Mode matrix of dbar = sum_j (dzbar_j ^) d/dzbar_j."""
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for j in range(model.m):
        kx, ky = k[2 * j], k[2 * j + 1]
        c_dag = model._create[j]
        out += (1.0 / np.sqrt(2.0)) * (1j * kx - ky) * c_dag
    return out


def dbar_star_symbol(model: CYCliffordModel, k) -> np.ndarray:
    """Mode matrix of the codifferential in the identity's sign convention
    (the negative of the L2 adjoint of dbar)."""
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for j in range(model.m):
        kx, ky = k[2 * j], k[2 * j + 1]
        c = model._create[j].conj().T
        out += (1.0 / np.sqrt(2.0)) * (1j * kx + ky) * c
    return out


def dirac_vs_dolbeault(m: int, cutoff: int = 2) -> dict:
    """Operator-difference and adjointness diagnostics over all modes.

    Returns the max entry of |Dirac - sqrt2 (dbar - dbar*)| over the mode
    box, the max Clifford-relation-style residual of the square against
    |k|^2, and the discrete adjointness defect showing dbar* = -(adjoint).
    """
    model = cy_clifford_model(m)
    worst = 0.0
    worst_sq = 0.0
    adj_defect = 0.0
    eye = np.eye(model.dim)
    modes = list(_freq_box(2 * m, cutoff)) + [(0,) * (2 * m)]
    for k, d_cliff in zip(modes, dirac_symbol(model.gamma, modes)):
        db = dbar_symbol(model, k)
        dbs = dbar_star_symbol(model, k)
        comb = np.sqrt(2.0) * (db - dbs)
        worst = max(worst, float(np.abs(d_cliff - comb).max()))
        k2 = float(sum(v * v for v in k))
        worst_sq = max(worst_sq, float(np.abs(comb @ comb - k2 * eye).max()))
        # dbar* must be the negative adjoint: (dbar)^H == -dbar*
        adj_defect = max(adj_defect, float(np.abs(db.conj().T + dbs).max()))
    return {
        "operator_residual": worst,
        "square_residual": worst_sq,
        "adjoint_defect": adj_defect,
        "adjoint_sign": -1,
        "modes": (2 * cutoff + 1) ** (2 * m),
    }
