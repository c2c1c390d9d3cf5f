"""Dolbeault realization of the flat-torus Dirac operator on T^(2m).

Spinor fields live in the antiholomorphic form model of
spinstab.clifford.CYCliffordModel; the Dirac operator assembled from the
Clifford action is compared with sqrt(2) (dbar - dbar*) on the whole stack
of modes at once, one (d, d) symbol per mode.

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
from .fields import _freq_array
from .operators import dirac_symbol


def dbar_symbols(model: CYCliffordModel, modes) -> tuple:
    """(K, d, d) stacks of the mode matrices of dbar = sum_j (dzbar_j ^)
    d/dzbar_j and of the codifferential in the identity's sign convention
    (the negative of the L2 adjoint of dbar), for a (K, 2m) mode array."""
    k = np.asarray(modes, dtype=float)
    create = np.array(model._create)
    scale = 1.0 / np.sqrt(2.0)
    return (np.einsum("kj,jst->kst", scale * (1j * k[:, 0::2] - k[:, 1::2]), create),
            np.einsum("kj,jts->kst", scale * (1j * k[:, 0::2] + k[:, 1::2]), create.conj()))


def dirac_vs_dolbeault(m: int, cutoff: int = 2) -> dict:
    """Operator-difference and adjointness diagnostics over all modes.

    Returns the max entry of |Dirac - sqrt2 (dbar - dbar*)| over the mode
    box, the max Clifford-relation-style residual of the square against
    |k|^2, and the discrete adjointness defect showing dbar* = -(adjoint).
    """
    model = cy_clifford_model(m)
    modes = np.concatenate([_freq_array(2 * m, cutoff), np.zeros((1, 2 * m), dtype=np.int64)])
    db, dbs = dbar_symbols(model, modes)
    comb = np.sqrt(2.0) * (db - dbs)
    k2 = (modes * modes).sum(axis=1).astype(float)[:, None, None]
    return {
        "operator_residual": float(np.abs(dirac_symbol(model.gamma, modes) - comb).max()),
        "square_residual": float(np.abs(comb @ comb - k2 * np.eye(model.dim)).max()),
        # dbar* must be the negative adjoint: (dbar)^H == -dbar*
        "adjoint_defect": float(np.abs(np.swapaxes(db.conj(), 1, 2) + dbs).max()),
        "adjoint_sign": -1,
        "modes": (2 * cutoff + 1) ** (2 * m),
    }
