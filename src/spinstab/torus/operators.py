"""Flat-background spectral operators: twisted Dirac, TT splitting, covers.

Everything in this module is diagonal in Fourier modes, so operators act
exactly on the stored coefficients; no grids are involved.
"""

from __future__ import annotations

import numpy as np

from ..clifford import GammaRep, unit_spinor
from .fields import FourierSymTensor, ModeField, _freq_box


def spinor_embed_field(h: FourierSymTensor, rep: GammaRep) -> ModeField:
    """Mode-wise tensor-to-twisted-spinor embedding h_ij -> h_ij (g_i s0) e^j
    with the unit spinor s0."""
    sig = unit_spinor(rep)
    gam_sig = np.stack([g @ sig.components for g in rep.gamma])  # (n, spin_dim)
    return ModeField(h.n, {k: m.T @ gam_sig for k, m in h.mode_matrices().items()})


def dirac_symbol(gamma, k) -> np.ndarray:
    """sum_a i k_a gamma_a; Hermitian for skew-adjoint generators."""
    mat = np.zeros(gamma[0].shape, dtype=complex)
    for a, ka in enumerate(k):
        if ka != 0:
            mat += 1j * ka * gamma[a]
    return mat


def twisted_dirac(phi: ModeField, rep: GammaRep) -> ModeField:
    """Clifford contraction of the flat derivative on the spinor slot.

    Acts as identity on the coframe slot.  The symbol is Hermitian, so the
    operator is its own formal adjoint (checked discretely in tests).
    """
    return ModeField(phi.n, {k: a @ dirac_symbol(rep.gamma, k).T
                             for k, a in phi.modes.items()})


def lichnerowicz_flat(h: FourierSymTensor) -> FourierSymTensor:
    """On a flat torus the curvature term vanishes: just the rough Laplacian."""
    return h.rough_laplacian_flat()


def tt_split(h: FourierSymTensor):
    """Unique decomposition h = tt + lie + conf on the flat torus.

    tt is transverse traceless, lie = L_X(flat) for a vector field X, and
    conf = u * flat.  tt is the L2-orthogonal projection of h onto the TT
    subspace (the lie and conf parts are mutually oblique in general).
    Returns (tt, lie, conf) as FourierSymTensor.
    """
    n = h.n
    tt_modes, lie_modes, conf_modes = {}, {}, {}
    eye = np.eye(n)
    for k, hk in h.mode_matrices().items():
        kv = np.array(k, dtype=float)
        k2 = float(kv @ kv)
        t = np.trace(hk)
        if k2 == 0.0:
            conf = (t / n) * eye
            tt = hk - conf
            lie = np.zeros_like(hk)
        else:
            # u solves tr(h - u I) = (h - u I)(k, k) / |k|^2, the condition
            # for h - u I to have a pure Lie (k x + x k) non-TT part
            conf = ((t - (kv @ hk @ kv) / k2) / (n - 1)) * eye
            tt = tt_mode_projection(hk, k)
            lie = hk - tt - conf
        tt_modes[k], lie_modes[k], conf_modes[k] = tt, lie, conf
    return tuple(FourierSymTensor.from_mode_matrices(n, m)
                 for m in (tt_modes, lie_modes, conf_modes))


def tt_project(h: FourierSymTensor) -> FourierSymTensor:
    return tt_split(h)[0]


def tt_defect(h: FourierSymTensor) -> float:
    """Max amplitude of trace and divergence over all modes."""
    return max(0.0, h.trace_flat().max_amp(),
               *(f.max_amp() for f in h.divergence_flat()))


def tt_mode_projection(a: np.ndarray, kvec) -> np.ndarray:
    """Project a symmetric amplitude matrix at frequency k onto the TT
    amplitudes (A k = 0, tr A = 0): P a P minus its trace along P."""
    kv = np.array(kvec, dtype=float)
    p = np.eye(len(kv)) - np.outer(kv, kv) / (kv @ kv)
    a = p @ a @ p
    return a - np.trace(a) / np.trace(p) * p


def _mode_constraint_matrix(n: int, rep: GammaRep, gam_sig: np.ndarray, k) -> np.ndarray:
    """Complex constraint matrix (trace, divergence, Dirac) on Sym_C at mode k."""
    kv = np.array(k, dtype=float)
    sym = dirac_symbol(rep.gamma, k)
    rows = []
    for e in _sym_basis(n):
        cons = [np.trace(e)]
        cons.extend(kv @ e)
        dpsi = (e.T @ gam_sig) @ sym.T
        cons.extend(dpsi.reshape(-1))
        rows.append(np.array(cons, dtype=complex))
    return np.array(rows).T  # (n_constraints, n_sym)


def stability_kernel_basis(n: int, rep: GammaRep, cutoff: int = 2):
    """Basis of band-limited h with tr h = 0, div h = 0, Dirac(embed h) = 0.

    The tensor-to-spinor embedding is injective only over the reals (all
    gamma_i sigma0 sit in one chirality), so each +-k mode pair is analyzed
    as a real-linear system on (Re h(k), Im h(k)).  On the flat torus every
    nonzero pair comes out trivial and the kernel is exactly the constant
    traceless tensors.
    """
    sig = unit_spinor(rep)
    gam_sig = np.stack([g @ sig.components for g in rep.gamma])

    def real_system(k):
        m_plus = _mode_constraint_matrix(n, rep, gam_sig, k)
        m_minus = _mode_constraint_matrix(n, rep, gam_sig, tuple(-v for v in k))
        # real field: amplitude x + i y at k forces x - i y at -k
        blocks = []
        for m, sgn in ((m_plus, 1.0), (m_minus, -1.0)):
            blocks.append(np.hstack([m.real, sgn * -m.imag]))
            blocks.append(np.hstack([m.imag, sgn * m.real]))
        return np.vstack(blocks)

    extra = _nonzero_mode_kernel_dim(n, cutoff, real_system)
    if extra:
        raise AssertionError(
            f"nonzero-frequency kernel of dimension {extra}: operator bug")
    return [FourierSymTensor.from_constant(m) for m in _constant_traceless_basis(n)]


def _nonzero_mode_kernel_dim(n: int, cutoff: int, constraints) -> int:
    """Summed null dimension of the per-mode constraint matrices
    `constraints(k)` over the nonzero frequencies, one per +-k pair.

    One SVD per mode: a batched SVD over the whole box would hold every
    matrix at once (about 125 MB for the 1093 modes of T^7 at cutoff 1).
    """
    extra = 0
    for k in _freq_box(n, cutoff):
        s = np.linalg.svd(constraints(k), compute_uv=False)
        extra += int(np.sum(s <= 1e-10 * max(1.0, s[0])))
    return extra


def _sym_basis(n: int):
    out = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            out.append(e)
    return out


def _constant_traceless_basis(n: int):
    """Orthonormal basis (Frobenius) of traceless symmetric n x n matrices."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(e)
    for i in range(1, n):
        d = np.zeros(n)
        d[:i] = 1.0
        d[i] = -float(i)
        d /= np.linalg.norm(d)
        mats.append(np.diag(d))
    return mats


def cover_pullback(h: FourierSymTensor, fold) -> FourierSymTensor:
    """Pull back along the torus self-cover with the given fold counts.

    The covering torus has periods 2 pi fold_j; in its own integer frequency
    lattice the mode k of the base becomes the mode (k_j fold_j).
    """
    fold = tuple(int(c) for c in fold)
    if len(fold) != h.n or any(c < 1 for c in fold):
        raise ValueError(f"bad fold counts {fold}")
    return h.map_modes(lambda k, a: (tuple(v * c for v, c in zip(k, fold)), a))


def cover_lichnerowicz(h: FourierSymTensor, fold) -> FourierSymTensor:
    """Flat Lichnerowicz on the covering torus (wavenumbers k_j / fold_j)."""
    fold = tuple(int(c) for c in fold)
    return h.map_modes(lambda k, a: (k, sum((v / c) ** 2 for v, c in zip(k, fold)) * a))


def cover_l2_inner(a: FourierSymTensor, b: FourierSymTensor, fold) -> float:
    """L2 pairing on the covering torus of volume (2 pi)^n prod(fold)."""
    scale = float(np.prod([int(c) for c in fold]))
    return float(np.real(a.l2_inner(b))) * scale
