"""Flat-background spectral operators: twisted Dirac, TT splitting, covers.

Everything in this module is diagonal in Fourier modes, so operators act
exactly on the stored coefficients; no grids are involved.
"""

from __future__ import annotations

import numpy as np

from ..clifford import GammaRep, unit_spinor
from .fields import FourierSymTensor, ModeField, _freq_array


def spinor_embed_field(h: FourierSymTensor, rep: GammaRep) -> ModeField:
    """Mode-wise tensor-to-twisted-spinor embedding h_ij -> h_ij (g_i s0) e^j
    with the unit spinor s0."""
    sig = unit_spinor(rep)
    gam_sig = np.stack([g @ sig.components for g in rep.gamma])  # (n, spin_dim)
    return ModeField._build(h.n, h.keys, np.swapaxes(h.amps, 1, 2) @ gam_sig)


def dirac_symbol(gamma, k) -> np.ndarray:
    """sum_a i k_a gamma_a; Hermitian for skew-adjoint generators.  Batched
    over the leading axes of k."""
    return 1j * np.einsum("...a,ast->...st", np.asarray(k, dtype=float), gamma)


def twisted_dirac(phi: ModeField, rep: GammaRep) -> ModeField:
    """Clifford contraction of the flat derivative on the spinor slot.

    Acts as identity on the coframe slot.  The symbol is Hermitian, so the
    operator is its own formal adjoint (checked discretely in tests).
    """
    return phi._like(phi.keys, phi.amps @ np.swapaxes(dirac_symbol(rep.gamma, phi.keys), 1, 2))


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
    n, a, kv = h.n, h.amps, h.keys.astype(float)
    k2 = (kv * kv).sum(axis=1)
    tt = tt_mode_projection(a, kv)
    trace = np.trace(a, axis1=1, axis2=2)
    # at k != 0, u solves tr(h - u I) = (h - u I)(k, k) / |k|^2, the
    # condition for h - u I to have a pure Lie (k x + x k) non-TT part
    kak = np.einsum("mi,mij,mj->m", kv, a, kv, optimize=True)
    u = np.where(k2 == 0.0, trace / n, (trace - kak / np.maximum(k2, 1.0)) / (n - 1))
    conf = u[:, None, None] * np.eye(n)
    lie = np.where((k2 == 0.0)[:, None, None], 0.0, a - tt - conf)
    return tuple(FourierSymTensor.from_stack(n, h.keys, m) for m in (tt, lie, conf))


def tt_project(h: FourierSymTensor) -> FourierSymTensor:
    """The TT part of tt_split(h), without the other two parts."""
    return FourierSymTensor.from_stack(h.n, h.keys, tt_mode_projection(h.amps, h.keys))


def tt_defect(h: FourierSymTensor) -> float:
    """Max amplitude of trace and divergence over all modes."""
    return max(0.0, h.trace_flat().max_amp(),
               *(f.max_amp() for f in h.divergence_flat()))


def tt_mode_projection(a: np.ndarray, kvec) -> np.ndarray:
    """Project a symmetric amplitude matrix at frequency k onto the TT
    amplitudes (A k = 0, tr A = 0): P a P minus its trace along P.  At
    k = 0, P is the identity and this is the traceless part.  Batched over
    the leading axes of a (..., n, n) and kvec (..., n)."""
    kv = np.asarray(kvec, dtype=float)
    k2 = np.maximum((kv * kv).sum(axis=-1), 1.0)[..., None, None]
    p = np.eye(kv.shape[-1]) - kv[..., :, None] * kv[..., None, :] / k2
    a = p @ a @ p
    ratio = a.trace(axis1=-2, axis2=-1) / p.trace(axis1=-2, axis2=-1)
    return a - ratio[..., None, None] * p


class KernelBasis(list):
    """Basis of a flat kernel found by a mode scan, with the scan's rank
    margin: the least sqrt(mu_min / mu_max) over the scanned Gram matrices,
    the smallest singular value relative to the largest."""

    def __init__(self, basis, rank_margin: float):
        super().__init__(basis)
        self.rank_margin = rank_margin


def stability_kernel_basis(n: int, rep: GammaRep, cutoff: int = 2) -> KernelBasis:
    """Basis of band-limited h with tr h = 0, div h = 0, Dirac(embed h) = 0.

    The tensor-to-spinor embedding is injective only over the reals (all
    gamma_i sigma0 sit in one chirality), so each +-k mode pair is analyzed
    as a real-linear system on (Re h(k), Im h(k)).  On the flat torus every
    nonzero pair comes out trivial and the kernel is exactly the constant
    traceless tensors.
    """
    extra, margin = _nonzero_mode_kernel_dim(n, cutoff, _stability_constraints(n, rep))
    if extra:
        raise AssertionError(
            f"nonzero-frequency kernel of dimension {extra}: operator bug")
    return KernelBasis([FourierSymTensor.from_constant(m)
                        for m in _constant_traceless_basis(n)], margin)


def _stability_constraints(n: int, rep: GammaRep):
    """The scan's constraint builder for stability_kernel_basis.

    The complex constraint matrix at mode k has the rows tr e, k.e and
    (e^T G) dirac_symbol(gamma, k)^T, G the rows gamma_i sigma0, on the
    columns e of _sym_basis.  The returned builder stacks, for each row k
    of a (K, n) mode array, the real system on (Re h(k), Im h(k)) that also
    imposes the constraints at -k, where a real field carries x - i y.
    """
    basis = np.array(_sym_basis(n))  # (m, n, n)
    gam_sig = np.stack([g @ unit_spinor(rep).components for g in rep.gamma])
    # dirac[a, (j, b), s] = ((e_s^T G) gamma_a^T)[j, b]; the Dirac rows at k
    # are i sum_a k_a dirac[a]
    emb = np.einsum("sij,ic->sjc", basis, gam_sig)
    dirac = np.einsum("sjc,abc->ajbs", emb, np.array(rep.gamma)).reshape(n, -1)

    def constraint_matrices(kv):
        rows = _trace_div_rows(kv, basis).astype(complex)
        return np.concatenate([rows, 1j * (kv @ dirac).reshape(len(kv), -1, len(basis))],
                              axis=1)

    def real_systems(kv):
        blocks = []
        for m, sgn in ((constraint_matrices(kv), 1.0), (constraint_matrices(-kv), -1.0)):
            blocks.append(np.concatenate([m.real, sgn * -m.imag], axis=2))
            blocks.append(np.concatenate([m.imag, sgn * m.real], axis=2))
        return np.concatenate(blocks, axis=1)

    return real_systems


def _trace_div_rows(kv: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(K, 1 + n, m) stack of the rows tr e and k.e on the columns e of
    basis (m, n, n), one matrix per row k of kv (K, n)."""
    trace = np.broadcast_to(np.trace(basis, axis1=1, axis2=2), (len(kv), 1, len(basis)))
    return np.concatenate([trace, np.einsum("ki,sij->kjs", kv, basis)], axis=1)


_SCAN_CHUNK = 128


def _nonzero_mode_kernel_dim(n: int, cutoff: int, constraints) -> tuple:
    """Summed null dimension of the real constraint matrices over the
    nonzero frequencies |k|_inf <= cutoff, one per +-k pair, and the least
    sqrt(mu_min / mu_max) over their Gram matrices (the rank margin).

    `constraints` maps a (K, n) float array of modes to the (K, rows, cols)
    stack of their matrices.  Modes go in chunks of _SCAN_CHUNK, so the
    whole box (about 125 MB of matrices for the 1093 modes of T^7 at
    cutoff 1) is never held at once.  Ranks come from the eigenvalues mu of
    the Gram matrices A^T A, exact integers for the integer tables used
    here: a direction is null when mu <= 1e-10 max(1, mu_max), that is
    sigma <= 1e-5 max(1, sigma_max).
    """
    modes = _freq_array(n, cutoff).astype(float)
    extra, margin = 0, 1.0
    for start in range(0, len(modes), _SCAN_CHUNK):
        a = constraints(modes[start:start + _SCAN_CHUNK])
        mu = np.linalg.eigvalsh(np.matmul(a.transpose(0, 2, 1), a))  # ascending
        top = mu[:, -1:]
        extra += int(np.sum(mu <= 1e-10 * np.maximum(1.0, top)))
        ratio = np.maximum(mu[:, 0], 0.0) / np.maximum(top[:, 0], np.finfo(float).tiny)
        margin = min(margin, float(np.sqrt(ratio.min())))
    return extra, margin


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
    fold = np.array([int(c) for c in fold], dtype=np.int64)
    if len(fold) != h.n or (fold < 1).any():
        raise ValueError(f"bad fold counts {tuple(fold.tolist())}")
    return h._like(h.keys * fold, h.amps)


def cover_lichnerowicz(h: FourierSymTensor, fold) -> FourierSymTensor:
    """Flat Lichnerowicz on the covering torus (wavenumbers k_j / fold_j)."""
    fold = np.array([int(c) for c in fold], dtype=np.int64)
    return h._scaled(((h.keys / fold) ** 2).sum(axis=1))


def cover_l2_inner(a: FourierSymTensor, b: FourierSymTensor, fold) -> float:
    """L2 pairing on the covering torus of volume (2 pi)^n prod(fold)."""
    scale = float(np.prod([int(c) for c in fold]))
    return float(np.real(a.l2_inner(b))) * scale
