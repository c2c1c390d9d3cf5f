"""Flat-background spectral operators: twisted Dirac, TT splitting, covers.

Everything in this module is diagonal in Fourier modes, so operators act
exactly on the stored coefficients; no grids are involved.  The flat kernel
is proved at every frequency at once, not scanned mode by mode: constraint
rows linear in k whose symbol squares to |k|^2 G (_symbol_margin) kill every
nonzero frequency when Re G is positive definite, and the rank margin is the
exact bound sqrt(lambda_min / lambda_max) of Re G (Lawson and Michelsohn,
Spin Geometry, ch. II section 5: the Dirac symbol squares to -|k|^2).
"""

from __future__ import annotations

import numpy as np

from ..clifford import GammaRep, embedding_rows, spinor_embed
from .fields import FourierSymTensor, ModeField


def spinor_embed_field(h: FourierSymTensor, rep: GammaRep) -> ModeField:
    """Mode-wise tensor-to-twisted-spinor embedding h_ij -> h_ij (g_i s0) e^j
    with the unit spinor s0 (clifford.spinor_embed on the amplitude stack)."""
    return ModeField._build_sorted(h.n, h.keys, spinor_embed(h.amps, rep))


def dirac_symbol(gamma, k) -> np.ndarray:
    """sum_a i k_a gamma_a; Hermitian for skew-adjoint generators.  Batched
    over the leading axes of k."""
    return 1j * np.einsum("...a,ast->...st", np.asarray(k, dtype=float), gamma)


def twisted_dirac(phi: ModeField, rep: GammaRep) -> ModeField:
    """Clifford contraction of the flat derivative on the spinor slot.

    Acts as identity on the coframe slot.  The symbol is Hermitian, so the
    operator is its own formal adjoint (checked discretely in tests).
    """
    return phi._on_keys(phi.amps @ np.swapaxes(dirac_symbol(rep.gamma, phi.keys), 1, 2))


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
    """Basis of a flat kernel, with its rank margin: sqrt(lambda_min /
    lambda_max) of Re G in _symbol_margin's identity, the least singular
    value of the constraint rows at any k != 0 relative to the largest."""

    def __init__(self, basis, rank_margin: float):
        super().__init__(basis)
        self.rank_margin = rank_margin


def stability_kernel_basis(n: int, rep: GammaRep, cutoff: int = 2) -> KernelBasis:
    """Basis of the real h with tr h = 0, div h = 0, Dirac(embed h) = 0.

    The Dirac rows alone kill every nonzero frequency (_symbol_margin: the
    Clifford relation pushed through the embedding), so the kernel is the
    constant traceless tensors at every frequency; `cutoff` bounds nothing.
    """
    margin = _symbol_margin(_dirac_rows(n, rep), "Dirac")
    return KernelBasis([FourierSymTensor.from_constant(m)
                        for m in _constant_traceless_basis(n)], margin)


def _dirac_rows(n: int, rep: GammaRep) -> np.ndarray:
    """The (n, n spin_dim, m) stack D_a of the Dirac rows on the columns e_s
    of _sym_basis(n), i sum_a k_a D_a at mode k: D_a[(j, b), s] =
    ((e_s^T G) gamma_a^T)[j, b], G the rows gamma_i sigma0."""
    basis = _sym_basis(n)  # (m, n, n)
    emb = np.einsum("sij,ic->sjc", basis, embedding_rows(rep))
    return np.einsum("sjc,abc->ajbs", emb, np.array(rep.gamma)).reshape(n, -1, len(basis))


def _symbol_margin(rows: np.ndarray, name: str) -> float:
    """Rank margin of the rows R(k) = sum_a k_a R_a (rows: the (n, r, m)
    stack R_a) once the symbol identity proves they kill every k != 0.

    If R_a^H R_b + R_b^H R_a = 2 delta_ab G, then R(k)^H R(k) = |k|^2 G.  A
    real field's +-k pair (x + iy, x - iy), x and y real, has R(k)x = R(k)y
    = 0, so |k|^2 x^T Re(G) x = 0 (Im G is antisymmetric): x = y = 0 when
    Re G is positive definite.  The tables are Gaussian integers, so the
    identity is checked exactly; AssertionError when it or Re G > 0 fails.
    """
    n, _, m = rows.shape
    flat = np.moveaxis(rows, 0, 1).reshape(-1, n * m)
    gram = np.swapaxes((flat.conj().T @ flat).reshape(n, m, n, m), 1, 2)  # [a, b] = R_a^H R_b
    lam = np.linalg.eigvalsh(gram[0, 0].real)  # ascending
    if not (np.array_equal(gram + np.swapaxes(gram, 0, 1),
                           2 * np.eye(n)[:, :, None, None] * gram[0, 0]) and lam[0] > 0):
        raise AssertionError(f"{name} rows break the symbol identity (least eigenvalue "
                             f"of Re G {lam[0]:.3e}): operator bug")
    return float(np.sqrt(lam[0] / lam[-1]))


def _sym_basis(n: int) -> np.ndarray:
    """(m, n, n) stack of e_ij + e_ji (e_ii on the diagonal), i <= j row-major."""
    iu, ju = np.triu_indices(n)
    out = np.zeros((len(iu), n, n))
    out[range(len(iu)), iu, ju] = out[range(len(iu)), ju, iu] = 1.0
    return out


def _constant_traceless_basis(n: int):
    """Orthonormal basis (Frobenius) of traceless symmetric n x n matrices."""
    iu, ju = np.triu_indices(n)
    mats = [e / np.sqrt(2.0) for e in _sym_basis(n)[iu != ju]]
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
