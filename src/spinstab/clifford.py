"""Exact Clifford algebra representations and the tensor-to-spinor embedding.

Gamma matrices are built by the iterated Pauli tensor-product construction,
scaled so that every generator is skew-adjoint and squares to -Id.  All
entries are Gaussian integers times units, so the defining relations can be
checked with exact equality in complex double precision; the chirality
element is one ordered product of generators.

Spinors, symmetric 2-tensors and twisted spinors (one spinor per coframe
index) are plain arrays.  The embedding h -> sum_ij h_ij gamma_i sigma0 (x)
e^j is one matrix product with the rows gamma_i sigma0, batched over the
leading axes of h, so pointwise tensors and Fourier mode stacks share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)


class OrientationError(RuntimeError):
    """Orientation conventions disagree: a displayed Hodge dual differs from
    the computed one, or no chirality is annihilated where one must be."""


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _anticommutator_residual(gamma) -> float:
    """Max entry of |{gamma_i, gamma_j} + 2 delta_ij Id| over all pairs."""
    g = np.asarray(gamma)
    delta = np.eye(len(g))[:, :, None, None] * np.eye(g.shape[1])
    return float(np.abs(g[:, None] @ g + g @ g[:, None] + 2.0 * delta).max())


@dataclass(frozen=True, eq=False)
class GammaRep:
    """A realization of Cl(n) by complex matrices.

    gamma[i] @ gamma[j] + gamma[j] @ gamma[i] == -2 delta_ij Id holds exactly,
    and gamma[i].conj().T == -gamma[i].
    """

    n: int
    spin_dim: int
    gamma: tuple

    def relation_residual(self) -> float:
        return _anticommutator_residual(self.gamma)

    def skew_residual(self) -> float:
        return max(float(np.abs(g.conj().T + g).max()) for g in self.gamma)


def build_gamma_rep(n: int) -> GammaRep:
    """Skew-adjoint gamma matrices for Cl(n), spinor dimension 2^(n//2).

    For odd n the last generator is the scaled product of the even ones
    (chirality element), which anticommutes with them and squares to -Id.
    """
    if not 2 <= n <= 12:
        raise ValueError(f"dimension must be in [2, 12], got {n}")
    m = n // 2
    hermitian = []
    for k in range(m):
        pre = [PAULI_3] * k
        post = [np.eye(2, dtype=complex)] * (m - k - 1)
        hermitian.append(_kron_chain(pre + [PAULI_1] + post))
        hermitian.append(_kron_chain(pre + [PAULI_2] + post))
    if n % 2 == 1:
        hermitian.append(_chirality(hermitian))
    gamma = tuple(1j * h for h in hermitian)
    rep = GammaRep(n=n, spin_dim=2**m, gamma=gamma)
    if rep.relation_residual() != 0.0 or rep.skew_residual() != 0.0:
        raise AssertionError("gamma construction violated Clifford relations")
    return rep


def _chirality(factors) -> np.ndarray:
    """(-i)^m times the ordered product of the 2m factors."""
    out = np.eye(len(factors[0]), dtype=complex)
    for f in factors:
        out = out @ f
    return (-1j) ** (len(factors) // 2) * out


def chirality_operator(rep: GammaRep) -> np.ndarray:
    """Hermitian involution anticommuting with all generators (even n only)."""
    if rep.n % 2 != 0:
        raise ValueError("chirality element exists only in even dimensions")
    return _chirality([-1j * g for g in rep.gamma])


def unit_spinor(rep: GammaRep) -> np.ndarray:
    """The first standard basis spinor, a (spin_dim,) array."""
    v = np.zeros(rep.spin_dim, dtype=complex)
    v[0] = 1.0
    return v


def embedding_rows(rep: GammaRep, sigma0: np.ndarray | None = None) -> np.ndarray:
    """The (n, spin_dim) rows gamma_i sigma0 (sigma0 the unit spinor by default)."""
    sig = unit_spinor(rep) if sigma0 is None else sigma0
    return np.stack([g @ sig for g in rep.gamma])


def spinor_embed(h: np.ndarray, rep: GammaRep, sigma0: np.ndarray | None = None) -> np.ndarray:
    """Embed symmetric 2-tensors (..., n, n) as twisted spinors (..., n, spin_dim).

    Component j is sum_i h_ij gamma_i sigma0: one spinor per coframe index.
    The embedding is an isometry for twisted_inner and commutes with
    differentiation on flat backgrounds.
    """
    if h.shape[-2:] != (rep.n, rep.n):
        raise ValueError(f"tensor shape {h.shape} is not (..., {rep.n}, {rep.n})")
    return np.swapaxes(h, -1, -2) @ embedding_rows(rep, sigma0)


def twisted_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real (bundle-metric) part of the Hermitian pairing of twisted spinors,
    summed over the coframe index.  The real part is what the tensor inner
    product <h, h~> equals; the imaginary part is frame noise that cancels
    only for h == h~."""
    return float(np.real(np.sum(a * b.conj())))


def plane_rotation(n: int, a: int, b: int, theta: float) -> np.ndarray:
    q = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    q[a, a] = c
    q[b, b] = c
    q[b, a] = s
    q[a, b] = -s
    return q


def spin_lift_plane(rep: GammaRep, a: int, b: int, theta: float) -> np.ndarray:
    """Spin group element S with S gamma(v) S^-1 = gamma(Q v) for the plane
    rotation Q = plane_rotation(n, a, b, theta)."""
    r = rep.gamma[a] @ rep.gamma[b]
    return np.cos(theta / 2) * np.eye(rep.spin_dim) + np.sin(theta / 2) * r


def rotate_twisted(psi: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply the (spin, coframe) action: component j -> sum_l Q_lj S psi_l."""
    return np.einsum("lj,ls->js", q, psi @ s.T)


# ---------------------------------------------------------------------------
# Clifford model on the antiholomorphic exterior algebra of C^m
# ---------------------------------------------------------------------------

class CYCliffordModel:
    """Clifford action of R^(2m) on forms of type (0, k) over C^m.

    Basis states are indexed by subsets of {0..m-1} (bitmask order); state I
    represents the normalized form (dzbar_{i1}/sqrt 2) ^ ... ^ (dzbar_{ik}/sqrt 2).
    In this orthonormal basis the action of the real coordinate vectors
        e_{2j}   = create_j - annihilate_j
        e_{2j+1} = i (create_j + annihilate_j)
    has exact integer/unit entries: the sqrt(2) factors of the defining
    formula  X . a = sqrt2 (pi01(X*) ^ a  -  pi01(X) _| a)  cancel against
    the basis normalization.
    """

    def __init__(self, m: int):
        if not 1 <= m <= 4:
            raise ValueError(f"complex dimension must be in [1, 4], got {m}")
        self.m = m
        self.n = 2 * m
        self.dim = 2**m
        self._create = [self._creation_matrix(j) for j in range(m)]
        gamma = []
        for j in range(m):
            c = self._create[j]
            a = c.conj().T
            gamma.append(c - a)
            gamma.append(1j * (c + a))
        self.gamma = tuple(gamma)
        self.degree = np.array([bin(i).count("1") for i in range(self.dim)])
        self.even_mask = self.degree % 2 == 0

    def _creation_matrix(self, j: int) -> np.ndarray:
        c = np.zeros((self.dim, self.dim), dtype=complex)
        bit = 1 << j
        for i in range(self.dim):
            if i & bit:
                continue
            sign = (-1) ** bin(i & (bit - 1)).count("1")
            c[i | bit, i] = sign
        return c

    def act_on_form(self, x: np.ndarray, coeffs: dict) -> dict:
        """The displayed wedge/contraction formula on dzbar-basis coefficients.

        `coeffs` maps frozenset index sets I to the coefficient of dzbar_I.
        Returns the coefficients of sqrt2 (pi01(x*) ^ a - pi01(x) _| a).
        """
        x = np.asarray(x, dtype=float)
        wedge = 0.5 * (x[0::2] + 1j * x[1::2])  # pi01(x*), coefficient of dzbar_j
        hook = x[0::2] - 1j * x[1::2]           # pi01(x), coefficient of d/dzbar_j
        out: dict = {}
        rt2 = np.sqrt(2.0)
        for idx, val in coeffs.items():
            members = sorted(idx)
            for j in range(self.m):
                if j not in idx and wedge[j] != 0:
                    sign = (-1) ** sum(1 for i in members if i < j)
                    tgt = frozenset(idx | {j})
                    out[tgt] = out.get(tgt, 0.0) + rt2 * wedge[j] * sign * val
                if j in idx and hook[j] != 0:
                    sign = (-1) ** sum(1 for i in members if i < j)
                    tgt = frozenset(idx - {j})
                    out[tgt] = out.get(tgt, 0.0) - rt2 * hook[j] * sign * val
        return out

    def form_matrix(self, axis: int) -> np.ndarray:
        """Matrix of e_axis acting through act_on_form in the dzbar basis."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        x = np.zeros(self.n)
        x[axis] = 1.0
        for col in range(self.dim):
            idx = frozenset(j for j in range(self.m) if col & (1 << j))
            out = self.act_on_form(x, {idx: 1.0})
            for tgt, val in out.items():
                row = sum(1 << j for j in tgt)
                mat[row, col] = val
        return mat

    def normalization(self) -> np.ndarray:
        """Diagonal rescaling from dzbar-basis to orthonormal-basis components."""
        return np.diag(np.sqrt(2.0) ** self.degree)

    def relation_residual(self) -> float:
        return _anticommutator_residual(self.gamma)

    def parity_residual(self) -> float:
        """Generators must swap even and odd form degrees (the S+/S- split):
        the max entry between two states of equal degree parity."""
        same = self.even_mask[:, None] == self.even_mask
        return float(np.abs(np.asarray(self.gamma)[:, same]).max())

    def intertwiner(self, rep: GammaRep):
        """Unitary U with U gamma_model U^-1 = gamma_rep, plus residual."""
        if rep.n != self.n:
            raise ValueError("dimension mismatch")
        d = self.dim
        blocks = []
        for g_model, g_rep in zip(self.gamma, rep.gamma):
            # g_rep @ U - U @ g_model = 0  as a linear map on U
            blocks.append(np.kron(g_rep, np.eye(d)) - np.kron(np.eye(d), g_model.T))
        stack = np.vstack(blocks)
        _, s, vh = np.linalg.svd(stack)
        u = vh[-1].conj().reshape(d, d)
        # unitarize (the kernel vector is unique up to phase/scale)
        w, _, zh = np.linalg.svd(u)
        u = w @ zh
        resid = max(
            float(np.abs(g_rep @ u - u @ g_model).max())
            for g_model, g_rep in zip(self.gamma, rep.gamma)
        )
        return u, resid


def cy_clifford_model(m: int) -> CYCliffordModel:
    """Build the (0,k)-form Clifford model on C^m and self-check it."""
    model = CYCliffordModel(m)
    if model.relation_residual() != 0.0:
        raise AssertionError("form-model Clifford relation failed")
    if model.parity_residual() != 0.0:
        raise AssertionError("form-model parity splitting failed")
    return model
