"""Cross-product algebra of R^7 and its field extension over the 7-torus.

The fundamental 3-form, its dual 4-form, the induced cross product and the
octonionic Clifford model R + TM are all integer-valued in the standard
coframe, so every pointwise identity here is checked exactly.  Fields on
T^7 carry complex Fourier amplitudes against the same integer tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .clifford import OrientationError
from .exterior import ExteriorAlgebra
from .torus.fields import ModeField
from .torus.operators import (KernelBasis, _constant_traceless_basis, _nonzero_mode_kernel_dim,
                              _sym_basis, _trace_div_rows)

EXT7 = ExteriorAlgebra(7)

# fundamental 3-form in the standard coframe (0-indexed axes, sign)
PHI_TERMS = [
    ((0, 1, 2), 1), ((0, 3, 4), 1), ((0, 5, 6), 1), ((1, 3, 5), 1),
    ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1),
]
STAR_PHI_TERMS = [
    ((3, 4, 5, 6), 1), ((1, 2, 5, 6), 1), ((1, 2, 3, 4), 1), ((0, 2, 4, 6), 1),
    ((0, 2, 3, 5), -1), ((0, 1, 4, 5), -1), ((0, 1, 3, 6), -1),
]


def _coeffs_from_terms(terms, p):
    out = np.zeros(EXT7.dim(p), dtype=np.int64)
    for t, s in terms:
        out[EXT7.index[p][t]] = s
    return out


@dataclass(frozen=True, eq=False)
class G2Structure:
    """Fundamental forms, all integer-exact.

    Tables derived from the forms are computed on first use and held on the
    structure itself, so they live and die with it.
    """

    phi3: np.ndarray        # compact 35-vector, int
    star_phi4: np.ndarray   # compact 35-vector, int
    phi_tensor: np.ndarray  # full antisymmetric (7,7,7), int

    @cached_property
    def star_phi_tensor(self) -> np.ndarray:
        """*phi as a full antisymmetric (7,7,7,7) array."""
        return EXT7.to_tensor(self.star_phi4, 4)

    @cached_property
    def embedding_matrix(self) -> np.ndarray:
        """(35, 49) matrix of sym_to_three_form on row-major flattened h."""
        cols = []
        for i in range(7):
            for j in range(7):
                e = np.zeros((7, 7), dtype=np.int64)
                e[i, j] = 1
                cols.append([int(v) for v in sym_to_three_form(self, e)])
        return np.array(cols, dtype=float).T

    def cross(self, x, y) -> np.ndarray:
        """P(x, y)_k = phi(x, y, e_k); bilinear and antisymmetric."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != (7,) or y.shape != (7,):
            raise ValueError("cross product needs 7-dimensional vectors")
        return np.einsum("ijk,i,j->k", self.phi_tensor, x, y)

    def phi_value(self, x, y, z):
        return np.einsum("ijk,i,j,k->", self.phi_tensor, np.asarray(x),
                         np.asarray(y), np.asarray(z))


def standard_g2_structure() -> G2Structure:
    phi3 = _coeffs_from_terms(PHI_TERMS, 3)
    star4 = _coeffs_from_terms(STAR_PHI_TERMS, 4)
    computed = EXT7.star(phi3, 3)
    if not np.array_equal(computed, star4):
        raise OrientationError(
            "Hodge star of the fundamental 3-form does not match the "
            "displayed dual; orientation conventions are inconsistent")
    return G2Structure(phi3=phi3, star_phi4=star4,
                       phi_tensor=EXT7.to_tensor(phi3, 3))


def cross_identity_residuals(g2: G2Structure, x, y, z) -> dict:
    """Exact residuals of the four cross-product identities at one triple.

        (1) P(X,Y) + P(Y,X) = 0
        (2) <P(X,Y), P(X,Z)> = |X|^2 <Y,Z> - <X,Y><X,Z>
        (3) P(X, P(X,Y)) = -|X|^2 Y + <X,Y> X
        (4) X _| (Y _| *phi) = -P(X,Y) _| phi + X* ^ Y*
    """
    x, y, z = (np.asarray(v, dtype=np.int64) for v in (x, y, z))
    star_t = g2.star_phi_tensor
    pxy = g2.cross(x, y)
    r1 = int(np.abs(pxy + g2.cross(y, x)).max())
    r2 = int(abs(pxy @ g2.cross(x, z) - ((x @ x) * (y @ z) - (x @ y) * (x @ z))))
    r3 = int(np.abs(g2.cross(x, pxy) + (x @ x) * y - (x @ y) * x).max())
    lhs4 = np.einsum("i,j,jikl->kl", x, y, star_t)
    rhs4 = -np.einsum("m,mkl->kl", pxy, g2.phi_tensor) + np.outer(x, y) - np.outer(y, x)
    r4 = int(np.abs(lhs4 - rhs4).max())
    return {1: r1, 2: r2, 3: r3, 4: r4}


def verify_cross_identities(g2: G2Structure, seed: int = 0, samples: int = 100) -> dict:
    """Exhaustive check over all basis tuples plus seeded integer triples.

    The identities are multilinear-polynomial, so exact integer checks are
    conclusive on any spanning family.
    """
    basis = list(np.eye(7, dtype=np.int64))
    worst = {1: 0, 2: 0, 3: 0, 4: 0}
    for x in basis:
        for y in basis:
            for z in basis:
                res = cross_identity_residuals(g2, x, y, z)
                for key in worst:
                    worst[key] = max(worst[key], res[key])
    rng = np.random.default_rng(seed)
    worst_rand = {1: 0, 2: 0, 3: 0, 4: 0}
    for _ in range(samples):
        x, y, z = (rng.integers(-4, 5, size=7) for _ in range(3))
        res = cross_identity_residuals(g2, x, y, z)
        for key in worst_rand:
            worst_rand[key] = max(worst_rand[key], res[key])
    return {"basis": worst, "random": worst_rand}


# -- spinor model -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OctonionSpinor:
    """Element (a, Y) of the rank-8 spinor model R + TM."""

    scalar: object
    vector: np.ndarray


SIGMA0 = OctonionSpinor(1, np.zeros(7, dtype=np.int64))


def clifford_act(g2: G2Structure, x, s: OctonionSpinor) -> OctonionSpinor:
    """X . (a, Y) = (-<X, Y>, a X + P(X, Y))."""
    x = np.asarray(x)
    return OctonionSpinor(-(x @ s.vector), s.scalar * x + g2.cross(x, s.vector))


def clifford_relation_residual(g2: G2Structure, seed: int = 0, samples: int = 100) -> int:
    """max |X.(X.s) + |X|^2 s| over the basis and seeded integer data."""
    rng = np.random.default_rng(seed)
    cases = [(e, SIGMA0) for e in np.eye(7, dtype=np.int64)]
    for _ in range(samples):
        x = rng.integers(-4, 5, size=7)
        s = OctonionSpinor(int(rng.integers(-4, 5)), rng.integers(-4, 5, size=7))
        cases.append((x, s))
    worst = 0
    for x, s in cases:
        xxs = clifford_act(g2, x, clifford_act(g2, x, s))
        norm = int(np.asarray(x) @ np.asarray(x))
        worst = max(worst, int(abs(xxs.scalar + norm * s.scalar)),
                    int(np.abs(xxs.vector + norm * s.vector).max()))
    return worst


def triple_pairing_residual(g2: G2Structure, vectors) -> int:
    """phi(X,Y,Z) + <X.Y.Z.sigma0, sigma0> must vanish identically."""
    worst = 0
    for x in vectors:
        for y in vectors:
            for z in vectors:
                s = clifford_act(g2, x, clifford_act(g2, y, clifford_act(g2, z, SIGMA0)))
                worst = max(worst, int(abs(g2.phi_value(x, y, z) + s.scalar)))
    return worst


# -- type decomposition of 3-forms -----------------------------------------

class ThreeFormTypes:
    """Exact projectors onto the 1, 7 and 27 dimensional pieces of Lambda^3.

    Their denominators are |phi|^2 = 7 and |*(phi ^ e^a)|^2 = 4, so they are
    held as the integer 35 x 35 matrices scale * P, scale = lcm(7, 4) = 28.
    """

    def __init__(self, g2: G2Structure):
        self.g2 = g2
        phi = np.asarray(g2.phi3, dtype=np.int64)
        # image of alpha -> *(phi ^ alpha) on the coframe basis, one row each
        rows = []
        for a in range(7):
            e = np.zeros(EXT7.dim(1), dtype=np.int64)
            e[a] = 1
            rows.append(EXT7.star(EXT7.wedge(g2.phi3, 3, e, 1), 4))
        seven = np.array(rows, dtype=np.int64)
        gram = seven @ seven.T
        diag = int(gram[0, 0])
        if not np.array_equal(gram, diag * np.eye(7, dtype=np.int64)):
            raise OrientationError("coframe images under *(phi ^ .) not orthogonal")
        phi_norm_sq = int(phi @ phi)
        self.scale = math.lcm(phi_norm_sq, diag)
        p1 = self.scale // phi_norm_sq * np.outer(phi, phi)
        p7 = self.scale // diag * (seven.T @ seven)
        self.scaled = (p1, p7, self.scale * np.eye(len(phi), dtype=np.int64) - p1 - p7)

    def project(self, alpha):
        """Return (p1, p7, p27) with exact rational arithmetic."""
        alpha = np.array([Fraction(v) for v in alpha], dtype=object)
        p1, p7 = (m.astype(object) @ alpha / self.scale for m in self.scaled[:2])
        return p1, p7, alpha - p1 - p7

    def wedge_conditions(self, alpha):
        """(alpha ^ phi, alpha ^ *phi): both vanish exactly on the 27-part."""
        a = np.asarray(alpha, dtype=object)
        w6 = EXT7.wedge(a, 3, np.asarray(self.g2.phi3, dtype=object), 3)
        w7 = EXT7.wedge(a, 3, np.asarray(self.g2.star_phi4, dtype=object), 4)
        return w6, w7

    def projector_ranks(self):
        """Ranks of the three projectors on the 35-dimensional space."""
        return tuple(int(np.linalg.matrix_rank(m / self.scale, tol=1e-9))
                     for m in self.scaled)

    def projector_algebra_residual(self) -> Fraction:
        """Exact check that the three maps are idempotent and mutually
        annihilating (0 when both hold); they resolve the identity by
        construction of the 27-part as the complement."""
        s = self.scale
        worst = Fraction(0)
        for a, pa in enumerate(self.scaled):
            for b, pb in enumerate(self.scaled):
                gap = pb @ pa - (s * pa if a == b else 0)
                worst = max(worst, Fraction(int(np.abs(gap).max()), s * s))
        return worst


def sym_to_three_form(g2: G2Structure, h: np.ndarray):
    """h_ij e^i ^ (e_j _| phi) as a compact 3-form coefficient vector.

    Maps the identity to 3 phi and traceless tensors into the 27-type piece.
    Exact for integer or Fraction input.
    """
    h = np.asarray(h)
    dim3 = EXT7.dim(3)
    out = np.zeros(dim3, dtype=object)
    for i in range(7):
        for j in range(7):
            v = h[i, j]
            if v == 0:
                continue
            hook = EXT7.hook1(j, 3) @ g2.phi3  # 2-form
            w = EXT7.wedge1(i, 2) @ hook
            out = out + v * w.astype(object)
    return out


def sym_to_three_form_rank(g2: G2Structure) -> int:
    """Rank of the embedding restricted to traceless symmetric tensors."""
    traceless = np.array([m.reshape(-1) for m in _constant_traceless_basis(7)])  # (27, 49)
    return int(np.linalg.matrix_rank(g2.embedding_matrix @ traceless.T, tol=1e-9))


# -- fields over T^7 ---------------------------------------------------------

def _stacked(table, p):
    """(7, rows, cols) stack of the integer matrices table(ax, p), ax = 0..6."""
    return np.stack([table(ax, p) for ax in range(7)])


class FormField(ModeField):
    """p-form field on T^7: per mode a compact coefficient vector."""

    def __init__(self, p: int, modes: dict):
        self.p = p
        super().__init__(7, modes)

    def _amp_shape(self) -> tuple:
        return (EXT7.dim(self.p),)

    def _like(self, keys, amps) -> "FormField":
        return _form(self.p, keys, amps)

    def _symbol(self, table, p: int) -> np.ndarray:
        """sum_a k_a table(a, p) applied to each mode's amplitude."""
        return np.einsum("ma,aij,mj->mi", self.keys, _stacked(table, p), self.amps,
                         optimize=True)

    def exterior_d(self) -> "FormField":
        return _form(self.p + 1, self.keys, 1j * self._symbol(EXT7.wedge1, self.p))

    def codifferential(self) -> "FormField":
        """-sum_k e_k _| d_k on the flat torus."""
        return _form(self.p - 1, self.keys, -1j * self._symbol(EXT7.hook1, self.p))

    def star(self) -> "FormField":
        return _form(7 - self.p, self.keys, EXT7.star(self.amps, self.p))


def _form(p: int, keys: np.ndarray, amps: np.ndarray) -> FormField:
    f = FormField._build(7, keys, amps)
    f.p = p
    return f


def sym_field_to_three_form(g2: G2Structure, h) -> FormField:
    """Apply the tensor-to-3-form embedding mode by mode to a T^7 field."""
    # embedding_matrix is (35, 49), on row-major flattened amplitude matrices
    return _form(3, h.keys, h.amps.reshape(-1, 49) @ g2.embedding_matrix.T)


# Octonion-spinor fields, valued in (R + TM) (x) T*M, are ModeFields on T^7
# with an (8, 7) array per mode: row 0 the scalar part, rows 1-7 the vector
# part, and the column the coframe index.

def octonion_dirac_by_action(g2: G2Structure, h) -> ModeField:
    """Dirac of the embedded tensor, computed from the Clifford action:
    per coframe index j, sum_k e_k . (0, d_k h_(.)j)."""
    modes = {}
    for k, hk in h.mode_matrices().items():
        out = np.zeros((8, 7), dtype=complex)
        for ax, kv in enumerate(k):
            if kv == 0:
                continue
            dh = 1j * kv * hk  # d_ax h
            for j in range(7):
                w = dh[:, j]
                # e_ax . (0, w) = (-w_ax, P(e_ax, w))
                out[0, j] += -w[ax]
                out[1:, j] += np.einsum(
                    "ik,i->k", g2.phi_tensor[ax], w).astype(complex)
        modes[k] = out
    return ModeField(7, modes)


def octonion_dirac_closed_form(g2: G2Structure, h) -> ModeField:
    """The displayed closed form (div h, -h_(ij,k) P(e_i, e_k) (x) e^j)."""
    ik = 1j * h.keys  # d_k h_ij = ik[:, k] h_ij
    div = -np.einsum("mi,mij->mj", ik, h.amps)
    vec = -np.einsum("mk,mij,ikp->mpj", ik, h.amps, g2.phi_tensor, optimize=True)
    return ModeField._build(7, h.keys, np.concatenate([div[:, None], vec], axis=1))


def codifferential_identity_residual(g2: G2Structure, h) -> float:
    """d* of the embedded 3-form equals its algebraic expansion for all h:

        d* Psi(h) = (div h) _| phi + h_(ij,k) e^i ^ (P(e_j, e_k))^flat
    """
    lhs = sym_field_to_three_form(g2, h).codifferential()
    return (lhs - _codifferential_expansion(g2, h)).max_amp()


def _codifferential_expansion(g2: G2Structure, h) -> FormField:
    """The right-hand side of codifferential_identity_residual, a 2-form."""
    ik = 1j * h.keys  # d_k h_ij = ik[:, k] h_ij
    div = -np.einsum("mi,mij->mj", ik, h.amps)  # (div h)_j
    hook_phi = _stacked(EXT7.hook1, 3) @ g2.phi3  # (7, 21), row j: e_j _| phi
    # h_(ij,k) e^i ^ P(e_j, e_k)^flat
    pvec = np.einsum("mk,mij,jkq->miq", ik, h.amps, g2.phi_tensor, optimize=True)
    wedge = _stacked(EXT7.wedge1, 1)  # (7, 21, 7)
    return _form(2, h.keys, div @ hook_phi
                 + np.einsum("miq,ibq->mb", pvec, wedge, optimize=True))


def star_d_identity_residual(g2: G2Structure, h) -> float:
    """*d of the embedded 3-form equals its algebraic expansion for all h:

        *d Psi(h) = -h_(ii,k) e_k _| *phi + h_(ik,k) e_i _| *phi
                    - h_(ij,k) e^j ^ (e_k _| (e_i _| *phi))
    """
    lhs = sym_field_to_three_form(g2, h).exterior_d().star()
    return (lhs - _star_d_expansion(g2, h)).max_amp()


def _star_d_expansion(g2: G2Structure, h) -> FormField:
    """The right-hand side of star_d_identity_residual, a 3-form."""
    ik = 1j * h.keys  # d_k h_ij = ik[:, k] h_ij
    hook_star = _stacked(EXT7.hook1, 4) @ g2.star_phi4  # (7, 35), row i: e_i _| *phi
    tr_d = ik * np.trace(h.amps, axis1=1, axis2=2)[:, None]  # h_(ii,k)
    div_d = np.einsum("mk,mik->mi", ik, h.amps)  # h_(ik,k)
    # third[i, k, j] = e^j ^ (e_k _| (e_i _| *phi))
    third = np.einsum("jbq,kqr,ir->ikjb", _stacked(EXT7.wedge1, 2),
                      _stacked(EXT7.hook1, 3), hook_star, optimize=True)
    return _form(3, h.keys, (div_d - tr_d) @ hook_star
                 - np.einsum("mk,mij,ikjb->mb", ik, h.amps, third, optimize=True))


def harmonic_constraint_basis() -> KernelBasis:
    """Mode-wise solutions of tr h = 0, div h = 0, P-contraction = 0 on T^7.

    On the flat torus the joint constraints kill every nonzero frequency
    (this is the flat-kernel statement for the octonionic model), so the
    returned basis consists of the 27 constant traceless tensors; nonzero
    modes up to cutoff 1 are scanned to confirm they contribute nothing.
    """
    extra, margin = _nonzero_mode_kernel_dim(7, 1, _harmonic_constraints())
    if extra:
        raise AssertionError(
            f"unexpected nonconstant harmonic solutions ({extra})")
    return KernelBasis(_constant_traceless_basis(7), margin)


def _harmonic_constraints():
    """The scan's constraint builder for harmonic_constraint_basis: a (K, 7)
    mode array to the (K, 57, 28) real stack of the rows tr e, k.e and
    h_ij k_k phi_ikm on the columns e of _sym_basis(7)."""
    basis = np.array(_sym_basis(7))
    phi = standard_g2_structure().phi_tensor.astype(float)
    # contraction[k, (m, j), s] = sum_i e_s[i, j] phi[i, k, m]
    contraction = np.einsum("sij,ikm->kmjs", basis, phi).reshape(7, -1)

    def constraints(kv):
        return np.concatenate([_trace_div_rows(kv, basis),
                               (kv @ contraction).reshape(len(kv), -1, len(basis))], axis=1)

    return constraints
