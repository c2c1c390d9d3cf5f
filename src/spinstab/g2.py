"""Cross-product algebra of R^7 and its field extension over the 7-torus.

The fundamental 3-form, its dual 4-form, the induced cross product and the
octonionic Clifford model R + TM are all integer-valued in the standard
coframe, so every pointwise identity here is checked exactly.  The cross
product, phi and the Clifford action broadcast over leading axes, so each
identity family is one array expression on a whole batch of integer inputs.
Tables derived from the forms (the dual tensor, the integer table of the
tensor-to-3-form embedding) are built once per structure, on first use.
Fields on T^7 carry complex Fourier amplitudes against the same integer
tables: d, d* and the expansions contract whole mode stacks with the
(7, rows, cols) wedge and interior-product stacks of EXT7, views of its one
signed wedge table.  Cross-product identity (2) in symbol form settles the
flat harmonic constraints at every frequency (harmonic_constraint_basis).
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
from .torus.operators import KernelBasis, _constant_traceless_basis, _sym_basis, _symbol_margin

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
        """Integer (35, 49) table of sym_to_three_form: column 7 i + j is
        e^i ^ (e_j _| phi), the image of h = e_i (x) e_j."""
        table = np.einsum("ibc,jcd,d->bij", EXT7.wedge1(2), EXT7.hook1(3), self.phi3)
        return table.reshape(EXT7.dim(3), 49)

    def cross(self, x, y) -> np.ndarray:
        """P(x, y)_k = phi(x, y, e_k); bilinear and antisymmetric, batched
        over the leading axes of x and y."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[-1:] != (7,) or y.shape[-1:] != (7,):
            raise ValueError("cross product needs 7-dimensional vectors")
        return np.einsum("ijk,...i,...j->...k", self.phi_tensor, x, y, optimize=True)

    def phi_value(self, x, y, z):
        """phi(x, y, z), batched over the leading axes."""
        return np.einsum("ijk,...i,...j,...k->...", self.phi_tensor, np.asarray(x),
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


def _dot(a, b):
    """<a, b> over the last axis, batched over the leading ones."""
    return np.einsum("...i,...i->...", a, b)


def cross_identity_residuals(g2: G2Structure, x, y, z) -> dict:
    """Exact residuals of the four cross-product identities, each the max
    over a batch of triples (the leading axes of x, y and z).

        (1) P(X,Y) + P(Y,X) = 0
        (2) <P(X,Y), P(X,Z)> = |X|^2 <Y,Z> - <X,Y><X,Z>
        (3) P(X, P(X,Y)) = -|X|^2 Y + <X,Y> X
        (4) X _| (Y _| *phi) = -P(X,Y) _| phi + X* ^ Y*
    """
    x, y, z = (np.asarray(v, dtype=np.int64) for v in (x, y, z))
    pxy = g2.cross(x, y)
    xx, xy = _dot(x, x), _dot(x, y)
    r1 = np.abs(pxy + g2.cross(y, x)).max()
    r2 = np.abs(_dot(pxy, g2.cross(x, z)) - (xx * _dot(y, z) - xy * _dot(x, z))).max()
    r3 = np.abs(g2.cross(x, pxy) + xx[..., None] * y - xy[..., None] * x).max()
    lhs4 = np.einsum("...i,...j,jikl->...kl", x, y, g2.star_phi_tensor)
    outer = x[..., :, None] * y[..., None, :]
    rhs4 = -np.einsum("...m,mkl->...kl", pxy, g2.phi_tensor) + outer - np.swapaxes(outer, -1, -2)
    return {1: int(r1), 2: int(r2), 3: int(r3), 4: int(np.abs(lhs4 - rhs4).max())}


def verify_cross_identities(g2: G2Structure, seed: int = 0, samples: int = 100) -> dict:
    """Exhaustive check over all basis triples plus seeded integer triples.

    The identities are multilinear-polynomial, so exact integer checks are
    conclusive on any spanning family.
    """
    e = np.eye(7, dtype=np.int64)
    x, y, z = (e[idx.reshape(-1)] for idx in np.indices((7, 7, 7)))
    rand = np.random.default_rng(seed).integers(-4, 5, size=(samples, 3, 7))
    return {"basis": cross_identity_residuals(g2, x, y, z),
            "random": cross_identity_residuals(g2, rand[:, 0], rand[:, 1], rand[:, 2])}


# -- spinor model -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OctonionSpinor:
    """Element (a, Y) of the rank-8 spinor model R + TM."""

    scalar: object
    vector: np.ndarray


SIGMA0 = OctonionSpinor(1, np.zeros(7, dtype=np.int64))


def clifford_act(g2: G2Structure, x, s: OctonionSpinor) -> OctonionSpinor:
    """X . (a, Y) = (-<X, Y>, a X + P(X, Y)), batched over the leading axes
    of x and of the spinor's parts."""
    x = np.asarray(x)
    return OctonionSpinor(-_dot(x, s.vector),
                          np.asarray(s.scalar)[..., None] * x + g2.cross(x, s.vector))


def clifford_relation_residual(g2: G2Structure, seed: int = 0, samples: int = 100) -> int:
    """max |X.(X.s) + |X|^2 s| over the basis and seeded integer data."""
    # per sample: X, then the scalar and the vector of s
    draws = np.random.default_rng(seed).integers(-4, 5, size=(samples, 15))
    x = np.concatenate([np.eye(7, dtype=np.int64), draws[:, :7]])
    s = OctonionSpinor(np.concatenate([np.ones(7, dtype=np.int64), draws[:, 7]]),
                       np.concatenate([np.zeros((7, 7), dtype=np.int64), draws[:, 8:]]))
    xxs = clifford_act(g2, x, clifford_act(g2, x, s))
    norm = _dot(x, x)
    return max(int(np.abs(xxs.scalar + norm * s.scalar).max()),
               int(np.abs(xxs.vector + norm[:, None] * s.vector).max()))


def triple_pairing_residual(g2: G2Structure, vectors) -> int:
    """phi(X,Y,Z) + <X.Y.Z.sigma0, sigma0> must vanish identically; checked
    on every triple drawn from `vectors`."""
    v = np.asarray(vectors)
    x, y, z = np.broadcast_arrays(v[:, None, None], v[None, :, None], v[None, None, :])
    s = clifford_act(g2, x, clifford_act(g2, y, clifford_act(g2, z, SIGMA0)))
    return int(np.abs(g2.phi_value(x, y, z) + s.scalar).max())


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
        seven = EXT7.star(EXT7.wedge(g2.phi3, 3, np.eye(7, dtype=np.int64), 1), 4)
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
    Exact for integer or Fraction input: the sum runs on Python objects.
    """
    return g2.embedding_matrix.astype(object) @ np.asarray(h, dtype=object).reshape(49)


def sym_to_three_form_rank(g2: G2Structure) -> int:
    """Rank of the embedding restricted to traceless symmetric tensors."""
    traceless = np.array([m.reshape(-1) for m in _constant_traceless_basis(7)])  # (27, 49)
    return int(np.linalg.matrix_rank(g2.embedding_matrix @ traceless.T, tol=1e-9))


# -- fields over T^7 ---------------------------------------------------------

class FormField(ModeField):
    """p-form field on T^7: per mode a compact coefficient vector."""

    def __init__(self, p: int, modes: dict):
        self.p = p
        super().__init__(7, modes)

    def _amp_shape(self) -> tuple:
        return (EXT7.dim(self.p),)

    def _like(self, keys, amps) -> "FormField":
        return _form(self.p, keys, amps)

    def _symbol(self, stack: np.ndarray) -> np.ndarray:
        """sum_a k_a stack[a] applied to each mode's amplitude."""
        return np.einsum("ma,aij,mj->mi", self.keys, stack, self.amps, optimize=True)

    def exterior_d(self) -> "FormField":
        return _form(self.p + 1, self.keys, 1j * self._symbol(EXT7.wedge1(self.p)))

    def codifferential(self) -> "FormField":
        """-sum_k e_k _| d_k on the flat torus."""
        return _form(self.p - 1, self.keys, -1j * self._symbol(EXT7.hook1(self.p)))

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
    # dh[m, k, j] = d_k h_(.)j at mode m, the vector part of (0, d_k h_(.)j)
    dh = 1j * h.keys[:, :, None, None] * np.swapaxes(h.amps, 1, 2)[:, None]
    e = np.eye(7, dtype=np.int64)[:, None, :]  # e_k, broadcast over j
    act = clifford_act(g2, e, OctonionSpinor(0, dh))
    return ModeField._build(7, h.keys, np.concatenate(
        [act.scalar.sum(axis=1)[:, None], np.swapaxes(act.vector.sum(axis=1), 1, 2)], axis=1))


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
    hook_phi = EXT7.hook1(3) @ g2.phi3  # (7, 21), row j: e_j _| phi
    # h_(ij,k) e^i ^ P(e_j, e_k)^flat
    pvec = np.einsum("mk,mij,jkq->miq", ik, h.amps, g2.phi_tensor, optimize=True)
    wedge = EXT7.wedge1(1)  # (7, 21, 7)
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
    hook_star = EXT7.hook1(4) @ g2.star_phi4  # (7, 35), row i: e_i _| *phi
    tr_d = ik * np.trace(h.amps, axis1=1, axis2=2)[:, None]  # h_(ii,k)
    div_d = np.einsum("mk,mik->mi", ik, h.amps)  # h_(ik,k)
    # third[i, k, j] = e^j ^ (e_k _| (e_i _| *phi))
    third = np.einsum("jbq,kqr,ir->ikjb", EXT7.wedge1(2), EXT7.hook1(3), hook_star,
                      optimize=True)
    return _form(3, h.keys, (div_d - tr_d) @ hook_star
                 - np.einsum("mk,mij,ikjb->mb", ik, h.amps, third, optimize=True))


def harmonic_constraint_basis(g2: G2Structure) -> KernelBasis:
    """Solutions of tr h = 0, div h = 0, P-contraction = 0 on T^7, with the
    P-contraction h_ij k_k phi_ikm of the structure g2.

    The divergence rows stacked on the P-contraction rows obey the symbol
    identity of operators._symbol_margin: on column j of h, v = h_(.)j, they
    read <k, v> and P(v, k), and |P(v, k)|^2 + <k, v>^2 = |k|^2 |v|^2 is
    cross-product identity (2).  So the flat constraints kill every nonzero
    frequency, and the basis is the 27 constant traceless tensors.
    """
    basis = _sym_basis(7)  # (28, 7, 7)
    # the rows of k_k at column e_s: e_s[k, j] (row j, the divergence), then
    # sum_i e_s[i, j] phi[i, k, m] (row (m, j), the P-contraction)
    contraction = np.einsum("sij,ikm->kmjs", basis, g2.phi_tensor).reshape(7, 49, -1)
    rows = np.concatenate([basis.transpose(1, 2, 0), contraction], axis=1)
    return KernelBasis(_constant_traceless_basis(7), _symbol_margin(rows, "G2"))
