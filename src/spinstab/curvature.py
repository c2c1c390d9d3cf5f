"""Pointwise algebraic curvature tensors and their spinorial action.

Curvature samples compatible with a kernel spinor are generated in dimension
4 from a traceless block on one chirality of 2-forms; that construction
forces the first Bianchi identity and Ricci-flatness exactly (all entries
are quarter-integers, so double precision arithmetic is exact).  The
self-dual 2-forms come from the Hodge star of ExteriorAlgebra(4), and the
kernel spinor sigma0 is a plain (spin_dim,) array.

A sample holds its spinor action as one (n, n, d, d) stack rho, built by a
single einsum on first use; the kernel chirality, the compatibility residual
and the joint-kernel dimension all read that stack.  The Bochner identities
take a (T, n, n) batch of tensors and build the triple products once per
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .clifford import GammaRep, OrientationError, build_gamma_rep, chirality_operator
from .exterior import ExteriorAlgebra

RICCI_FLAT_TOL = 1e-12
SYMMETRY_TOL = 1e-12
KERNEL_TOL = 1e-11


class CurvatureSymmetryError(ValueError):
    """Raised when a rank-4 array fails algebraic curvature symmetries."""

    def __init__(self, violations):
        self.violations = violations
        msg = "; ".join(f"{name}: max residual {r:.3e}" for name, r in violations)
        super().__init__(msg)


@dataclass(frozen=True, eq=False)
class AlgCurvature:
    """Validated algebraic curvature tensor R_ijkl.

    Conventions: R_ijkl = -R_jikl = -R_ijlk = R_klij, first Bianchi
    R_ijkl + R_jkil + R_kijl = 0, ricci_jl = sum_i R_ijil (so the round
    2-sphere pattern R_1212 = 1 has ricci = identity).
    """

    n: int
    tensor: np.ndarray

    @property
    def ricci(self) -> np.ndarray:
        return np.einsum("ijil->jl", self.tensor)

    @property
    def scalar(self) -> float:
        return float(np.trace(self.ricci))

    @property
    def is_ricci_flat(self) -> bool:
        return bool(np.abs(self.ricci).max() <= RICCI_FLAT_TOL)


def curvature_symmetry_violations(r: np.ndarray):
    """Named residuals for each algebraic curvature identity.

    Axes beyond the first four (a grid of points, say) are carried along,
    and each residual is the max over all of them.
    """
    rest = tuple(range(4, r.ndim))
    return [
        ("antisymmetry-first-pair", float(np.abs(r + np.swapaxes(r, 0, 1)).max())),
        ("antisymmetry-second-pair", float(np.abs(r + np.swapaxes(r, 2, 3)).max())),
        ("pair-symmetry", float(np.abs(r - np.transpose(r, (2, 3, 0, 1) + rest)).max())),
        ("first-bianchi",
         float(np.abs(r + np.transpose(r, (1, 2, 0, 3) + rest)
                      + np.transpose(r, (2, 0, 1, 3) + rest)).max())),
    ]


def validate_curvature(r: np.ndarray) -> AlgCurvature:
    r = np.asarray(r, dtype=float)
    if r.ndim != 4 or len(set(r.shape)) != 1:
        raise ValueError(f"expected rank-4 array with equal axes, got shape {r.shape}")
    violations = [
        (name, resid)
        for name, resid in curvature_symmetry_violations(r)
        if resid > SYMMETRY_TOL
    ]
    if violations:
        raise CurvatureSymmetryError(violations)
    return AlgCurvature(n=r.shape[0], tensor=r)


def ring_action(r: AlgCurvature, h: np.ndarray) -> np.ndarray:
    """Curvature acting on a symmetric (n, n) tensor: out_ij = sum_kl R_ikjl h_kl."""
    if h.shape != (r.n, r.n):
        raise ValueError(f"dimension mismatch: curvature {r.n}, tensor {h.shape}")
    out = np.einsum("ikjl,kl->ij", r.tensor, h)
    return 0.5 * (out + out.T)  # symmetric up to rounding when pair symmetry holds


@dataclass(frozen=True, eq=False)
class SpinCompatibleCurvature:
    """Curvature together with a gamma representation and a kernel spinor.

    The compatibility condition is sum_ij R_klij gamma_i gamma_j sigma0 = 0
    for every (k, l).
    """

    base: AlgCurvature
    rep: GammaRep
    sigma0: np.ndarray

    @cached_property
    def rho(self) -> np.ndarray:
        """(n, n, d, d) stack rho_kl = 1/4 sum_ij R_klij gamma_i gamma_j.

        The gamma matrices are monomial with entries 0, +-1, +-i, so every
        product and sum here is exact for quarter-integer curvature."""
        gam = np.stack(self.rep.gamma)
        return 0.25 * np.einsum("klij,iab,jbc->klac", self.base.tensor, gam, gam)

    def compatibility_residual(self) -> float:
        """max over (k, l) of |rho_kl sigma0|."""
        return float(np.linalg.norm(self.rho @ self.sigma0, axis=-1).max())


@cache
def _selfdual_basis() -> np.ndarray:
    """Rows: self-dual 2-forms as antisymmetric 4x4 matrices, times 2.

    Row a is e_0 ^ e_(a+1) + (its Hodge dual), left unnormalized so entries
    stay integers; the 1/2 normalization is absorbed in the operator
    assembly.  Read-only, built once.
    """
    ext = ExteriorAlgebra(4)
    w = np.eye(ext.dim(2), dtype=np.int64)[:3]  # e_01, e_02, e_03: basis order is lexicographic
    out = np.stack([ext.to_tensor(v, 2) for v in w + ext.star(w, 2)]).astype(float)
    out.flags.writeable = False
    return out


def curvature_from_chirality_block(block: np.ndarray) -> AlgCurvature:
    """Ricci-flat algebraic curvature from a traceless symmetric 3x3 block.

    The operator on 2-forms is sum_ab block_ab w_a (x) w_b with w_a the
    self-dual basis; zero on the anti-self-dual forms and with no trace part,
    which kills Ricci and the Bianchi obstruction.
    """
    block = np.asarray(block, dtype=float)
    if block.shape != (3, 3):
        raise ValueError("block must be 3x3")
    if abs(np.trace(block)) > 1e-14 or np.abs(block - block.T).max() > 1e-14:
        raise ValueError("block must be symmetric and traceless")
    w = _selfdual_basis()  # (3, 4, 4), entries in {0, +-1}
    # R_ijkl = sum_ab block_ab (w_a/2)_ij (w_b/2)_kl summed over the two
    # orderings of each unordered pair => factor 1/4 overall.
    r = 0.25 * np.einsum("ab,aij,bkl->ijkl", block, w, w)
    return validate_curvature(r)


def _annihilated_chirality(rho: np.ndarray, rep: GammaRep):
    """Return the exact chirality basis killed by the whole rho stack, or None."""
    chi = np.diag(chirality_operator(rep)).real
    for sign in (1.0, -1.0):
        idx = np.where(chi == sign)[0]
        if float(np.abs(rho[..., idx]).max()) <= KERNEL_TOL:
            return idx
    return None


def k3_sample(seed: int) -> SpinCompatibleCurvature:
    """Random spin-compatible Ricci-flat curvature in dimension 4.

    The traceless block has integer entries, so Bianchi and Ricci residuals
    are exactly zero, and the kernel spinor is an exact chirality basis
    vector.  A zero block (the flat curvature, whose kernel holds all four
    spinors) is redrawn from the same generator.
    """
    rng = np.random.default_rng(seed)
    while True:
        diag = rng.integers(-3, 4, size=2)
        off = rng.integers(-3, 4, size=3)
        if diag.any() or off.any():
            break
    block = np.array(
        [
            [diag[0], off[0], off[1]],
            [off[0], diag[1], off[2]],
            [off[1], off[2], -diag[0] - diag[1]],
        ],
        dtype=float,
    )
    return spin_compatible_from_block(block)


def spin_compatible_from_block(block: np.ndarray) -> SpinCompatibleCurvature:
    rep = build_gamma_rep(4)
    sigma = np.zeros(rep.spin_dim, dtype=complex)
    out = SpinCompatibleCurvature(base=curvature_from_chirality_block(block), rep=rep,
                                  sigma0=sigma)
    # the stack does not depend on sigma0, whose entry is set once the stack
    # shows which chirality it kills
    idx = _annihilated_chirality(out.rho, rep)
    if idx is None:
        raise OrientationError(
            "no chirality annihilated by the curvature spinor action"
        )
    sigma[idx[0]] = 1.0
    resid = out.compatibility_residual()
    if resid > KERNEL_TOL:
        raise OrientationError(f"kernel spinor residual {resid:.3e} above tolerance")
    return out


def joint_kernel_dimension(c: SpinCompatibleCurvature) -> int:
    """Dimension of the joint kernel of all rho_kl, via SVD of the stack
    (singular values <= 1e-8 relative to the largest, floored at 1)."""
    s = np.linalg.svd(c.rho.reshape(-1, c.rep.spin_dim), compute_uv=False)
    return int(np.sum(s <= 1e-8 * max(1.0, s[0])))


def bochner_curvature_identity(c: SpinCompatibleCurvature, hs: np.ndarray) -> dict:
    """Residuals of the two cubic-contraction identities behind the Bochner
    formula for the twisted Dirac square, for a (T, n, n) batch hs of
    symmetric tensors h.

    For each tensor t and free index j:
        ring_contraction[t, j] = || 1/2 sum_klip R_kljp h_ip g_k g_l g_i s0
                                    + 2 sum_k (Rh)_kj g_k s0 ||
    and, independent of h, for each free index p:
        ricci_contraction[p] = || 1/2 sum_kli R_klip g_k g_l g_i s0 ||.
    Both vanish when the curvature admits the kernel spinor and is
    Ricci-flat.
    """
    gam = np.stack(c.rep.gamma)
    s0 = c.sigma0
    r = c.base.tensor
    # triple products gamma_k gamma_l gamma_i sigma0, exact: gamma is monomial
    trip = np.einsum("kab,lbc,icd,d->klia", gam, gam, gam, s0)
    ring = np.einsum("ikjl,tkl->tij", r, hs)
    acc = 0.5 * np.einsum("kljp,tip,klis->tjs", r, hs, trip)
    acc = acc + 2.0 * np.einsum("tkj,ks->tjs", ring, gam @ s0)
    ricci = 0.5 * np.einsum("klip,klis->ps", r, trip)
    return {"ring_contraction": np.linalg.norm(acc, axis=-1),
            "ricci_contraction": np.linalg.norm(ricci, axis=-1)}
