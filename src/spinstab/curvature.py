"""Pointwise algebraic curvature tensors and their spinorial action.

Curvature samples compatible with a kernel spinor are generated in dimension
4 from a traceless block on one chirality of 2-forms; that construction
forces the first Bianchi identity and Ricci-flatness exactly (all entries
are quarter-integers, so double precision arithmetic is exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (GammaRep, OrientationError, Spinor, SymTensor, build_gamma_rep,
                       chirality_operator)

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


def ring_action(r: AlgCurvature, h: SymTensor) -> SymTensor:
    """Curvature acting on symmetric 2-tensors: out_ij = sum_kl R_ikjl h_kl."""
    if h.n != r.n:
        raise ValueError(f"dimension mismatch: curvature {r.n}, tensor {h.n}")
    out = np.einsum("ikjl,kl->ij", r.tensor, h.components)
    out = 0.5 * (out + out.T)  # symmetric up to rounding when pair symmetry holds
    return SymTensor(out)


def _rho(r: AlgCurvature, rep: GammaRep, k: int, l: int) -> np.ndarray:
    """rho_kl = 1/4 sum_ij R_klij gamma_i gamma_j."""
    n, d = r.n, rep.spin_dim
    rho = np.zeros((d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            c = r.tensor[k, l, i, j]
            if c != 0.0:
                rho += 0.25 * c * (rep.gamma[i] @ rep.gamma[j])
    return rho


@dataclass(frozen=True, eq=False)
class SpinCompatibleCurvature:
    """Curvature together with a gamma representation and a kernel spinor.

    The compatibility condition is sum_ij R_klij gamma_i gamma_j sigma0 = 0
    for every (k, l).
    """

    base: AlgCurvature
    rep: GammaRep
    sigma0: Spinor

    def spinor_action(self, k: int, l: int) -> np.ndarray:
        return _rho(self.base, self.rep, k, l)

    def compatibility_residual(self) -> float:
        worst = 0.0
        for k in range(self.base.n):
            for l in range(self.base.n):
                worst = max(
                    worst,
                    float(np.linalg.norm(self.spinor_action(k, l) @ self.sigma0.components)),
                )
        return worst


_PAIRS4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_DUAL4 = {(0, 1): ((2, 3), 1.0), (0, 2): ((1, 3), -1.0), (0, 3): ((1, 2), 1.0),
          (1, 2): ((0, 3), 1.0), (1, 3): ((0, 2), -1.0), (2, 3): ((0, 1), 1.0)}


def _selfdual_basis() -> np.ndarray:
    """Rows: self-dual 2-forms as antisymmetric 4x4 matrices, times 2.

    Row a is e_0 ^ e_(a+1) + (its Hodge dual), left unnormalized so entries
    stay integers; the 1/2 normalization is absorbed in the operator
    assembly.
    """
    basis = []
    for a in range(3):
        w = np.zeros((4, 4))
        i, j = 0, a + 1
        w[i, j], w[j, i] = 1.0, -1.0
        (k, l), s = _DUAL4[(i, j)]
        w[k, l] += s
        w[l, k] -= s
        basis.append(w)
    return np.stack(basis)


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


def _annihilated_chirality(r: AlgCurvature, rep: GammaRep):
    """Return the exact chirality basis killed by all rho_kl, or None."""
    chi = np.diag(chirality_operator(rep)).real
    rhos = [_rho(r, rep, k, l) for k in range(4) for l in range(4)]
    for sign in (1.0, -1.0):
        idx = np.where(chi == sign)[0]
        if all(float(np.abs(rho[:, idx]).max()) <= KERNEL_TOL for rho in rhos):
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
    r = curvature_from_chirality_block(block)
    idx = _annihilated_chirality(r, rep)
    if idx is None:
        raise OrientationError(
            "no chirality annihilated by the curvature spinor action"
        )
    sigma = np.zeros(rep.spin_dim, dtype=complex)
    sigma[idx[0]] = 1.0
    out = SpinCompatibleCurvature(base=r, rep=rep, sigma0=Spinor(sigma))
    resid = out.compatibility_residual()
    if resid > KERNEL_TOL:
        raise OrientationError(f"kernel spinor residual {resid:.3e} above tolerance")
    return out


def joint_kernel_dimension(c: SpinCompatibleCurvature) -> int:
    """Dimension of the joint kernel of all rho_kl, via SVD of the stack
    (singular values <= 1e-8 relative to the largest, floored at 1)."""
    n, d = c.base.n, c.rep.spin_dim
    stack = np.vstack([c.spinor_action(k, l) for k in range(n) for l in range(n)])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s <= 1e-8 * max(1.0, s[0])))


def bochner_curvature_identity(c: SpinCompatibleCurvature, h: SymTensor):
    """Residuals of the two cubic-contraction identities behind the Bochner
    formula for the twisted Dirac square.

    For each free index j:
        res1_j = || 1/2 sum_klip R_kljp h_ip g_k g_l g_i s0
                     + 2 sum_k (Rh)_kj g_k s0 ||
    and for each free index p:
        res2_p = || 1/2 sum_kli R_klip g_k g_l g_i s0 ||.
    Both vanish when the curvature admits the kernel spinor and is
    Ricci-flat.
    """
    n, d = c.base.n, c.rep.spin_dim
    gam = c.rep.gamma
    s0 = c.sigma0.components
    r = c.base.tensor
    # triple products gamma_k gamma_l gamma_i applied to sigma0
    trip = np.empty((n, n, n, d), dtype=complex)
    for k in range(n):
        for l in range(n):
            gkl = gam[k] @ gam[l]
            for i in range(n):
                trip[k, l, i] = gkl @ (gam[i] @ s0)
    gam_s0 = np.stack([g @ s0 for g in gam])
    ring = np.einsum("ikjl,kl->ij", r, h.components)

    res1 = []
    for j in range(n):
        acc = 0.5 * np.einsum("klp,ip,klis->s", r[:, :, j, :], h.components, trip)
        acc = acc + 2.0 * np.einsum("k,ks->s", ring[:, j], gam_s0)
        res1.append(float(np.linalg.norm(acc)))
    res2 = []
    for p in range(n):
        acc = 0.5 * np.einsum("kli,klis->s", r[:, :, :, p], trip)
        res2.append(float(np.linalg.norm(acc)))
    return {"ring_contraction": res1, "ricci_contraction": res2}
