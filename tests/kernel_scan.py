"""The flat-kernel mode scan that the symbol identity replaced, kept as a
test reference.

For each +-k pair over the nonzero frequencies |k|_inf <= cutoff, a real
field's amplitudes h(k) = x + iy and h(-k) = x - iy must meet the
constraint matrix at both k and -k.  `scan` sums the null dimensions of
those real systems (mu <= 1e-10 max(1, mu_max) for the eigenvalues mu of the
Gram matrices A^T A) and returns them with the least sqrt(mu_min / mu_max).
Modes go in chunks of CHUNK.
"""

import numpy as np

from spinstab.torus import operators as ops
from spinstab.torus.fields import _freq_array

CHUNK = 128


def trace_div_rows(kv: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(K, 1 + n, m) stack of the rows tr e and k.e on the columns e of
    basis (m, n, n), one matrix per row k of kv (K, n)."""
    trace = np.broadcast_to(np.trace(basis, axis1=1, axis2=2), (len(kv), 1, len(basis)))
    return np.concatenate([trace, np.einsum("ki,sij->kjs", kv, basis)], axis=1)


def stability_systems(n: int, rep):
    """(K, n) modes -> the real +-k systems of the rows tr e, k.e and the
    Dirac rows i sum_a k_a D_a of ops._dirac_rows, on _sym_basis(n)."""
    basis = ops._sym_basis(n)
    dirac = ops._dirac_rows(n, rep).reshape(n, -1)

    def matrices(kv):
        return np.concatenate([trace_div_rows(kv, basis).astype(complex),
                               1j * (kv @ dirac).reshape(len(kv), -1, len(basis))], axis=1)

    def systems(kv):
        blocks = []
        for m, sgn in ((matrices(kv), 1.0), (matrices(-kv), -1.0)):
            blocks.append(np.concatenate([m.real, sgn * -m.imag], axis=2))
            blocks.append(np.concatenate([m.imag, sgn * m.real], axis=2))
        return np.concatenate(blocks, axis=1)
    return systems


def harmonic_systems(g2):
    """(K, 7) modes -> the real matrices of the rows tr e, k.e and
    h_ij k_k phi_ikm of the structure g2, on _sym_basis(7).  The rows are
    real, so one matrix on Re h(k) (or on Im h(k)) is the whole system."""
    basis = ops._sym_basis(7)
    # contraction[k, (m, j), s] = sum_i e_s[i, j] phi[i, k, m]
    contraction = np.einsum("sij,ikm->kmjs", basis, g2.phi_tensor.astype(float)).reshape(7, -1)

    def matrices(kv):
        return np.concatenate([trace_div_rows(kv, basis),
                               (kv @ contraction).reshape(len(kv), -1, len(basis))], axis=1)
    return matrices


def scan(n: int, cutoff: int, systems) -> tuple:
    """(summed null dimension, rank margin) of systems(kv) over the nonzero
    modes |k|_inf <= cutoff, in chunks of CHUNK."""
    modes = _freq_array(n, cutoff).astype(float)
    extra, margin = 0, 1.0
    for start in range(0, len(modes), CHUNK):
        a = systems(modes[start:start + CHUNK])
        mu = np.linalg.eigvalsh(np.matmul(a.transpose(0, 2, 1), a))  # ascending
        top = mu[:, -1:]
        extra += int(np.sum(mu <= 1e-10 * np.maximum(1.0, top)))
        ratio = np.maximum(mu[:, 0], 0.0) / np.maximum(top[:, 0], np.finfo(float).tiny)
        margin = min(margin, float(np.sqrt(ratio.min())))
    return extra, margin
