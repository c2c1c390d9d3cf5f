"""Rayleigh spectra of the Lichnerowicz operator and the conformal ground
state, for the `spectrum` command.

Probe fields are the constant traceless tensors plus transverse traceless
cosine/sine modes up to a cutoff; on the flat torus their Rayleigh
quotients are exactly |k|^2, and on perturbed metrics they are evaluated
through the nonlinear pipeline.
"""

from __future__ import annotations

import numpy as np

from .torus import eigen as eig
from .torus import geometry as geom
from .torus import operators as ops
from .torus.fields import FourierMetric, FourierSymTensor, Grid, _freq_box


def tt_probe_fields(n: int, cutoff: int, limit: int | None = None):
    """Constant traceless tensors, then TT cosine and sine modes by |k|^2."""
    probes = [("const", FourierSymTensor.from_constant(m))
              for m in ops._constant_traceless_basis(n)]
    freqs = sorted(_freq_box(n, cutoff), key=lambda k: sum(v * v for v in k))
    for k in freqs:
        for b in _tt_basis_for_mode(n, k):
            probes.append((f"cos{k}", FourierSymTensor.from_mode(n, k, b)))
            probes.append(
                (f"sin{k}", FourierSymTensor.from_mode(n, k, b, phase=np.pi / 2)))
        if limit is not None and len(probes) >= limit:
            break
    return probes[:limit] if limit is not None else probes


def _tt_basis_for_mode(n: int, k):
    """Orthonormal basis of symmetric matrices with A k = 0 and tr A = 0."""
    cand = ops.tt_mode_projection(ops._sym_basis(n), k).reshape(-1, n * n)
    q, r = np.linalg.qr(cand.T)
    keep = [q[:, idx].reshape(n, n) for idx in range(q.shape[1])
            if abs(r[idx, idx]) > 1e-10]
    return keep


PERTURBED_PROBES = 24  # probe fields on a perturbed metric; a flat one takes all


def rayleigh_rows(metric: FourierMetric, count: int, cutoff: int = 1,
                  grid: Grid | None = None):
    """Grouped Rayleigh values of the Lichnerowicz operator on TT probes.

    Returns up to `count` rows (index, value, multiplicity) of distinct
    values in increasing order, then one conformal-ground row with the
    eigen-solver residual.
    """
    n = metric.n
    if grid is None:
        grid = Grid(n)
    values = []
    if metric.is_flat():
        for name, h in tt_probe_fields(n, cutoff):
            lh = ops.lichnerowicz_flat(h)
            norm = h.l2_norm_sq
            values.append(float(np.real(lh.l2_inner(h))) / norm)
    else:
        geo = geom.MetricGeometry(metric, grid)
        for name, h in tt_probe_fields(n, cutoff, PERTURBED_PROBES):
            hv = h.sample_matrix(grid)
            lh = geo.lichnerowicz(hv)
            num = grid.integrate(geo.inner_sym2(lh, hv) * geo.sqrt_det)
            den = grid.integrate(geo.inner_sym2(hv, hv) * geo.sqrt_det)
            values.append(num / den)
    values.sort()
    rows = []
    idx = 0
    i = 0
    while i < len(values) and len(rows) < count:
        j = i
        while j < len(values) and abs(values[j] - values[i]) <= 1e-10 * (1 + abs(values[i])):
            j += 1
        rows.append({"kind": "tt_rayleigh", "index": idx,
                     "value": values[i], "multiplicity": j - i,
                     "residual": ""})
        idx += 1
        i = j
    pair = eig.conformal_eigenvalue(metric, grid)
    ground = {"kind": "conformal_ground", "index": 0, "value": pair.lam,
              "multiplicity": 1, "residual": pair.residual}
    return rows, ground
