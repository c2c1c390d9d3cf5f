import numpy as np
import pytest

from spinstab.clifford import build_gamma_rep, unit_spinor
from spinstab.torus import operators as ops
from spinstab.torus.fields import FourierScalarField, FourierSymTensor, _freq_box
from spinstab.torus.operators import (
    cover_l2_inner,
    cover_lichnerowicz,
    cover_pullback,
    dirac_symbol,
    lichnerowicz_flat,
    spinor_embed_field,
    stability_kernel_basis,
    tt_defect,
    tt_mode_projection,
    tt_project,
    tt_split,
    twisted_dirac,
)


def max_amp(t: FourierSymTensor) -> float:
    return max((max((abs(a) for a in f.modes.values()), default=0.0)
                for f in t.components.values()), default=0.0)


def test_dirac_symbol_squares_to_ksq():
    rep = build_gamma_rep(4)
    k = (1, -2, 0, 3)
    sym = dirac_symbol(rep.gamma, k)
    assert np.abs(sym @ sym - 14.0 * np.eye(4)).max() < 1e-12
    assert np.abs(sym - sym.conj().T).max() < 1e-15  # Hermitian symbol


def test_constant_field_killed_by_dirac():
    rep = build_gamma_rep(4)
    h = FourierSymTensor.from_constant(np.diag([1.0, -1.0, 0.0, 0.0]))
    out = twisted_dirac(spinor_embed_field(h, rep), rep)
    assert all(np.abs(a).max() == 0.0 for a in out.modes.values())


def test_dirac_norm_by_parseval():
    # |D embed(h)|^2 = |k|^2 |embed(h)|^2 for a single-mode field
    rep = build_gamma_rep(4)
    amat = np.diag([1.0, 2.0, -3.0, 0.0])
    h = FourierSymTensor.from_mode(4, (1, 2, 0, 0), amat)
    phi = spinor_embed_field(h, rep)
    dphi = twisted_dirac(phi, rep)
    assert abs(dphi.l2_norm_sq() - 5.0 * phi.l2_norm_sq()) < 1e-9


def test_dirac_square_equals_connection_laplacian():
    rng = np.random.default_rng(0)
    for n in (4, 7):
        rep = build_gamma_rep(n)
        h = FourierSymTensor.random_real(n, 1, rng, count=2)
        phi = spinor_embed_field(h, rep)
        lhs = twisted_dirac(twisted_dirac(phi, rep), rep)
        rhs = spinor_embed_field(h.rough_laplacian_flat(), rep)
        diff = lhs - rhs
        assert max(np.abs(a).max() for a in diff.modes.values()) < 1e-10


def test_dirac_discrete_adjointness():
    rng = np.random.default_rng(4)
    rep = build_gamma_rep(4)
    h1 = FourierSymTensor.random_real(4, 1, rng, count=2)
    h2 = FourierSymTensor.random_real(4, 1, rng, count=2)
    a = spinor_embed_field(h1, rep)
    b = spinor_embed_field(h2, rep)
    lhs = twisted_dirac(a, rep).l2_inner(b).real
    rhs = a.l2_inner(twisted_dirac(b, rep)).real
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_quadratic_form_identity():
    rng = np.random.default_rng(8)
    for n in (4, 7):
        rep = build_gamma_rep(n)
        h = FourierSymTensor.random_real(n, 1, rng, count=2)
        lhs = float(np.real(lichnerowicz_flat(h).l2_inner(h)))
        rhs = twisted_dirac(spinor_embed_field(h, rep), rep).l2_norm_sq()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_lichnerowicz_flat_symbol():
    h = FourierSymTensor.from_mode(3, (1, 1, 1), np.diag([1.0, -1.0, 0.0]))
    out = lichnerowicz_flat(h)
    for key, f in out.components.items():
        for k, a in f.modes.items():
            assert a == 3.0 * h.component(*key).modes[k]


def test_tt_split_pure_conformal():
    u = FourierScalarField.cosine(3, (1, 0, 0), 0.7)
    h = FourierSymTensor.conformal(u)
    tt, lie, conf = tt_split(h)
    assert max_amp(tt) < 1e-14
    assert max_amp(lie) < 1e-14
    assert max_amp(conf - h) < 1e-14


def test_tt_split_pure_lie_direction():
    # h = symmetrized gradient of X = V cos(k.x)
    n, k, v = 3, (1, 1, 0), np.array([0.4, -0.1, 0.2])
    h = FourierSymTensor.from_mode(n, k, -(np.outer(k, v) + np.outer(v, k)), phase=np.pi / 2)
    tt, lie, conf = tt_split(h)
    assert max_amp(tt) < 1e-13
    assert max_amp(lie - h) < 1e-13


def test_tt_split_pure_tt_mode():
    amat = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    h = FourierSymTensor.from_mode(3, (1, 0, 0), amat)  # A k = 0, tr A = 0
    tt, lie, conf = tt_split(h)
    assert max_amp(tt - h) < 1e-14
    assert max_amp(lie) < 1e-14
    assert max_amp(conf) < 1e-14


def test_tt_split_contract():
    rng = np.random.default_rng(12)
    h = FourierSymTensor.random_real(4, 2, rng, count=3)
    tt, lie, conf = tt_split(h)
    assert tt_defect(tt) < 1e-10
    assert max_amp((tt + lie + conf) - h) < 1e-10
    # the TT part is the orthogonal projection onto the TT subspace
    assert abs(complex(tt.l2_inner(lie))) < 1e-9
    assert abs(complex(tt.l2_inner(conf))) < 1e-9


def _closed_form_split_mode(hk, k):
    """The mode-wise (tt, lie, conf) closed form tt_split used before it
    took its TT part from tt_mode_projection."""
    n = hk.shape[0]
    kv = np.array(k, dtype=float)
    k2 = float(kv @ kv)
    if k2 == 0.0:
        conf = np.trace(hk) / n * np.eye(n)
        return hk - conf, np.zeros_like(hk), conf
    t = np.trace(hk)
    b = kv @ hk
    q = kv @ b
    u = (t - q / k2) / (n - 1)
    v = (t - n * u) / 2j
    b_perp = b - (q / k2) * kv
    x = b_perp / (1j * k2) + (v / k2) * kv
    lie = 1j * (np.outer(kv, x) + np.outer(x, kv))
    conf = u * np.eye(n)
    return hk - lie - conf, lie, conf


def _split_inputs(n, rng):
    """A random field with its k = 0 modes, and a field that is already TT."""
    cutoff = 1 if n == 7 else 2
    h = FourierSymTensor.random_real(n, cutoff, rng, scale=1.0, count=3)
    a = rng.standard_normal((n, n))
    h = h + FourierSymTensor.from_constant(0.5 * (a + a.T))
    k = (1,) + (0,) * (n - 2) + (1,)
    b = rng.standard_normal((n, n))
    h_tt = FourierSymTensor.from_mode(n, k, tt_mode_projection(0.5 * (b + b.T), k))
    return h, h_tt


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_tt_split_matches_closed_form(n):
    h, h_tt = _split_inputs(n, np.random.default_rng(40 + n))
    assert (0,) * n in h.mode_matrices()
    for field in (h, h_tt):
        parts = tt_split(field)
        assert max_amp((parts[0] + parts[1] + parts[2]) - field) <= 1e-13
        part_mats = [part.mode_matrices() for part in parts]
        for k, hk in field.mode_matrices().items():
            ref = _closed_form_split_mode(hk, k)
            for mats, expect in zip(part_mats, ref):
                got = mats.get(k, np.zeros_like(hk))
                assert np.abs(got - expect).max() <= 1e-13
    tt, lie, conf = tt_split(h_tt)
    assert max_amp(tt - h_tt) <= 1e-13
    assert max_amp(lie) <= 1e-13 and max_amp(conf) <= 1e-13


def test_tt_projection_is_idempotent():
    rng = np.random.default_rng(13)
    h = FourierSymTensor.random_real(3, 1, rng, count=2)
    tt = tt_project(h)
    tt2 = tt_project(tt)
    assert max_amp(tt - tt2) < 1e-12


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 5), (4, 9)])
def test_kernel_dimensions(n, expected):
    rep = build_gamma_rep(n)
    basis = stability_kernel_basis(n, rep, cutoff=2)
    assert len(basis) == expected
    for b in basis:
        assert tt_defect(b) < 1e-15  # normalization rounding only
        out = twisted_dirac(spinor_embed_field(b, rep), rep)
        assert all(np.abs(a).max() == 0.0 for a in out.modes.values())


def test_kernel_dimension_t7():
    rep = build_gamma_rep(7)
    basis = stability_kernel_basis(7, rep, cutoff=1)
    assert len(basis) == 27


def _per_mode_real_system(n, rep, k):
    """The scan's real system at one mode, built row by row as the
    per-mode loop did before the scan was batched."""
    gam_sig = np.stack([g @ unit_spinor(rep).components for g in rep.gamma])

    def complex_matrix(k):
        kv = np.array(k, dtype=float)
        sym = dirac_symbol(rep.gamma, k)
        rows = []
        for e in ops._sym_basis(n):
            cons = [np.trace(e)]
            cons.extend(kv @ e)
            cons.extend(((e.T @ gam_sig) @ sym.T).reshape(-1))
            rows.append(np.array(cons, dtype=complex))
        return np.array(rows).T

    blocks = []
    for m, sgn in ((complex_matrix(k), 1.0), (complex_matrix(tuple(-v for v in k)), -1.0)):
        blocks.append(np.hstack([m.real, sgn * -m.imag]))
        blocks.append(np.hstack([m.imag, sgn * m.real]))
    return np.vstack(blocks)


@pytest.mark.parametrize("n,cutoff", [(2, 2), (4, 2), (7, 1)])
def test_batched_constraint_stack_matches_per_mode_systems(n, cutoff):
    # bit for bit up to the sign of zero entries (x + 0.0 drops it): the
    # per-mode complex matmuls leave some zeros negative, which no Gram
    # entry, eigenvalue or rank can see
    rep = build_gamma_rep(n)
    build = ops._stability_constraints(n, rep)
    modes = _freq_box(n, cutoff)
    for start in range(0, len(modes), ops._SCAN_CHUNK):
        chunk = modes[start:start + ops._SCAN_CHUNK]
        got = build(np.array(chunk, dtype=float))
        ref = np.array([_per_mode_real_system(n, rep, k) for k in chunk])
        assert got.shape == ref.shape
        assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()


def _plant_null_columns(monkeypatch, planted):
    """Make the stability builder zero column 0 of the systems at the
    modes in `planted`, each adding one null direction."""
    real_builder = ops._stability_constraints

    def builder(n, rep):
        inner = real_builder(n, rep)

        def systems(kv):
            out = inner(kv)
            for row, k in enumerate(kv):
                if tuple(int(v) for v in k) in planted:
                    out[row, :, 0] = 0.0
            return out
        return systems

    monkeypatch.setattr(ops, "_stability_constraints", builder)


def test_scan_counts_planted_defects_past_the_first_chunk(monkeypatch):
    modes = _freq_box(7, 1)
    chunk = ops._SCAN_CHUNK
    assert len(modes) == 1093 and len(modes) % chunk != 0
    tail_start = len(modes) // chunk * chunk
    planted = {modes[chunk + 5], modes[tail_start + 3]}  # second and tail chunks
    rep = build_gamma_rep(7)
    extra, margin = ops._nonzero_mode_kernel_dim(7, 1, ops._stability_constraints(7, rep))
    assert extra == 0 and 0.35 < margin <= 1.0
    _plant_null_columns(monkeypatch, planted)
    extra, margin = ops._nonzero_mode_kernel_dim(7, 1, ops._stability_constraints(7, rep))
    assert extra == 2 and margin < 1e-5
    with pytest.raises(AssertionError, match="dimension 2"):
        stability_kernel_basis(7, rep, cutoff=1)


def test_kernel_basis_reports_rank_margin():
    # worst sigma_min / sigma_max over the scan; a null direction reads 0
    margins = [stability_kernel_basis(n, build_gamma_rep(n), cutoff=c).rank_margin
               for n, c in ((2, 2), (4, 2), (7, 1))]
    assert all(0.35 < m <= 1.0 for m in margins)


def test_cover_identity_fold():
    rng = np.random.default_rng(3)
    h = FourierSymTensor.random_real(2, 2, rng, count=3)
    same = cover_pullback(h, (1, 1))
    assert max_amp(same - h) == 0.0


def test_cover_single_mode_dilation():
    h = FourierSymTensor.from_mode(2, (1, 0), np.diag([1.0, -1.0]))
    ph = cover_pullback(h, (2, 1))
    keys = set()
    for f in ph.components.values():
        keys |= set(f.modes)
    assert keys == {(2, 0), (-2, 0)}
    comm = cover_lichnerowicz(ph, (2, 1)) - cover_pullback(
        lichnerowicz_flat(h), (2, 1))
    assert max_amp(comm) == 0.0


def test_cover_quadratic_ratio_exact():
    rng = np.random.default_rng(5)
    h = FourierSymTensor.random_real(2, 2, rng, count=4)
    ph = cover_pullback(h, (2, 3))
    num = cover_l2_inner(cover_lichnerowicz(ph, (2, 3)), ph, (2, 3))
    den = float(np.real(lichnerowicz_flat(h).l2_inner(h)))
    assert num / den == 6.0


@pytest.mark.parametrize("fold", [(2, 3), (3, 2), (1, 5), (4, 4)])
def test_cover_quadratic_form_is_fold_count_times_base(fold):
    # exact as a product: the cover sum before the fold factor is the base
    # sum bit for bit, while the quotient num / den can round off the count
    for seed in range(8):
        h = FourierSymTensor.random_real(2, 2, np.random.default_rng(seed), count=3)
        ph = cover_pullback(h, fold)
        num = cover_l2_inner(cover_lichnerowicz(ph, fold), ph, fold)
        den = float(np.real(lichnerowicz_flat(h).l2_inner(h)))
        assert num == float(np.prod(fold)) * den


def test_cover_guards():
    h = FourierSymTensor.from_constant(np.eye(2))
    with pytest.raises(ValueError):
        cover_pullback(h, (0, 2))
    with pytest.raises(ValueError):
        cover_pullback(h, (2,))


# -- oracles: the per-mode loops of the dict-of-modes implementation ---------

def _loop_dirac_symbol(gamma, k):
    mat = np.zeros(gamma[0].shape, dtype=complex)
    for a, ka in enumerate(k):
        if ka != 0:
            mat += 1j * ka * gamma[a]
    return mat


def _loop_tt_split(h):
    n, eye = h.n, np.eye(h.n)
    parts = ({}, {}, {})
    for k, hk in h.mode_matrices().items():
        kv = np.array(k, dtype=float)
        k2 = float(kv @ kv)
        p = np.eye(n) - np.outer(kv, kv) / max(k2, 1.0)
        tt = p @ hk @ p
        tt = tt - np.trace(tt) / np.trace(p) * p
        if k2 == 0.0:
            conf = (np.trace(hk) / n) * eye
            lie = np.zeros_like(hk)
        else:
            conf = ((np.trace(hk) - (kv @ hk @ kv) / k2) / (n - 1)) * eye
            lie = hk - tt - conf
        for out, m in zip(parts, (tt, lie, conf)):
            out[k] = m
    return parts


def assert_matches_loop(field, ref: dict, rtol=1e-13):
    """field equals the per-mode reference to rtol relative to the largest
    reference amplitude; modes the reference holds as zeros may be absent."""
    got = dict(field.modes)
    assert set(got) <= set(ref)
    scale = max(float(np.abs(np.asarray(a)).max()) for a in ref.values())
    for k, r in ref.items():
        gap = np.abs(np.asarray(got.get(k, 0.0)) - np.asarray(r)).max()
        assert gap <= rtol * scale, (k, gap, scale)


@pytest.mark.parametrize("n", [4, 7])
def test_flat_operators_match_per_mode_loops(n):
    rng = np.random.default_rng(50 + n)
    rep = build_gamma_rep(n)
    h = FourierSymTensor.random_real(n, 1, rng, count=3) \
        + FourierSymTensor.from_constant(np.diag(np.arange(1.0, n + 1)))
    for part, ref in zip(tt_split(h), _loop_tt_split(h)):
        assert_matches_loop(part, ref)
    assert_matches_loop(tt_project(h), _loop_tt_split(h)[0])
    gam_sig = np.stack([g @ unit_spinor(rep).components for g in rep.gamma])
    phi = spinor_embed_field(h, rep)
    assert_matches_loop(phi, {k: m.T @ gam_sig for k, m in h.mode_matrices().items()})
    assert_matches_loop(twisted_dirac(phi, rep),
                        {k: a @ _loop_dirac_symbol(rep.gamma, k).T for k, a in phi.modes.items()})
    for k in h.modes:
        assert np.abs(dirac_symbol(rep.gamma, k) - _loop_dirac_symbol(rep.gamma, k)).max() == 0.0
