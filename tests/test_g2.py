import dataclasses
from fractions import Fraction

import kernel_scan
import numpy as np
import pytest

from spinstab.exterior import ExteriorAlgebra, _perm_sign
from spinstab.g2 import (
    EXT7,
    SIGMA0,
    OctonionSpinor,
    ThreeFormTypes,
    clifford_act,
    clifford_relation_residual,
    codifferential_identity_residual,
    cross_identity_residuals,
    harmonic_constraint_basis,
    octonion_dirac_by_action,
    octonion_dirac_closed_form,
    standard_g2_structure,
    star_d_identity_residual,
    sym_field_to_three_form,
    sym_to_three_form,
    sym_to_three_form_rank,
    triple_pairing_residual,
    verify_cross_identities,
    FormField,
)
from spinstab import g2 as g2mod
from spinstab.torus import operators as ops
from spinstab.torus.fields import FourierSymTensor, _freq_box

G2 = standard_g2_structure()
E = np.eye(7, dtype=np.int64)


def test_star_phi_matches_display():
    # the constructor itself validates the displayed dual against the
    # computed Hodge star; additionally check the star is an isometry
    assert np.array_equal(EXT7.star(G2.phi3, 3), G2.star_phi4)
    back = EXT7.star(G2.star_phi4, 4)
    assert np.array_equal(back, G2.phi3)  # ** = +1 on odd forms in dim 7


def test_cross_table_fixtures():
    assert np.array_equal(G2.cross(E[0], E[1]), E[2])      # e1 x e2 = e3
    assert np.array_equal(G2.cross(E[1], E[4]), -E[6])     # e2 x e5 = -e7
    assert np.array_equal(G2.cross(E[0], E[3]), E[4])      # e1 x e4 = e5
    rng = np.random.default_rng(0)
    x = rng.integers(-5, 6, size=7)
    assert np.abs(G2.cross(x, x)).max() == 0


def test_identity_fixtures_by_hand():
    # <P(e1,e2), P(e1,e2)> = 1 (identity 2 with Y = Z = e2)
    res = cross_identity_residuals(G2, E[0], E[1], E[1])
    assert res == {1: 0, 2: 0, 3: 0, 4: 0}
    # P(e1, P(e1,e2)) = P(e1, e3) = -e2 (identity 3)
    assert np.array_equal(G2.cross(E[0], G2.cross(E[0], E[1])), -E[1])


def test_all_identities_exact():
    out = verify_cross_identities(G2, seed=3, samples=100)
    assert max(out["basis"].values()) == 0
    assert max(out["random"].values()) == 0


def test_batched_identities_match_per_triple_calls():
    rng = np.random.default_rng(5)
    x, y, z = rng.integers(-4, 5, size=(3, 30, 7))
    per_triple = [cross_identity_residuals(G2, *t) for t in zip(x, y, z)]
    batched = cross_identity_residuals(G2, x, y, z)
    assert batched == {key: max(r[key] for r in per_triple) for key in batched}
    # a broken structure is seen by the batch as by the single triple
    flipped = dataclasses.replace(G2, phi3=-G2.phi3, star_phi4=-G2.star_phi4)
    assert cross_identity_residuals(flipped, x, y, z)[4] > 0
    assert np.array_equal(G2.cross(x, y), np.array([G2.cross(a, b) for a, b in zip(x, y)]))


def test_batched_clifford_action_matches_per_item_calls():
    rng = np.random.default_rng(6)
    x, v = rng.integers(-4, 5, size=(2, 12, 7))
    a = rng.integers(-4, 5, size=12)
    out = clifford_act(G2, x, OctonionSpinor(a, v))
    for i in range(12):
        one = clifford_act(G2, x[i], OctonionSpinor(int(a[i]), v[i]))
        assert one.scalar == out.scalar[i]
        assert np.array_equal(one.vector, out.vector[i])
    assert np.array_equal(G2.phi_value(x, v, x[::-1]),
                          [G2.phi_value(p, q, r) for p, q, r in zip(x, v, x[::-1])])


def test_clifford_action_on_vacuum():
    s = clifford_act(G2, E[0], SIGMA0)
    assert s.scalar == 0
    assert np.array_equal(s.vector, E[0])


def test_clifford_relation_exact():
    assert clifford_relation_residual(G2, seed=1, samples=100) == 0


def test_triple_pairing():
    assert triple_pairing_residual(G2, list(E)) == 0
    # phi(e1, e2, e3) = 1 via the displayed pairing
    s = clifford_act(G2, E[0], clifford_act(G2, E[1], clifford_act(G2, E[2], SIGMA0)))
    assert -s.scalar == 1 == G2.phi_value(E[0], E[1], E[2])


def test_projection_of_phi():
    types = ThreeFormTypes(G2)
    p1, p7, p27 = types.project(G2.phi3)
    assert all(a == b for a, b in zip(p1, G2.phi3))
    assert all(v == 0 for v in p7)
    assert all(v == 0 for v in p27)


def test_projection_of_seven_part():
    types = ThreeFormTypes(G2)
    e1 = np.zeros(7, dtype=np.int64)
    e1[0] = 1
    alpha = EXT7.star(EXT7.wedge(G2.phi3, 3, e1, 1), 4)
    p1, p7, p27 = types.project(alpha)
    assert all(v == 0 for v in p1)
    assert all(a == b for a, b in zip(p7, alpha))
    assert all(v == 0 for v in p27)


def test_projection_reconstruction_exact_rational():
    types = ThreeFormTypes(G2)
    rng = np.random.default_rng(2)
    alpha = np.array([Fraction(int(v), 3) for v in rng.integers(-9, 10, size=35)])
    p1, p7, p27 = types.project(alpha)
    recon = p1 + p7 + p27
    assert all(a == b for a, b in zip(recon, alpha))
    w6, w7 = types.wedge_conditions(p27)
    assert all(v == 0 for v in w6)
    assert all(v == 0 for v in w7)


def test_projector_ranks_and_algebra():
    types = ThreeFormTypes(G2)
    assert types.projector_ranks() == (1, 7, 27)
    assert types.projector_algebra_residual() == 0


def test_scaled_projectors_match_rank_one_sums():
    # P1 = phi phi^T / |phi|^2 and P7 = sum_a w_a w_a^T / |w_a|^2 with
    # w_a = *(phi ^ e^a), rebuilt here in Fractions
    types = ThreeFormTypes(G2)
    assert types.scale == 28
    phi = [Fraction(int(v)) for v in G2.phi3]
    ws = []
    for a in range(7):
        e = np.zeros(7, dtype=np.int64)
        e[a] = 1
        ws.append([Fraction(int(v)) for v in EXT7.star(EXT7.wedge(G2.phi3, 3, e, 1), 4)])
    for i in range(35):
        for j in range(35):
            p1 = phi[i] * phi[j] / 7
            p7 = sum(w[i] * w[j] / 4 for w in ws)
            assert types.scaled[0][i, j] == 28 * p1
            assert types.scaled[1][i, j] == 28 * p7
            assert types.scaled[2][i, j] == 28 * (int(i == j) - p1 - p7)


def test_projector_algebra_sees_a_broken_projector():
    types = ThreeFormTypes(G2)
    p1, p7, p27 = types.scaled
    types.scaled = (2 * p1, p7, p27)
    assert types.projector_algebra_residual() == Fraction(2, 7)  # max of 2 P1


def test_embedding_of_identity_is_three_phi():
    psi = sym_to_three_form(G2, np.eye(7, dtype=np.int64))
    assert all(int(a) == 3 * int(b) for a, b in zip(psi, G2.phi3))


def test_embedding_traceless_lands_in_27():
    types = ThreeFormTypes(G2)
    h = np.zeros((7, 7), dtype=np.int64)
    h[0, 0], h[1, 1] = 1, -1
    psi = sym_to_three_form(G2, h)
    w6, w7 = types.wedge_conditions(psi)
    assert all(int(v) == 0 for v in w6)
    assert all(int(v) == 0 for v in w7)


def test_embedding_rank():
    assert sym_to_three_form_rank(G2) == 27


def test_dirac_methods_agree_and_constants_die():
    rng = np.random.default_rng(11)
    h = FourierSymTensor.random_real(7, 1, rng, scale=0.7, count=2)
    assert (octonion_dirac_by_action(G2, h)
            - octonion_dirac_closed_form(G2, h)).max_amp() <= 1e-11
    hconst = FourierSymTensor.from_constant(np.diag([1.0, -1, 0, 0, 0, 0, 0]))
    out = octonion_dirac_by_action(G2, hconst)
    assert out.max_amp() == 0.0


def test_harmonicity_identities_for_generic_fields():
    rng = np.random.default_rng(21)
    h = FourierSymTensor.random_real(7, 1, rng, scale=0.5, count=2)
    assert codifferential_identity_residual(G2, h) <= 1e-11
    assert star_d_identity_residual(G2, h) <= 1e-11


def test_constrained_fields_are_harmonic():
    basis = harmonic_constraint_basis(G2)
    assert len(basis) == 27
    for mat in basis[:3]:
        hm = FourierSymTensor.from_constant(mat)
        psi = sym_field_to_three_form(G2, hm)
        assert psi.exterior_d().max_amp() + psi.codifferential().max_amp() <= 1e-10


def test_batched_harmonic_constraints_match_per_mode_systems():
    # the reference scan's matrices against a row-by-row build at each mode
    phi = G2.phi_tensor.astype(float)

    def per_mode(k):
        kv = np.array(k, dtype=float)
        rows = []
        for e in ops._sym_basis(7):
            cons = [np.trace(e)]
            cons.extend(kv @ e)
            cons.extend(np.einsum("ij,k,ikm->mj", e, kv, phi).reshape(-1))
            rows.append(np.array(cons))
        return np.array(rows).T

    build = kernel_scan.harmonic_systems(G2)
    modes = _freq_box(7, 1)
    for start in range(0, len(modes), kernel_scan.CHUNK):
        chunk = modes[start:start + kernel_scan.CHUNK]
        got = build(np.array(chunk, dtype=float))
        assert got.tobytes() == np.array([per_mode(k) for k in chunk]).tobytes()


def test_symbol_identity_agrees_with_the_harmonic_scan():
    basis = harmonic_constraint_basis(G2)
    extra, margin = kernel_scan.scan(7, 1, kernel_scan.harmonic_systems(G2))
    assert extra == 0 and len(basis) == 27
    assert basis.rank_margin == np.sqrt(0.5) and 0.35 < margin <= 1.0


@pytest.mark.parametrize("term", [0, 4])
def test_flipped_phi_term_fails_the_identity_and_the_scan(term):
    terms = [(t, -s if i == term else s) for i, (t, s) in enumerate(g2mod.PHI_TERMS)]
    phi3 = g2mod._coeffs_from_terms(terms, 3)
    flipped = dataclasses.replace(G2, phi3=phi3, phi_tensor=EXT7.to_tensor(phi3, 3))
    with pytest.raises(AssertionError, match="G2 rows break the symbol identity"):
        harmonic_constraint_basis(flipped)
    extra, margin = kernel_scan.scan(7, 1, kernel_scan.harmonic_systems(flipped))
    assert extra > 0 and margin < 1e-5


def test_derived_tables_belong_to_their_structure():
    # a discarded structure's id is reused by the next one built; the star
    # tensor and the embedding matrix must follow the forms of the new one
    h = FourierSymTensor.from_constant(np.eye(7))
    neg_phi, neg_star = -G2.phi3, -G2.star_phi4
    for _ in range(50):
        g = standard_g2_structure()
        assert cross_identity_residuals(g, E[0], E[1], E[2])[4] == 0
        sym_field_to_three_form(g, h)
        del g
        flipped = dataclasses.replace(G2, phi3=neg_phi, star_phi4=neg_star)
        assert cross_identity_residuals(flipped, E[0], E[1], E[2])[4] > 0
        psi = sym_field_to_three_form(flipped, h).modes[(0,) * 7]
        assert np.array_equal(psi, 3.0 * neg_phi)
        del flipped


def test_form_field_keeps_degree_under_arithmetic():
    a = FormField(3, {(1, 0, 0, 0, 0, 0, 0): np.ones(35)})
    b = FormField(3, {(0, 1, 0, 0, 0, 0, 0): np.ones(35)})
    for c in (a - b, a + b, 2.0 * a):
        assert isinstance(c, FormField) and c.p == 3 and c.n == 7
    assert (a - b).max_amp() == 1.0


def test_form_field_d_and_codifferential_adjoint():
    # independent integration-by-parts oracle for the spectral d / d*
    rng = np.random.default_rng(4)
    a = FormField(3, {(1, 0, -1, 0, 0, 0, 0):
                      rng.standard_normal(35) + 1j * rng.standard_normal(35)})
    b = FormField(4, {(1, 0, -1, 0, 0, 0, 0):
                      rng.standard_normal(35) + 1j * rng.standard_normal(35)})

    def inner(u, v):
        acc = 0j
        for k, x in u.modes.items():
            y = v.modes.get(k)
            if y is not None:
                acc += np.sum(x * np.conj(y))
        return acc * (2 * np.pi) ** 7

    lhs = inner(a.exterior_d(), b)
    rhs = inner(a, b.codifferential())
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_exterior_algebra_star_signs():
    ext = ExteriorAlgebra(4)
    e01 = np.zeros(ext.dim(2), dtype=np.int64)
    e01[ext.index[2][(0, 1)]] = 1
    star = ext.star(e01, 2)
    expect = np.zeros(ext.dim(2), dtype=np.int64)
    expect[ext.index[2][(2, 3)]] = 1
    assert np.array_equal(star, expect)


def test_wedge_table_agrees_with_wedge_by_a_one_form():
    rng = np.random.default_rng(8)
    for p in range(7):
        beta = rng.integers(-3, 4, size=EXT7.dim(p))
        batched = EXT7.wedge(E, 1, beta, p)  # one row per coframe 1-form
        assert np.array_equal(batched, EXT7.wedge1(p) @ beta)
    third = np.array([Fraction(int(v), 3) for v in G2.phi3], dtype=object)
    exact = EXT7.wedge(third, 3, G2.star_phi4, 4)
    assert exact.dtype == object and list(exact) == [Fraction(7, 3)]  # |phi|^2 / 3


def test_structure_and_spinor_compare_by_identity():
    other = standard_g2_structure()
    assert G2 == G2 and G2 != other
    assert len({G2, other, SIGMA0}) == 3
    spinor = OctonionSpinor(1, np.zeros(7, dtype=np.int64))
    assert spinor != SIGMA0 and hash(spinor) == hash(spinor)
    # the cached tables still live on each structure
    assert other.star_phi_tensor is other.star_phi_tensor
    assert np.array_equal(other.star_phi_tensor, G2.star_phi_tensor)
    assert np.array_equal(other.embedding_matrix, G2.embedding_matrix)


# -- references: the per-tuple constructions of the exterior maps ------------

def _ref_insert(idx, t):
    """Position and sign for e_idx ^ e_t, or None if idx in t."""
    if idx in t:
        return None
    pos = sum(1 for v in t if v < idx)
    return tuple(sorted(t + (idx,))), (-1) ** pos


def _ref_wedge1(ext, axis, p):
    out = np.zeros((ext.dim(p + 1), ext.dim(p)), dtype=np.int64)
    for col, t in enumerate(ext.basis[p]):
        hit = _ref_insert(axis, t)
        if hit is not None:
            tgt, sign = hit
            out[ext.index[p + 1][tgt], col] = sign
    return out


def _ref_hook1(ext, axis, p):
    out = np.zeros((ext.dim(p - 1), ext.dim(p)), dtype=np.int64)
    for col, t in enumerate(ext.basis[p]):
        if axis not in t:
            continue
        pos = t.index(axis)
        rest = t[:pos] + t[pos + 1:]
        out[ext.index[p - 1][rest], col] = (-1) ** pos
    return out


def _ref_star_table(ext, p):
    """Per basis p-form, the complementary tuple's index and the sign of the
    permutation (t, t^c)."""
    table = []
    for t in ext.basis[p]:
        comp = tuple(sorted(set(range(ext.n)) - set(t)))
        table.append((ext.index[ext.n - p][comp], _perm_sign(list(t) + list(comp))))
    return table


def _ref_star(ext, coeffs, p):
    rows, signs = zip(*_ref_star_table(ext, p))
    out = np.zeros(coeffs.shape[:-1] + (ext.dim(ext.n - p),), dtype=coeffs.dtype)
    out[..., list(rows)] = np.array(signs) * coeffs
    return out


@pytest.mark.parametrize("n", [3, 4, 7])
def test_exterior_maps_match_per_tuple_constructions_bit_for_bit(n):
    ext = ExteriorAlgebra(n)
    rng = np.random.default_rng(n)
    for p in range(n + 1):
        if p < n:
            want = np.stack([_ref_wedge1(ext, ax, p) for ax in range(n)])
            assert ext.wedge1(p).dtype == want.dtype
            assert ext.wedge1(p).tobytes() == want.tobytes()
        if p > 0:
            want = np.stack([_ref_hook1(ext, ax, p) for ax in range(n)])
            assert ext.hook1(p).dtype == want.dtype
            assert ext.hook1(p).tobytes() == want.tobytes()
        ints = rng.integers(-5, 6, size=(3, ext.dim(p)))
        parts = rng.choice([0.0, -0.0, 1.5, -2.0], size=(2, 3, ext.dim(p)))
        cplx = parts[0] + 1j * parts[1]
        cplx[0] = -0.0 * (1 + 1j)  # -0.0 in the real part, +0.0 in the imaginary one
        fracs = np.array([Fraction(int(v), 3) for v in ints[0]], dtype=object)
        for coeffs in (ints, cplx, fracs):
            got, want = ext.star(coeffs, p), _ref_star(ext, coeffs, p)
            assert got.dtype == want.dtype and got.shape == want.shape
            if coeffs.dtype == object:
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
            else:
                assert got.tobytes() == want.tobytes()


def test_exterior_tables_are_read_only():
    ext = ExteriorAlgebra(4)
    for view in (ext.wedge1(1), ext.hook1(2), ext._wedge_table(2, 2)):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0] = 5
    assert ext.wedge1(1).base is ext._wedge_table(1, 1)


# -- oracles: the per-mode loops of the dict-of-modes implementation ---------

def _loop_star(a, p):
    out = np.zeros(EXT7.dim(7 - p), dtype=complex)
    for col, (row, sign) in enumerate(_ref_star_table(EXT7, p)):
        out[row] = out[row] + sign * a[col]
    return out


def _loop_d(form, table, p, sign):
    out = {}
    for k, a in form.modes.items():
        acc = np.zeros(EXT7.dim(p), dtype=complex)
        for ax, kv in enumerate(k):
            if kv != 0:
                acc += sign * 1j * kv * (table(EXT7, ax, form.p) @ a)
        out[k] = acc
    return out


def _loop_codifferential_expansion(g2, h):
    out = {}
    for k, hk in h.modes.items():
        dh = np.stack([1j * kv * hk for kv in k])
        divh = -np.einsum("iij->j", dh)
        acc = np.zeros(EXT7.dim(2), dtype=complex)
        for j in range(7):
            if divh[j] != 0:
                acc += divh[j] * (_ref_hook1(EXT7, j, 3) @ g2.phi3)
        pvec = np.einsum("kij,jkm->im", dh, g2.phi_tensor)
        for i in range(7):
            acc += _ref_wedge1(EXT7, i, 1) @ pvec[i]
        out[k] = acc
    return out


def _loop_star_d_expansion(g2, h):
    star4 = g2.star_phi4
    out = {}
    for k, hk in h.modes.items():
        dh = np.stack([1j * kv * hk for kv in k])
        acc = np.zeros(EXT7.dim(3), dtype=complex)
        tr_d = np.einsum("kii->k", dh)
        div_d = np.einsum("kik->i", dh)
        for ax in range(7):
            acc -= tr_d[ax] * (_ref_hook1(EXT7, ax, 4) @ star4)
            acc += div_d[ax] * (_ref_hook1(EXT7, ax, 4) @ star4)
        for i in range(7):
            hook_i = _ref_hook1(EXT7, i, 4) @ star4
            for ax in range(7):
                two = _ref_hook1(EXT7, ax, 3) @ hook_i
                for j in range(7):
                    acc -= dh[ax, i, j] * (_ref_wedge1(EXT7, j, 2) @ two)
        out[k] = acc
    return out


def test_g2_field_operators_match_per_mode_loops():
    from test_operators import assert_matches_loop

    rng = np.random.default_rng(70)
    h = FourierSymTensor.random_real(7, 1, rng, scale=0.7, count=3) \
        + FourierSymTensor.from_constant(np.diag(np.arange(1.0, 8.0)))
    psi = sym_field_to_three_form(G2, h)
    assert_matches_loop(psi, {k: G2.embedding_matrix @ m.reshape(-1)
                              for k, m in h.modes.items()})
    assert_matches_loop(psi.exterior_d(), _loop_d(psi, _ref_wedge1, 4, 1.0))
    assert_matches_loop(psi.codifferential(), _loop_d(psi, _ref_hook1, 2, -1.0))
    assert_matches_loop(psi.star(), {k: _loop_star(a, 3) for k, a in psi.modes.items()})
    assert psi.exterior_d().p == 4 and psi.codifferential().p == 2 and psi.star().p == 4
    closed = {}
    for k, hk in h.modes.items():
        dh = np.stack([1j * kv * hk for kv in k])
        closed[k] = np.vstack([-np.einsum("iij->j", dh),
                               -np.einsum("kij,ikm->mj", dh, G2.phi_tensor)])
    assert_matches_loop(octonion_dirac_closed_form(G2, h), closed)
    assert_matches_loop(g2mod._codifferential_expansion(G2, h),
                        _loop_codifferential_expansion(G2, h))
    assert_matches_loop(g2mod._star_d_expansion(G2, h), _loop_star_d_expansion(G2, h))
