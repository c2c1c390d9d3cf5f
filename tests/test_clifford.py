import numpy as np
import pytest

from spinstab.clifford import (
    CYCliffordModel,
    Spinor,
    SymTensor,
    TwistedSpinor,
    build_gamma_rep,
    chirality_operator,
    cy_clifford_model,
    plane_rotation,
    rotate_twisted,
    spin_lift_plane,
    spinor_embed,
    unit_spinor,
)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 12])
def test_gamma_relations_exact(n):
    rep = build_gamma_rep(n)
    assert rep.spin_dim == 2 ** (n // 2)
    assert rep.relation_residual() == 0.0
    assert rep.skew_residual() == 0.0


def test_dimension_range_guard():
    with pytest.raises(ValueError):
        build_gamma_rep(1)
    with pytest.raises(ValueError):
        build_gamma_rep(13)


def test_n2_anticommutation_by_hand():
    rep = build_gamma_rep(2)
    g0, g1 = rep.gamma
    assert np.array_equal(g0 @ g0, -np.eye(2))
    assert np.array_equal(g1 @ g1, -np.eye(2))
    assert np.array_equal(g0 @ g1 + g1 @ g0, np.zeros((2, 2)))


def test_n3_pairwise_relations():
    rep = build_gamma_rep(3)
    assert rep.spin_dim == 2
    for i in range(3):
        for j in range(3):
            acom = rep.gamma[i] @ rep.gamma[j] + rep.gamma[j] @ rep.gamma[i]
            expect = -2.0 * np.eye(2) if i == j else np.zeros((2, 2))
            assert np.array_equal(acom, expect)


def test_n7_relation_table():
    rep = build_gamma_rep(7)
    assert rep.spin_dim == 8
    # 49 products against -2 delta identity, exact
    assert rep.relation_residual() == 0.0


def test_chirality_squares_to_identity():
    rep = build_gamma_rep(4)
    chi = chirality_operator(rep)
    assert np.array_equal(chi @ chi, np.eye(4))
    for g in rep.gamma:
        assert np.abs(chi @ g + g @ chi).max() == 0.0


def test_embed_zero_and_identity():
    rep = build_gamma_rep(4)
    zero = spinor_embed(SymTensor(np.zeros((4, 4))), rep)
    assert zero.inner(zero) == 0.0
    ident = spinor_embed(SymTensor(np.eye(4)), rep)
    assert abs(ident.inner(ident) - 4.0) < 1e-14  # <h, h> = tr(Id^2) = 4


def test_embed_isometry_seeded():
    # oracle: the tensor inner product sum_ij h_ij t_ij, computed directly
    rng = np.random.default_rng(7)
    rep = build_gamma_rep(7)
    worst = 0.0
    for _ in range(25):
        a = rng.standard_normal((7, 7))
        b = rng.standard_normal((7, 7))
        h, t = SymTensor(0.5 * (a + a.T)), SymTensor(0.5 * (b + b.T))
        direct = float(np.sum(h.components * t.components))
        worst = max(worst, abs(spinor_embed(h, rep).inner(spinor_embed(t, rep)) - direct))
    assert worst <= 1e-13


def test_embed_dimension_mismatch():
    rep = build_gamma_rep(4)
    with pytest.raises(ValueError):
        spinor_embed(SymTensor(np.zeros((3, 3))), rep)


@pytest.mark.parametrize("n", [4, 7])
def test_spin_equivariance(n):
    rng = np.random.default_rng(3)
    rep = build_gamma_rep(n)
    for _ in range(4):
        a, b = rng.choice(n, size=2, replace=False)
        theta = float(rng.uniform(0.1, 1.4))
        q = plane_rotation(n, a, b, theta)
        s_inv = spin_lift_plane(rep, a, b, -theta)
        m = rng.standard_normal((n, n))
        h = SymTensor(0.5 * (m + m.T))
        hq = SymTensor(q.T @ h.components @ q)
        lhs = spinor_embed(hq, rep, Spinor(s_inv @ unit_spinor(rep).components))
        rhs = rotate_twisted(spinor_embed(h, rep), q, s_inv)
        assert np.abs(lhs.components - rhs.components).max() < 1e-13


def test_spin_lift_conjugates_generators():
    rep = build_gamma_rep(4)
    theta = 0.813
    s = spin_lift_plane(rep, 0, 1, theta)
    lhs = s @ rep.gamma[0] @ np.linalg.inv(s)
    rhs = np.cos(theta) * rep.gamma[0] + np.sin(theta) * rep.gamma[1]
    assert np.abs(lhs - rhs).max() < 1e-14


# ---------------------------------------------------------------------------
# antiholomorphic form model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cy_model_relations_exact(m):
    model = cy_clifford_model(m)
    assert model.relation_residual() == 0.0
    assert model.parity_residual() == 0.0


def test_cy_model_range_guard():
    with pytest.raises(ValueError):
        CYCliffordModel(5)


def test_cy_action_on_constant_form():
    # X = e_1 applied to the constant function: sqrt2 * pi01(e_1^*) = dzbar/sqrt2
    model = cy_clifford_model(1)
    out = model.act_on_form(np.array([1.0, 0.0]), {frozenset(): 1.0})
    assert set(out) == {frozenset({0})}
    assert abs(out[frozenset({0})] - np.sqrt(2.0) * 0.5) < 1e-16


def test_cy_action_squares_to_minus_identity():
    model = cy_clifford_model(2)
    rng = np.random.default_rng(0)
    for ax in range(4):
        x = np.zeros(4)
        x[ax] = 1.0
        coeffs = {
            frozenset(): complex(rng.standard_normal()),
            frozenset({0}): complex(rng.standard_normal()),
            frozenset({1}): complex(rng.standard_normal()),
            frozenset({0, 1}): complex(rng.standard_normal()),
        }
        out = model.act_on_form(x, model.act_on_form(x, coeffs))
        for idx, val in coeffs.items():
            assert abs(out.get(idx, 0.0) + val) < 1e-15


def test_cy_vacuum_annihilated_by_contractions():
    model = cy_clifford_model(2)
    for ax in range(4):
        x = np.zeros(4)
        x[ax] = 1.0
        out = model.act_on_form(x, {frozenset(): 1.0})
        # only creation terms: the vacuum never reappears
        assert frozenset() not in out or out[frozenset()] == 0.0


def test_cy_formula_matches_orthonormal_model():
    for m in (1, 2):
        model = cy_clifford_model(m)
        d = model.normalization()
        for ax in range(2 * m):
            formula = d @ model.form_matrix(ax) @ np.linalg.inv(d)
            assert np.abs(formula - model.gamma[ax]).max() < 1e-15


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cy_intertwiner(m):
    model = cy_clifford_model(m)
    rep = build_gamma_rep(2 * m)
    u, resid = model.intertwiner(rep)
    assert resid < 1e-12
    assert np.abs(u @ u.conj().T - np.eye(model.dim)).max() < 1e-12


def _array_holders():
    rep = build_gamma_rep(4)
    return [
        (rep, lambda: build_gamma_rep(4)),
        (unit_spinor(rep), lambda: unit_spinor(rep)),
        (TwistedSpinor(np.ones((4, 4))), lambda: TwistedSpinor(np.ones((4, 4)))),
        (SymTensor(np.eye(3)), lambda: SymTensor(np.eye(3))),
    ]


def test_array_holding_values_compare_by_identity():
    for value, rebuild in _array_holders():
        twin = rebuild()
        assert value == value and value != twin
        assert hash(value) == hash(value)
        assert len({value, twin}) == 2
