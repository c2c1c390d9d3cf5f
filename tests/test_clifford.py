import numpy as np
import pytest

from spinstab.clifford import (
    CYCliffordModel,
    build_gamma_rep,
    chirality_operator,
    cy_clifford_model,
    embedding_rows,
    plane_rotation,
    rotate_twisted,
    spin_lift_plane,
    spinor_embed,
    twisted_inner,
    unit_spinor,
)
from spinstab.curvature import _selfdual_basis
from spinstab.torus.fields import FourierSymTensor
from spinstab.torus.operators import spinor_embed_field


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
    zero = spinor_embed(np.zeros((4, 4)), rep)
    assert twisted_inner(zero, zero) == 0.0
    ident = spinor_embed(np.eye(4), rep)
    assert abs(twisted_inner(ident, ident) - 4.0) < 1e-14  # <h, h> = tr(Id^2) = 4


def test_embed_isometry_seeded():
    # oracle: the tensor inner product sum_ij h_ij t_ij, computed directly
    rng = np.random.default_rng(7)
    rep = build_gamma_rep(7)
    worst = 0.0
    for _ in range(25):
        a = rng.standard_normal((7, 7))
        b = rng.standard_normal((7, 7))
        h, t = 0.5 * (a + a.T), 0.5 * (b + b.T)
        direct = float(np.sum(h * t))
        worst = max(worst, abs(twisted_inner(spinor_embed(h, rep), spinor_embed(t, rep))
                               - direct))
    assert worst <= 1e-13


def test_embed_dimension_mismatch():
    rep = build_gamma_rep(4)
    with pytest.raises(ValueError):
        spinor_embed(np.zeros((3, 3)), rep)
    with pytest.raises(ValueError):
        spinor_embed(np.zeros((2, 4, 3)), rep)


def test_odd_generator_is_the_chirality_of_the_even_ones():
    for m in range(1, 6):
        top = build_gamma_rep(2 * m + 1).gamma[-1]
        assert np.array_equal(top, 1j * chirality_operator(build_gamma_rep(2 * m)))


def test_batched_embedding_matches_single_calls_and_mode_stacks():
    # one embedding for pointwise tensors, tensor stacks and Fourier mode
    # stacks, bit for bit
    rng = np.random.default_rng(11)
    for n in (4, 7):
        rep = build_gamma_rep(n)
        rows = embedding_rows(rep)
        assert np.array_equal(rows, np.stack([g[:, 0] for g in rep.gamma]))
        a = rng.standard_normal((5, n, n))
        hs = 0.5 * (a + np.swapaxes(a, 1, 2))
        field = FourierSymTensor.random_real(n, 1, rng, count=3)
        for stack in (hs, field.amps):
            out = spinor_embed(stack, rep)
            assert out.shape == (len(stack), n, rep.spin_dim)
            singles = np.stack([spinor_embed(h, rep) for h in stack])
            assert out.tobytes() == singles.tobytes()
        emb = spinor_embed_field(field, rep)
        assert emb.keys.tobytes() == field.keys.tobytes()
        assert emb.amps.tobytes() == spinor_embed(field.amps, rep).tobytes()
    # the self-dual 2-forms e_0 ^ e_a + *(e_0 ^ e_a), times 2, from the
    # Hodge star of ExteriorAlgebra(4)
    table = np.array([[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
                      [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
                      [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]])
    basis = _selfdual_basis()
    assert basis.dtype == float and not basis.flags.writeable
    assert np.array_equal(basis, table)
    assert _selfdual_basis() is basis


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
        h = 0.5 * (m + m.T)
        lhs = spinor_embed(q.T @ h @ q, rep, s_inv @ unit_spinor(rep))
        rhs = rotate_twisted(spinor_embed(h, rep), q, s_inv)
        assert np.abs(lhs - rhs).max() < 1e-13


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


def test_array_holding_values_compare_by_identity():
    value, twin = build_gamma_rep(4), build_gamma_rep(4)
    assert value == value and value != twin
    assert hash(value) == hash(value)
    assert len({value, twin}) == 2
