import numpy as np

from spinstab.clifford import cy_clifford_model
from spinstab.torus.cy import (
    dbar_star_symbol,
    dbar_symbol,
    dirac_vs_dolbeault,
)
from spinstab.torus.operators import dirac_symbol


def test_constant_form_killed():
    model = cy_clifford_model(1)
    k = (0, 0)
    v = np.zeros(2, dtype=complex)
    v[0] = 1.0
    assert np.abs(dirac_symbol(model.gamma, k) @ v).max() == 0.0
    assert np.abs(dbar_symbol(model, k) @ v).max() == 0.0


def test_single_mode_t2():
    # both operators on the second basis state at one frequency
    model = cy_clifford_model(1)
    v = np.zeros(model.dim, dtype=complex)
    v[1] = 1.0
    for k in ((1, 0), (0, 1)):
        lhs = dirac_symbol(model.gamma, k) @ v
        rhs = np.sqrt(2.0) * (dbar_symbol(model, k) - dbar_star_symbol(model, k)) @ v
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_operator_residual_m1():
    out = dirac_vs_dolbeault(1, 3)
    assert out["operator_residual"] <= 1e-10
    assert out["adjoint_defect"] <= 1e-12
    assert out["adjoint_sign"] == -1


def test_operator_residual_m2():
    out = dirac_vs_dolbeault(2, 2)
    assert out["operator_residual"] <= 1e-10
    assert out["square_residual"] <= 1e-10


def test_dbar_squares_to_zero():
    model = cy_clifford_model(2)
    for k in ((1, 0, 0, 0), (1, 2, -1, 0), (0, 0, 1, 1)):
        db = dbar_symbol(model, k)
        assert np.abs(db @ db).max() < 1e-13


def test_dolbeault_laplacian_value():
    # sqrt2(dbar - dbar*) squares to |k|^2 (flat Weitzenboeck)
    model = cy_clifford_model(1)
    k = (2, 1)
    comb = np.sqrt(2.0) * (dbar_symbol(model, k) - dbar_star_symbol(model, k))
    assert np.abs(comb @ comb - 5.0 * np.eye(2)).max() < 1e-12
