import numpy as np
import pytest

from spinstab.clifford import cy_clifford_model
from spinstab.torus.cy import dbar_symbols, dirac_vs_dolbeault
from spinstab.torus.fields import _freq_box
from spinstab.torus.operators import dirac_symbol


# -- references: the per-mode loops the stacked symbols replaced -------------

def _loop_dbar_symbol(model, k):
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for j in range(model.m):
        kx, ky = k[2 * j], k[2 * j + 1]
        out += (1.0 / np.sqrt(2.0)) * (1j * kx - ky) * model._create[j]
    return out


def _loop_dbar_star_symbol(model, k):
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for j in range(model.m):
        kx, ky = k[2 * j], k[2 * j + 1]
        out += (1.0 / np.sqrt(2.0)) * (1j * kx + ky) * model._create[j].conj().T
    return out


def _loop_dirac_vs_dolbeault(m, cutoff):
    model = cy_clifford_model(m)
    worst = worst_sq = adj_defect = 0.0
    eye = np.eye(model.dim)
    modes = list(_freq_box(2 * m, cutoff)) + [(0,) * (2 * m)]
    for k, d_cliff in zip(modes, dirac_symbol(model.gamma, modes)):
        db = _loop_dbar_symbol(model, k)
        dbs = _loop_dbar_star_symbol(model, k)
        comb = np.sqrt(2.0) * (db - dbs)
        worst = max(worst, float(np.abs(d_cliff - comb).max()))
        k2 = float(sum(v * v for v in k))
        worst_sq = max(worst_sq, float(np.abs(comb @ comb - k2 * eye).max()))
        adj_defect = max(adj_defect, float(np.abs(db.conj().T + dbs).max()))
    return {"operator_residual": worst, "square_residual": worst_sq,
            "adjoint_defect": adj_defect, "adjoint_sign": -1,
            "modes": (2 * cutoff + 1) ** (2 * m)}


def _dbar(model, k):
    """The one-mode slices of dbar_symbols: (dbar, dbar*) at k."""
    db, dbs = dbar_symbols(model, [k])
    return db[0], dbs[0]


@pytest.mark.parametrize("m", [1, 2])
def test_stacked_symbols_match_per_mode_loops_bit_for_bit(m):
    model = cy_clifford_model(m)
    modes = list(_freq_box(2 * m, 2)) + [(0,) * (2 * m)]
    modes += [tuple(-v for v in k) for k in modes]
    db, dbs = dbar_symbols(model, modes)
    assert db.shape == dbs.shape == (len(modes), model.dim, model.dim)
    assert db.tobytes() == np.array([_loop_dbar_symbol(model, k) for k in modes]).tobytes()
    assert dbs.tobytes() == np.array([_loop_dbar_star_symbol(model, k)
                                      for k in modes]).tobytes()
    got = dirac_vs_dolbeault(m, 2)
    want = _loop_dirac_vs_dolbeault(m, 2)
    assert got == want
    assert all(np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()
               for key in ("operator_residual", "square_residual", "adjoint_defect"))


def test_constant_form_killed():
    model = cy_clifford_model(1)
    k = (0, 0)
    v = np.zeros(2, dtype=complex)
    v[0] = 1.0
    assert np.abs(dirac_symbol(model.gamma, k) @ v).max() == 0.0
    assert np.abs(_dbar(model, k)[0] @ v).max() == 0.0


def test_single_mode_t2():
    # both operators on the second basis state at one frequency
    model = cy_clifford_model(1)
    v = np.zeros(model.dim, dtype=complex)
    v[1] = 1.0
    for k in ((1, 0), (0, 1)):
        lhs = dirac_symbol(model.gamma, k) @ v
        db, dbs = _dbar(model, k)
        rhs = np.sqrt(2.0) * (db - dbs) @ v
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
        db = _dbar(model, k)[0]
        assert np.abs(db @ db).max() < 1e-13


def test_dolbeault_laplacian_value():
    # sqrt2(dbar - dbar*) squares to |k|^2 (flat Weitzenboeck)
    model = cy_clifford_model(1)
    k = (2, 1)
    db, dbs = _dbar(model, k)
    comb = np.sqrt(2.0) * (db - dbs)
    assert np.abs(comb @ comb - 5.0 * np.eye(2)).max() < 1e-12
