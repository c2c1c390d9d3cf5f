import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import spinstab
from spinstab.torus import fields as fields_module
from spinstab.torus.fields import (
    FourierMetric,
    FourierScalarField,
    FourierSymTensor,
    Grid,
    ModeField,
    ifftn,
    irfftn,
    rfftn,
)
from spinstab.torus.geometry import MetricGeometry, metric_curvature
from spinstab.torus.operators import cover_pullback, tt_project, tt_split


def test_reality_enforced():
    with pytest.raises(ValueError):
        FourierScalarField(2, {(1, 0): 1.0 + 0j})  # missing conjugate


def test_cosine_sampling_matches_formula():
    grid = Grid(2, 32)
    f = FourierScalarField.cosine(2, (2, -1), 0.7, phase=0.3)
    x, y = grid.points()
    expect = 0.7 * np.cos(2 * x - y + 0.3)
    assert np.abs(f.sample(grid) - expect).max() < 1e-14


def test_sample_roundtrip():
    rng = np.random.default_rng(0)
    grid = Grid(3, 16)
    f = FourierScalarField.random_real(3, 2, rng, count=4)
    vals = f.sample(grid)
    spec = np.fft.fftn(vals) / grid.size**3
    for k, a in f.modes.items():
        assert abs(spec[tuple(v % grid.size for v in k)] - a) < 1e-13


def test_grid_deriv_is_exact_for_band_limited():
    grid = Grid(2, 32)
    f = FourierScalarField.cosine(2, (3, 1), 1.0)
    x, y = grid.points()
    expect = -3.0 * np.sin(3 * x + y)
    assert np.abs(grid.deriv(f.sample(grid), 0) - expect).max() < 1e-12


def test_deriv_and_laplacian_symbols():
    f = FourierScalarField.cosine(3, (1, 2, 2), 1.0)
    lap = f.deriv(0).deriv(0) + f.deriv(1).deriv(1) + f.deriv(2).deriv(2)
    for k, a in lap.modes.items():
        assert abs(a + 9.0 * f.modes[k]) == 0.0
    d0 = f.deriv(0)
    for k, a in d0.modes.items():
        assert a == 1j * k[0] * f.modes[k]


def test_l2_inner_matches_grid_quadrature():
    rng = np.random.default_rng(5)
    grid = Grid(2, 32)
    f = FourierScalarField.random_real(2, 3, rng, count=5)
    g = FourierScalarField.random_real(2, 3, rng, count=5)
    spectral = complex(f.l2_inner(g)).real
    quad = grid.integrate(f.sample(grid) * g.sample(grid))
    assert abs(spectral - quad) < 1e-10 * max(1.0, abs(spectral))


def test_sym_tensor_constructors_and_trace():
    h = FourierSymTensor.from_constant(np.diag([1.0, 2.0, 3.0]))
    tr = h.trace_flat()
    assert tr.modes == {(0, 0, 0): 6.0 + 0j}
    div = h.divergence_flat()
    assert all(not d.modes for d in div)


def test_conformal_tensor_is_trace_only():
    u = FourierScalarField.cosine(3, (1, 0, 0), 0.5)
    h = FourierSymTensor.conformal(u)
    assert set(h.components) == {(0, 0), (1, 1), (2, 2)}
    tr = h.trace_flat()
    for k, a in tr.modes.items():
        assert abs(a - 3 * u.modes[k]) == 0.0


def test_metric_positivity_guard():
    grid = Grid(2, 16)
    h = FourierSymTensor.from_mode(2, (1, 0), np.diag([3.0, 0.0]))
    g = FourierMetric.from_perturbation(h)  # 1 + 3 cos dips negative
    with pytest.raises(ValueError, match="not positive"):
        MetricGeometry(g, grid)


def test_metric_mode_matrix_symmetry():
    rng = np.random.default_rng(3)
    h = FourierSymTensor.random_real(3, 1, rng, count=2)
    for m in h.modes.values():
        assert np.abs(m - m.T).max() == 0.0


def test_grid_cutoff_guard():
    f = FourierScalarField.cosine(2, (8, 0), 1.0)
    with pytest.raises(ValueError):
        f.sample(Grid(2, 16))


def test_conformal_flat_with_complex_amplitudes():
    # sin(x) has imaginary amplitudes: the -k mode must hold the conjugate
    # of the +k amplitude for the metric to be real
    grid = Grid(2, 32)
    u = FourierScalarField.cosine(2, (1, 0), 0.1, phase=-np.pi / 2)
    scalar = metric_curvature(FourierMetric.conformal_flat(u, grid), grid)["scalar"]
    uv = u.sample(grid)
    lap = grid.deriv(grid.deriv(uv, 0), 0) + grid.deriv(grid.deriv(uv, 1), 1)
    assert np.abs(scalar + 2.0 * np.exp(-2.0 * uv) * lap).max() <= 1e-9


def test_mode_field_arithmetic_and_norms():
    a = ModeField(2, {(1, 0): [[1.0, 2j]], (0, 1): [[3.0, 0.0]]})
    b = ModeField(2, {(1, 0): [[1.0, 1.0]], (2, 0): [[0.0, -4.0]]})
    diff = a - b
    assert set(diff.modes) == {(1, 0), (0, 1), (2, 0)}
    assert np.array_equal(diff.modes[(1, 0)], np.array([[0.0, 2j - 1.0]]))
    assert np.array_equal(diff.modes[(2, 0)], np.array([[0.0, 4.0]]))
    assert diff.max_amp() == 4.0
    assert ((a + b) - b - a).max_amp() == 0.0
    assert (2.0 * a).max_amp() == 6.0
    assert np.array_equal(a.deriv(0).modes[(1, 0)], np.array([[1j, -2.0]]))
    vol = (2 * np.pi) ** 2
    assert a.l2_norm_sq() == 14.0 * vol
    assert a.l2_inner(b).real == 1.0 * vol
    assert ModeField(2, {}).max_amp() == 0.0


def test_fourier_max_amp():
    f = FourierScalarField.cosine(2, (1, 0), 0.5) + FourierScalarField.constant(2, -2.0)
    assert f.max_amp() == 2.0
    h = FourierSymTensor.from_mode(2, (1, 1), np.array([[1.0, 3.0], [3.0, 0.0]]))
    assert h.max_amp() == 1.5
    assert FourierSymTensor.zero(2).max_amp() == 0.0


def _complex_gradient(grid, f):
    """The complex-FFT derivative formula: ifftn(1j k fftn(f)).real per axis."""
    axes = range(-grid.n, 0)
    spec = np.fft.fftn(f, axes=axes)
    return np.stack([np.fft.ifftn(1j * k * spec, axes=axes).real
                     for k in grid.wavenumbers])


def _rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_real_gradient_matches_complex_formula_with_nyquist_energy():
    grid = Grid(3, 8)
    f = np.random.default_rng(0).standard_normal(grid.shape)
    # white noise carries energy in every Nyquist bin
    nyq = np.fft.fftn(f)[4]
    assert np.abs(nyq).max() > 1.0
    assert _rel_err(grid.gradient(f), _complex_gradient(grid, f)) < 1e-12


def test_real_gradient_matches_complex_formula_odd_grid():
    grid = Grid(2, 15)
    f = np.random.default_rng(1).standard_normal(grid.shape)
    assert _rel_err(grid.gradient(f), _complex_gradient(grid, f)) < 1e-12


def test_gradient_batches_leading_axes():
    grid = Grid(3, 10)
    h = np.random.default_rng(2).standard_normal((3, 3) + grid.shape)
    out = grid.gradient(h)
    assert out.shape == (3, 3, 3) + grid.shape
    for i in range(3):
        for j in range(3):
            part = grid.gradient(h[i, j])
            assert _rel_err(out[:, i, j], part) < 1e-12
            assert _rel_err(out[:, i, j], _complex_gradient(grid, h[i, j])) < 1e-12


def test_mode_matrices_roundtrip():
    rng = np.random.default_rng(6)
    h = FourierSymTensor.random_real(3, 2, rng, count=3)
    h = h + FourierSymTensor.from_constant(np.diag([1.0, 0.0, -2.0]))
    back = FourierSymTensor.from_mode_matrices(3, h.modes)
    assert set(back.components) == set(h.components)
    for key, f in h.components.items():
        assert back.components[key].modes == f.modes


def _sorted_path_results():
    """Every build on an existing field's keys, on inputs with zero entries,
    zero modes and signed zeros."""
    from spinstab.clifford import build_gamma_rep
    from spinstab.g2 import FormField
    from spinstab.torus.operators import spinor_embed_field, twisted_dirac

    rng = np.random.default_rng(12)
    h = FourierSymTensor.random_real(3, 2, rng, scale=0.7, count=4)  # sparse entries
    h = h + FourierSymTensor.from_constant(np.diag([1.0, -1.0, 0.0]))  # a traceless mode
    h.amps[1, 0, 0] = complex(-0.0, 0.25)
    u = FourierScalarField.random_real(3, 2, rng, scale=0.5, count=3)
    rep = build_gamma_rep(3)
    phi = spinor_embed_field(h, rep)
    form = FormField(2, {(1, 0, 0, 0, 0, 0, 0): np.arange(21.0) - 3.0,
                         (-1, 0, 0, 0, 0, 0, 0): np.arange(21.0) - 3.0})
    return {
        "_scaled": h._scaled(h.keys[:, 0] ** 2),  # zero on the k_0 = 0 modes
        "deriv": u.deriv(2),
        "__rmul__": -2.5 * h,
        "__rmul__ zero": 0.0 * u,
        "form __rmul__": 2.0 * form,
        "component": h.component(0, 1),
        "trace_flat": h.trace_flat(),
        "divergence_flat": h.divergence_flat()[2],
        "from_perturbation": FourierMetric.from_perturbation(h, 0.3),
        "conformal": FourierSymTensor.conformal(u),
        "tt_split": tt_split(h)[1],
        "tt_project": tt_project(h),
        "spinor_embed_field": phi,
        "twisted_dirac": twisted_dirac(phi, rep),
    }


def test_builds_on_existing_keys_equal_the_sorting_path(monkeypatch):
    fast = _sorted_path_results()
    monkeypatch.setattr(ModeField, "_build_sorted",
                        classmethod(lambda cls, n, keys, amps: cls._build(n, keys, amps)))
    monkeypatch.setattr(ModeField, "_on_keys", lambda self, amps: self._like(self.keys, amps))
    slow = _sorted_path_results()
    for name, f in fast.items():
        ref = slow[name]
        assert type(f) is type(ref) and f.n == ref.n, name
        assert getattr(f, "p", None) == getattr(ref, "p", None), name
        assert f.keys.dtype == ref.keys.dtype and f.keys.tobytes() == ref.keys.tobytes(), name
        assert f.amps.dtype == ref.amps.dtype and f.amps.shape == ref.amps.shape, name
        assert f.amps.tobytes() == ref.amps.tobytes(), name
    # the zero modes are dropped on both paths
    assert len(fast["__rmul__ zero"].keys) == 0
    assert fast["_scaled"].keys[:, 0].all() and not fast["from_perturbation"].keys[:, 0].all()


def test_keys_are_sorted_and_modes_follow_key_order():
    rng = np.random.default_rng(7)
    h = FourierSymTensor.random_real(2, 2, rng, count=3)
    assert h.keys.dtype == np.int64 and h.keys.shape == (len(h.amps), 2)
    assert [tuple(k) for k in h.keys.tolist()] == sorted(set(map(tuple, h.keys.tolist())))
    assert list(h.modes) == [tuple(k) for k in h.keys.tolist()]
    for key, f in h.components.items():
        assert list(f.modes) == [k for k, a in h.modes.items() if a[key] != 0]
    # a positive dilation keeps the key order, so the cover and the base
    # sums of cover_quadratic_ratio visit the modes alike
    ph = cover_pullback(h, (3, 2))
    assert ph.keys.tolist() == (h.keys * [3, 2]).tolist()
    assert ph.amps.tobytes() == h.amps.tobytes()


def test_max_amp_is_python_abs():
    # np.abs of a complex differs from abs() in the last bit on about a
    # third of random draws
    rng = np.random.default_rng(9)
    z = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    for a in z:
        assert ModeField(1, {(1,): a}).max_amp() == abs(complex(a))
    f = ModeField(1, {(k,): a for k, a in enumerate(z.reshape(40, 10))})
    assert f.max_amp() == max(abs(complex(a)) for a in z)
    for _ in range(50):
        g = FourierScalarField.random_real(2, 2, rng, count=2)
        assert g.max_amp() == max(abs(a) for a in g.modes.values())


def test_zero_frequency_cosine_is_constant():
    grid = Grid(2, 8)
    for phase in (0.0, 0.3):
        f = FourierScalarField.cosine(2, (0, 0), 1.0, phase=phase)
        assert f.modes == FourierScalarField.constant(2, np.cos(phase)).modes
        assert np.abs(f.sample(grid) - np.cos(phase)).max() < 1e-15
    h = FourierSymTensor.from_mode(2, (0, 0), np.eye(2), phase=0.3)
    ref = FourierSymTensor.from_constant(np.cos(0.3) * np.eye(2))
    assert set(h.components) == set(ref.components)
    for key, f in ref.components.items():
        assert h.components[key].modes == f.modes


def _derived_fields(n, seed):
    """Fields derived inside the package from random tensors on T^n."""
    rng = np.random.default_rng(seed)
    h = FourierSymTensor.random_real(n, 1, rng, scale=1.0, count=3)
    g = FourierSymTensor.random_real(n, 1, rng, scale=0.5, count=2)
    u = FourierScalarField.random_real(n, 1, rng, count=2)
    out = [*tt_split(h), tt_project(h), h + g, h - g, g - g, -1.0 * h,
           h.deriv(1), h.rough_laplacian_flat(), cover_pullback(h, (2,) * n),
           FourierSymTensor.from_stack(n, h.keys, np.conj(h.amps.real + 0j)),  # signed zeros
           FourierSymTensor.from_mode(n, (1,) + (0,) * (n - 1), np.eye(n), phase=0.5),
           FourierMetric.from_perturbation(h, 0.5) + g]
    out += [f for t in list(out) for f in t.components.values()]
    return out + [u._scaled(-(u.keys ** 2).sum(axis=1)), u.deriv(0), u + 2.0 * u, u - u, h.trace_flat(),
                  *h.divergence_flat()]


def _assert_canonical(f):
    """keys sorted and distinct, one nonzero amplitude per key."""
    rows = [tuple(k) for k in f.keys.tolist()]
    assert f.keys.dtype == np.int64 and f.keys.shape == (len(rows), f.n)
    assert rows == sorted(set(rows))
    assert f.amps.dtype == complex and len(f.amps) == len(rows)
    assert np.all(np.any(f.amps != 0, axis=tuple(range(1, f.amps.ndim))))


@pytest.mark.parametrize("n", [4, 7])
def test_trusted_containers_match_public_constructor(n):
    # every field is built by one path: a derived field equals the dict
    # constructor applied to its own modes, keys, order and value bits
    # (signed zeros included)
    for f in _derived_fields(n, seed=n):
        _assert_canonical(f)
        if type(f) is FourierScalarField:
            ref = FourierScalarField(f.n, f.modes, check_reality=False)
            assert all(type(v) is complex for v in f.modes.values())
        else:
            ref = type(f)(f.n, f.modes)
        assert type(ref) is type(f) and ref.n == f.n
        assert all(type(v) is int for k in f.modes for v in k)
        assert ref.keys.tobytes() == f.keys.tobytes()
        assert ref.amps.shape == f.amps.shape and ref.amps.tobytes() == f.amps.tobytes()


@pytest.mark.parametrize("n", [4, 7])
def test_rough_laplacian_matches_negated_laplacian_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    h = FourierSymTensor.random_real(n, 2, rng, scale=1.0, count=3)
    h = h + FourierSymTensor.from_constant(np.ones((n, n)))
    # raw amplitudes with signed zeros, written into the stack past the
    # constructors
    for i, a in enumerate(h.amps):
        if i % 3 < 2:
            (a.real, a.imag)[i % 3][...] = -0.0
    h.amps[np.flatnonzero((h.keys == 0).all(axis=1))] = complex(-0.0, 0.5)
    ref = {key: -1.0 * f._scaled(-(f.keys ** 2).sum(axis=1))
           for key, f in h.components.items()}
    out = h.rough_laplacian_flat()
    assert type(out) is FourierSymTensor and list(out.components) == list(ref)
    for key, f in out.components.items():
        assert list(f.modes) == list(ref[key].modes)
        # 0j + a, as the scalar containers once stored their amplitudes:
        # |k|^2 a and -1.0 (-|k|^2 a) differ only in the sign of a zero
        assert (0j + f.amps).tobytes() == (0j + ref[key].amps).tobytes()


def test_public_constructor_still_canonicalizes():
    f = FourierScalarField(2, {(np.int64(1), 0): 1.0, (-1, 0): 1.0, (0, 0): 0.0})
    assert list(f.modes) == [(-1, 0), (1, 0)]  # lexicographic, the zero dropped
    assert f.keys.tolist() == [[-1, 0], [1, 0]] and f.amps.tolist() == [1.0, 1.0]
    assert all(type(v) is int for k in f.modes for v in k)
    with pytest.raises(ValueError, match="wrong length"):
        FourierScalarField(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="reality"):
        FourierScalarField(2, {(1, 0): 1.0})


def _per_component_samples(field, grid):
    """The per-component complex sampling formula: each nonzero upper-triangle
    entry's amplitudes placed on the full fftn box, one complex inverse
    transform per entry, its real part kept."""
    n = field.n
    out = np.zeros((n, n) + grid.shape)
    for i in range(n):
        for j in range(i, n):
            amps = {k: complex(a[i, j]) for k, a in field.modes.items() if a[i, j] != 0}
            if amps:
                spec = np.zeros(grid.shape, dtype=complex)
                for k, a in amps.items():
                    spec[tuple(v % grid.size for v in k)] += a
                out[i, j] = out[j, i] = (ifftn(spec) * grid.size**n).real
    if isinstance(field, FourierMetric):
        for i in range(n):
            out[i, i] += 1.0
    return out


@pytest.mark.parametrize("n,size", [(2, 16), (3, 12), (4, 8)])
def test_sample_matrix_matches_per_component_formula(n, size):
    grid = Grid(n, size)
    rng = np.random.default_rng(20 + n)
    u = FourierScalarField.random_real(n, 1, rng, scale=0.1, count=2)
    k = (1,) + (0,) * (n - 2) + (-1,)
    amat = np.diag(np.arange(n, dtype=float))
    amat[0, -1] = amat[-1, 0] = 0.3
    fields = [
        FourierSymTensor.random_real(n, 2, rng, scale=0.1, count=2),
        FourierMetric.from_perturbation(FourierSymTensor.random_real(n, 1, rng, scale=0.1)),
        FourierMetric.conformal_flat(u, grid),
        FourierMetric.from_perturbation(FourierSymTensor.from_mode(n, k, 0.1 * amat, phase=0.4)),
    ]
    for field in fields:
        out, ref = field.sample_matrix(grid), _per_component_samples(field, grid)
        assert np.array_equal(out == 0, ref == 0)
        assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()


def test_zero_entries_are_exact_zeros_and_not_sampled(monkeypatch):
    grid = Grid(3, 12)
    u = FourierScalarField.random_real(3, 1, np.random.default_rng(10), scale=0.1, count=2)
    conf = FourierMetric.conformal_flat(u, grid)
    mode = FourierSymTensor.from_mode(3, (1, 0, 1), np.diag([1.0, 0.0, -1.0]))
    calls = []
    irfftn = fields_module.irfftn

    def counted(a, s, axes=None):
        calls.extend(np.ndindex(a.shape[:a.ndim - len(s)]))  # one per transformed entry
        return irfftn(a, s, axes)

    monkeypatch.setattr(fields_module, "irfftn", counted)
    # the conformal metric's three equal diagonal entries are transformed once
    for field, sampled in ((conf, 1), (mode, 2), (FourierMetric.flat(3), 0)):
        calls.clear()
        out = field.sample_matrix(grid)
        assert len(calls) == sampled
        zero = [(i, j) for i in range(3) for j in range(3)
                if i != j or (field is mode and i == 1)]
        for i, j in zero:
            assert not out[i, j].any()
    assert np.array_equal(out, np.broadcast_to(np.eye(3)[:, :, None, None, None], out.shape))


def test_geometry_rejects_unresolved_mode():
    grid = Grid(3, 8)
    amat = np.zeros((3, 3))
    amat[0, 2] = amat[2, 0] = 0.01
    for k in ((4, 0, 0), (1, -5, 0)):
        h = FourierSymTensor.from_mode(3, k, amat)
        with pytest.raises(ValueError, match="cannot resolve"):
            MetricGeometry(FourierMetric.from_perturbation(h), grid)


def test_components_are_the_nonzero_upper_entries():
    amat = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    h = FourierSymTensor.from_mode(3, (1, 0, 0), amat, phase=0.2)
    comps = h.components
    assert list(comps) == [(0, 0), (0, 1), (2, 2)]
    for (i, j), f in comps.items():
        assert type(f) is FourierScalarField
        assert all(type(a) is complex for a in f.modes.values())
        assert f.modes == {k: complex(a[i, j]) for k, a in h.modes.items()}
        assert h.component(j, i).modes == f.modes
    assert not h.component(1, 2).modes
    assert FourierSymTensor.zero(3).components == {}


def _random_field(kind, keys, rng):
    """A field of the given kind with a random nonzero amplitude at each key."""
    n = len(keys[0]) if keys else 3
    if kind == "scalar":
        # conjugate pairs, so the public constructor's reality check passes
        modes = {}
        for k in keys:
            a = complex(rng.standard_normal(), rng.standard_normal())
            modes[k], modes[tuple(-v for v in k)] = a, np.conj(a)
        return FourierScalarField(n, modes)
    if kind == "tensor":
        mats = {}
        for k in keys:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats[k] = m + m.T
        return FourierSymTensor(n, mats)
    return ModeField(n, {k: rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
                         for k in keys})


def _dict_union(a, b, op):
    """The dict-of-modes reference for a + b or a - b: absent modes read 0,
    zero results are dropped."""
    da, db = dict(a.modes), dict(b.modes)
    out = {}
    for k in list(da) + [k for k in db if k not in da]:
        v = op(np.asarray(da.get(k, 0.0), dtype=complex), np.asarray(db.get(k, 0.0), dtype=complex))
        if np.any(v != 0):
            out[k] = v
    return out


@pytest.mark.parametrize("kind", ["scalar", "tensor", "generic"])
@pytest.mark.parametrize("case", ["disjoint", "overlapping", "empty"])
def test_union_and_inner_match_dict_reference(kind, case):
    rng = np.random.default_rng(30)
    keys_a = [(0, 0, 1), (1, -1, 0), (-2, 0, 1), (2, 1, -1)]
    keys_b = {"disjoint": [(2, 2, 2), (-1, 0, 0), (0, 3, 0)],
              "overlapping": [(1, -1, 0), (2, 1, -1), (3, 0, 0)],
              "empty": []}[case]
    a = _random_field(kind, keys_a, rng)
    b = _random_field(kind, keys_b, rng) if keys_b else type(a)(3, {})
    if kind == "generic" and not keys_b:
        b = ModeField._build(3, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 2, 3)))
    vol = (2 * np.pi) ** 3
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        for got, op in ((x + y, np.add), (x - y, np.subtract)):
            _assert_canonical(got)
            assert type(got) is type(a)
            ref = _dict_union(x, y, op)
            assert sorted(got.modes) == sorted(ref)
            for k, v in got.modes.items():
                assert np.array_equal(np.asarray(v), ref[k])
        dx, dy = dict(x.modes), dict(y.modes)
        ref = sum((complex(np.vdot(dy[k], dx[k])) for k in dx if k in dy), 0j) * vol
        got = x.l2_inner(y)
        assert type(got) is complex
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
    assert (a - a).keys.shape == (0, 3) and (a - a).max_amp() == 0.0
    _assert_canonical(2.0 * a)
    _assert_canonical(0.0 * a)
    assert not (0.0 * a).modes


def test_build_path_sums_repeated_keys_and_drops_zeros():
    keys = np.array([[1, 0], [0, 2], [1, 0], [-1, 5], [0, 2]])
    amps = np.array([1.0, 2.0 + 1j, -1.0, 3.0, 4.0])
    f = ModeField._build(2, keys, amps)
    _assert_canonical(f)
    assert dict(f.modes) == {(-1, 5): 3.0, (0, 2): 6.0 + 1j}


@pytest.mark.parametrize("n,size,active", [
    (2, 16, (False, True)), (3, 24, (True, False, False)),
    (3, 15, (False, True, True)), (4, 12, (True, True, False, False)),
])
def test_invariant_grid_matches_the_full_grid_on_a_slice(n, size, active):
    full = Grid(n, size)
    sub = full.invariant(active)
    cut = tuple(slice(None) if a else slice(0, 1) for a in active)
    assert sub.shape == tuple(size if a else 1 for a in active)
    # fields with k_a = 0 on the inactive axes
    rng = np.random.default_rng(size)
    mask = np.array(active, dtype=np.int64)
    f0 = FourierScalarField.random_real(n, 2, rng, count=4)
    f = FourierScalarField._build(n, f0.keys * mask, f0.amps)
    h0 = FourierSymTensor.random_real(n, 1, rng, scale=0.05, count=2)
    g = FourierMetric._build(n, h0.keys * mask, h0.amps)

    vals, full_vals = f.sample(sub), f.sample(full)
    assert np.abs(vals - full_vals[cut]).max() <= 1e-13 * np.abs(full_vals).max()
    gm, full_gm = g.sample_matrix(sub), g.sample_matrix(full)
    assert np.abs(gm - full_gm[(slice(None),) * 2 + cut]).max() <= 1e-14
    grad, full_grad = sub.gradient(vals), full.gradient(full_vals)
    assert (np.abs(grad - full_grad[(slice(None),) + cut]).max()
            <= 1e-12 * np.abs(full_grad).max())
    for mine, theirs in zip(sub.half_symbols, full.half_symbols):
        assert np.array_equal(mine, theirs[(slice(None),) * (mine.ndim - n) + cut])
    for mine, theirs in zip(sub.points(), full.points()):
        assert np.array_equal(mine, theirs[cut])
    assert np.isclose(sub.integrate(vals ** 2), full.integrate(full_vals ** 2), rtol=1e-13)
    assert np.isclose(sub.integrate(vals ** 2), f.l2_norm_sq(), rtol=1e-12)
    # a mode along a length-1 axis is not resolved there
    with pytest.raises(ValueError, match="cannot resolve"):
        f0.sample(sub)


@pytest.mark.parametrize("n,size", [(2, 16), (3, 15), (3, 24), (4, 12)])
def test_full_grid_keeps_its_shape_volume_and_symbols(n, size):
    grid = Grid(n, size)
    assert grid.shape == (size,) * n
    assert grid.cell_volume == (2 * np.pi / size) ** n
    assert grid.invariant((True,) * n).cell_volume == grid.cell_volume
    k1 = np.fft.fftfreq(size) * size
    if size % 2 == 0:
        k1[size // 2] = 0.0
    k = np.meshgrid(*([k1] * (n - 1) + [k1[: size // 2 + 1]]), indexing="ij", sparse=True)
    ik, k2 = grid.half_symbols
    assert np.array_equal(ik, np.stack(np.broadcast_arrays(*(1j * ka for ka in k))))
    assert np.array_equal(k2, sum(ka ** 2 for ka in k))


# -- real transforms, the one sampler, sub-grids ------------------------------

TRANSFORM_SHAPES = [(16, 16), (15,) * 3, (24,) * 3, (12,) * 4, (24, 1, 1), (24, 24, 1),
                    (12, 1, 1, 1)]


@pytest.mark.parametrize("shape", TRANSFORM_SHAPES)
def test_real_transforms_equal_scipy_fft(shape):
    """rfftn/irfftn call scipy's pocketfft binding directly; they must equal
    the public scipy.fft functions bit for bit, batched and strided."""
    rng = np.random.default_rng(len(shape) + shape[0])
    n = len(shape)
    axes = range(-n, 0)
    base = rng.standard_normal((2, 3) + shape)
    inputs = {
        "single": base[0, 0],
        "batched": base,
        "strided": base[:, ::2],  # non-contiguous leading axis
        "reversed": base[0, :, ::-1],  # negative stride on a grid axis
    }
    for name, a in inputs.items():
        assert a.flags.c_contiguous == (name in ("single", "batched"))
        spec = rfftn(a, axes=axes)
        assert np.array_equal(spec, scipy.fft.rfftn(a, axes=axes)), name
        back = irfftn(spec, shape, axes=axes)
        assert np.array_equal(back, scipy.fft.irfftn(spec, s=shape, axes=axes)), name
        flipped = spec[::-1]  # a negative stride on the spectrum's first axis
        assert np.array_equal(irfftn(flipped, shape, axes=axes),
                              scipy.fft.irfftn(flipped, s=shape, axes=axes)), name
    # no axes: all of them forward, the last len(s) inverse
    a = base[1, 2]
    spec = rfftn(a)
    assert np.array_equal(spec, scipy.fft.rfftn(a))
    assert np.array_equal(irfftn(spec, shape), scipy.fft.irfftn(spec, s=shape))


_FRESH_IMPORT = """
import sys
import numpy as np
import spinstab.cli
from spinstab.torus import fields
print(sorted(m for m in ("scipy.fft", "scipy.special") if m in sys.modules))
grid = fields.Grid(2, 16)
u = fields.FourierScalarField.random_real(2, 2, np.random.default_rng(4), scale=0.3)
x, y = grid.points()
values = (grid.deriv(np.sin(x) * np.cos(3 * y), 1),
          fields.FourierMetric.conformal_flat(u, grid).amps)
print(sorted(m for m in ("scipy.fft", "scipy.special") if m in sys.modules))
import scipy.fft
import scipy.fft._pocketfft.basic
print(sys.modules[fields._BINDING] is fields._pocketfft,
      scipy.fft._pocketfft.basic.pfft is fields._pocketfft)
again = (grid.deriv(np.sin(x) * np.cos(3 * y), 1),
         fields.FourierMetric.conformal_flat(u, grid).amps)
print(all(np.array_equal(a, b) for a, b in zip(values, again)))
"""


def test_package_import_loads_the_binding_alone():
    # a fresh interpreter: spinstab.cli loads neither scipy.fft nor
    # scipy.special, the complex transforms do not load them either and give
    # the bits they give through scipy.fft, and a later scipy.fft runs on the
    # binding spinstab loaded
    env = dict(os.environ, PYTHONPATH=str(Path(spinstab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]", "True True", "True"]


def test_binding_is_the_one_scipy_fft_runs_on():
    # scipy.fft came first in this process: spinstab took its binding
    assert sys.modules[fields_module._BINDING] is fields_module._pocketfft
    assert scipy.fft._pocketfft.basic.pfft is fields_module._pocketfft
    assert fields_module._load_binding() is fields_module._pocketfft


def test_grid_deriv_reaches_scipy_fft_once_loaded(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _original=getattr(scipy.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    grid = Grid(2, 8)
    x, y = grid.points()
    d = grid.deriv(np.sin(x + 2 * y), 1)
    assert calls == ["fftn", "ifftn"]
    assert np.abs(d - 2 * np.cos(x + 2 * y)).max() <= 1e-13


@pytest.mark.parametrize("shape", [(16, 16), (15,) * 3, (24, 24, 1), (12,) * 4])
def test_complex_transforms_without_scipy_fft_equal_scipy_fft(monkeypatch, shape):
    # with scipy.fft not loaded, fftn/ifftn call the binding themselves
    monkeypatch.delitem(sys.modules, "scipy.fft")
    rng = np.random.default_rng(len(shape) + shape[0])
    n = len(shape)
    real = rng.standard_normal((2,) + shape)
    cplx = real + 1j * rng.standard_normal((2,) + shape)
    for a in (real, cplx, real[0], cplx[0, ..., ::-1]):
        for axes in (range(-n, 0), None):
            if axes is None and a.ndim != n:
                continue
            spec = fields_module.fftn(a, axes=axes)
            assert np.array_equal(spec, scipy.fft.fftn(a, axes=axes))
            assert np.array_equal(fields_module.ifftn(spec, axes=axes),
                                  scipy.fft.ifftn(spec, axes=axes))


def test_binding_falls_back_to_the_ordinary_import(monkeypatch):
    # no binding file found: the binding comes from the ordinary import
    # (run here with the registered module taken out of sys.modules), and the
    # transforms on it still equal the public scipy.fft bit for bit
    package = sys.modules["scipy.fft._pocketfft"]
    monkeypatch.setattr(package, "pypocketfft", fields_module._pocketfft, raising=False)
    monkeypatch.delitem(sys.modules, fields_module._BINDING)
    monkeypatch.setattr(fields_module, "_binding_file", lambda: None)
    binding = fields_module._load_binding()
    assert sys.modules[fields_module._BINDING] is binding
    monkeypatch.setattr(fields_module, "_pocketfft", binding)
    rng = np.random.default_rng(5)
    for shape in [(16, 16), (15,) * 3, (24, 24, 1)]:
        axes = range(-len(shape), 0)
        a = rng.standard_normal((2,) + shape)
        spec = rfftn(a, axes=axes)
        assert np.array_equal(spec, scipy.fft.rfftn(a, axes=axes))
        assert np.array_equal(irfftn(spec, shape, axes=axes),
                              scipy.fft.irfftn(spec, s=shape, axes=axes))


def _complex_sample(f, grid):
    """The complex sampler: amplitudes on the full fftn box, the real part of
    the complex inverse transform."""
    spec = np.zeros(grid.shape, dtype=complex)
    spec[tuple((f.keys % grid.shape).T)] += f.amps
    return (ifftn(spec) * np.prod(grid.shape)).real


def _sampler_cases():
    rng = np.random.default_rng(7)
    out = []
    for n, size, active in [(2, 16, None), (3, 15, None), (3, 24, None), (4, 12, None),
                            (3, 24, (True, True, False)), (3, 24, (True, False, False)),
                            (4, 12, (True, False, False, False)), (3, 15, (False, True, True))]:
        mask = np.ones(n, dtype=np.int64) if active is None else np.array(active, np.int64)
        grid = Grid(n, size) if active is None else Grid(n, size).invariant(active)
        on = np.flatnonzero(mask)
        fields = [
            FourierScalarField.constant(n, 0.7),  # k = 0 only
            # a conjugate pair on the k_last = 0 plane when on[0] < n - 1
            FourierScalarField.cosine(n, np.eye(n, dtype=int)[on[0]], 1.3, phase=0.4),
            FourierScalarField.cosine(n, np.eye(n, dtype=int)[on[-1]], 0.9, phase=-1.1),
        ]
        f = FourierScalarField.random_real(n, 2, rng, count=6)
        fields.append(FourierScalarField._build(n, f.keys * mask, f.amps)
                      + FourierScalarField.constant(n, -0.2))
        out += [(grid, field) for field in fields]
    return out


def test_half_spectrum_sampler_matches_the_complex_sampler():
    planes = 0
    for grid, f in _sampler_cases():
        ref = _complex_sample(f, grid)
        vals = f.sample(grid)
        assert vals.shape == grid.shape
        assert np.abs(vals - ref).max() <= 1e-15 * np.abs(ref).max(), (grid.shape, f.keys)
        planes += bool(((f.keys[:, -1] == 0) & f.keys.any(axis=1)).any())
        # the half spectrum is the rfftn of the samples
        spec = f.half_spectrum(grid)
        assert spec.shape == grid.half_shape
        assert np.abs(spec - rfftn(ref)).max() <= 1e-12 * np.abs(spec).max()
    assert planes >= 8  # conjugate pairs with k_last = 0 are covered


def test_half_spectrum_of_a_tensor_stacks_its_entries():
    grid = Grid(3, 15)
    h = FourierSymTensor.random_real(3, 2, np.random.default_rng(3), scale=0.1, count=3)
    spec = h.half_spectrum(grid)
    assert spec.shape == (3, 3) + grid.half_shape
    for (i, j), f in h.components.items():
        assert np.array_equal(spec[i, j], f.half_spectrum(grid))
        assert np.array_equal(spec[j, i], spec[i, j])
    with pytest.raises(ValueError, match="cannot resolve"):
        FourierScalarField.cosine(3, (0, 0, 8)).half_spectrum(grid)


def test_invariant_grid_is_built_once_per_pattern():
    grid = Grid(3, 24)
    sub = grid.invariant((True, True, False))
    assert grid.invariant(np.array([True, True, False])) is sub
    assert grid.invariant((1, 1, 0)) is sub
    assert sub.half_symbols is grid.invariant((True, True, False)).half_symbols
    other = grid.invariant((True, False, False))
    assert other is not sub and other.shape == (24, 1, 1)
    assert Grid(3, 24).invariant((True, True, False)) is not sub  # per parent grid
