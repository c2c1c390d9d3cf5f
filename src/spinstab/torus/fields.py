"""Band-limited fields on the flat torus T^n = (R / 2 pi Z)^n.

Fields are stored spectrally as a mode stack: `keys`, a (K, n) int64 array
of distinct integer frequency vectors in lexicographic order, and `amps`,
the (K, ...) stack of their complex amplitudes (the amplitude of
exp(i k.x)): a number per mode for a scalar field, a complex symmetric
(n, n) matrix for a symmetric 2-tensor field.  Modes whose amplitude is
zero are not stored.  Real fields keep the conjugate symmetry
coeff(-k) == conj(coeff(k)).  Linear operations act on the whole stack;
nonlinear pipelines render fields onto a uniform grid where pointwise
products are exact up to aliasing of the unresolved tail.

Real transforms.  `rfftn`/`irfftn` call the pocketfft binding that
scipy.fft itself runs on (`scipy.fft._pocketfft.pypocketfft`, the same
library and plan cache) directly, so a call pays for the transform and not
for scipy.fft's dispatch layer (argument checks, backend lookup, axis and
shape normalization), which costs more than the transform itself on the
small grids of the sub-torus solves.  The
module is private to scipy; tests/test_fields.py pins both functions to the
public scipy.fft.rfftn/irfftn bit for bit, batched and on strided input.

The binding is loaded from its file (`scipy/fft/_pocketfft/pypocketfft`
plus an extension suffix, under the scipy package's search path) without
running any scipy `__init__`: the public scipy.fft brings scipy.special and
the array-API layer and took more than half of a `warped build` or
`spectrum` run, the binding alone under a millisecond.  It is registered in
sys.modules under its name, so a later `import scipy.fft` runs on the same
object; where the file is absent, the ordinary import is used.

`fftn`/`ifftn` serve only Grid.deriv and FourierMetric.conformal_flat.
When scipy.fft is loaded they call its public functions, the level at which
perfbench/tests/test_trace.py counts transforms (`fields.fft_calls`);
otherwise they call the binding with the arguments scipy.fft would pass, so
no command imports scipy.fft for them.  Both paths give the same bits
(tests/test_fields.py).  The two users move to the real transforms, and
this branch goes, together with that counter (ROADMAP item 9).

One sampler.  ModeField.half_spectrum scatters the mode stack straight into
the rfftn half box of a grid (the k_last >= 0 half, both +-k kept on the
k_last = 0 plane), scaled as rfftn scales the samples, so a field's values
are the irfftn of it and its derivatives the irfftn of i k~ times it
(Boyd, Chebyshev and Fourier Spectral Methods, ch. 9-11): no complex
transform and no forward transform.  The spectrum of a real field is
Hermitian, so the dropped k_last < 0 half carries nothing new.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

REALITY_TOL = 1e-13
_BINDING = "scipy.fft._pocketfft.pypocketfft"


def _binding_file() -> str | None:
    """Path of the pocketfft extension inside the scipy package, or None."""
    spec = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "fft", "_pocketfft", "pypocketfft" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_binding():
    """The pocketfft binding: the loaded one if scipy.fft came first, else
    loaded from its file and registered under its name, else imported."""
    if _BINDING in sys.modules:
        return sys.modules[_BINDING]
    path = _binding_file()
    if path is None:
        return importlib.import_module(_BINDING)
    spec = importlib.util.spec_from_file_location(_BINDING, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_BINDING] = module
    return module


_pocketfft = _load_binding()


def fftn(a, axes=None):
    """scipy.fft.fftn(a, axes=axes) of a float64 or complex128 array."""
    sfft = sys.modules.get("scipy.fft")
    if sfft is not None:
        return sfft.fftn(a, axes=axes)
    return _pocketfft.c2c(a, axes, True, 0, None, 1)


def ifftn(a, axes=None):
    """scipy.fft.ifftn(a, axes=axes) of a complex128 array."""
    sfft = sys.modules.get("scipy.fft")
    if sfft is not None:
        return sfft.ifftn(a, axes=axes)
    return _pocketfft.c2c(a, axes, False, 2, None, 1)


def rfftn(a, axes=None):
    """scipy.fft.rfftn(a, axes=axes) of a float64 array, without the dispatch
    (the binding itself takes negative axes, and None for all of them)."""
    return _pocketfft.r2c(a, axes, True, 0, None, 1)


def irfftn(a, s, axes=None):
    """scipy.fft.irfftn(a, s=s, axes=axes) of a complex128 array that is the
    rfftn half box of the real shape `s` over `axes` (the last len(s) axes
    when None), without the dispatch."""
    return _pocketfft.c2r(a, range(-len(s), 0) if axes is None else axes, s[-1],
                          False, 2, None, 1)


# default collocation grid sizes per dimension (2x-padded relative to the
# default working cutoffs: K <= 8 for n <= 3, smaller in higher dimension)
DEFAULT_GRID = {1: 64, 2: 48, 3: 24, 4: 16, 5: 8, 6: 8, 7: 8}
MAX_CUTOFF = {1: 16, 2: 8, 3: 8, 4: 8, 5: 4, 6: 4, 7: 4}


def default_grid_size(n: int) -> int:
    return DEFAULT_GRID[n]


class Grid:
    """Uniform collocation grid with exact spectral differentiation.

    `size` points per axis; `shape` holds each axis' length.  The grid of a
    sub-torus, `invariant(active)`, has `size` points on the active axes and
    one on the others.  It carries the fields that are constant along the
    inactive axes (spectrum at k_a = 0 there), and for them every sample,
    transform, derivative and integral on it equals the full grid's on a
    slice: a length-1 axis has exactly the wavenumber 0, and its one point
    stands for the whole circle of length 2 pi in the quadrature.
    """

    def __init__(self, n: int, size: int | None = None):
        self.n = n
        self.size = size if size is not None else default_grid_size(n)
        self._set_shape((self.size,) * n)

    def _set_shape(self, shape: tuple):
        self.shape = shape
        self.half_shape = shape[:-1] + (shape[-1] // 2 + 1,)  # the rfftn half box
        self._invariant = {}  # active pattern -> sub-grid
        self.wavenumbers = [  # integer wavenumbers
            (np.fft.fftfreq(m) * m).reshape((1,) * ax + (m,) + (1,) * (self.n - ax - 1))
            for ax, m in enumerate(shape)
        ]
        n_active = sum(m != 1 for m in shape)
        self.cell_volume = (2 * np.pi / self.size) ** n_active * (2 * np.pi) ** (self.n - n_active)
        self.volume = (2 * np.pi) ** self.n

    def invariant(self, active) -> "Grid":
        """The grid of the fields that are constant along every axis a with
        active[a] False: length 1 on those axes, `size` on the others.  One
        object per pattern, so its symbols are computed once."""
        key = tuple(bool(a) for a in active)
        sub = self._invariant.get(key)
        if sub is None:
            sub = self._invariant[key] = Grid.__new__(Grid)
            sub.n, sub.size = self.n, self.size
            sub._set_shape(tuple(self.size if a else 1 for a in key))
        return sub

    def points(self):
        """Coordinate arrays of shape self.shape, one per axis."""
        return np.meshgrid(*(2 * np.pi * np.arange(m) / m for m in self.shape), indexing="ij")

    def deriv(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Spectral partial derivative along a coordinate axis."""
        spec = fftn(values, axes=range(-self.n, 0))
        spec *= 1j * self.wavenumbers[axis]
        out = ifftn(spec, axes=range(-self.n, 0))
        return out.real if np.isrealobj(values) else out

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """All partial derivatives of real values, on a new leading axis.

        The grid axes are the last n axes; leading axes are batched, so an
        (n, n) + shape input gives (n, n, n) + shape, derivative index first.
        Real transforms with the half_symbols wavenumbers: 0 at an even
        grid's Nyquist bin, whose derivative has no real part anyway.
        """
        axes = range(-self.n, 0)
        spec = rfftn(values, axes=axes)
        ik, _ = self.half_symbols
        out = np.empty((self.n,) + values.shape)
        for ax in range(self.n):
            out[ax] = irfftn(ik[ax] * spec, self.shape, axes=axes)
        return out

    @cached_property
    def half_symbols(self):
        """Derivative symbols on the rfftn half box: (i k~, sum_a k~_a^2).

        i k~ has the n axes stacked on a leading axis.  k~ is the integer
        wavenumber, except 0 at an even grid's Nyquist bin: a real field's
        spectral first derivative cannot carry the Nyquist mode, so that is
        the wavenumber a real derivative actually applies.
        """
        k1 = [np.fft.fftfreq(m) * m for m in self.shape]
        for m, ka in zip(self.shape, k1):
            if m % 2 == 0:
                ka[m // 2] = 0.0
        k1[-1] = k1[-1][: self.shape[-1] // 2 + 1]
        k = np.meshgrid(*k1, indexing="ij", sparse=True)
        ik = np.stack(np.broadcast_arrays(*(1j * ka for ka in k)))
        return ik, sum(ka ** 2 for ka in k)

    @cached_property
    def band_symbols(self):
        """The Galerkin band on the rfftn half box and its flat inverse
        Laplacian: (band, band / max(sum_a k~_a^2, 1)).

        band is 1 on the bins with no index at an even grid's N/2 and 0 on
        the others (see torus.eigen); the shift max(., 1) keeps the constant
        mode invertible without damping the |k| = 1 shell.
        """
        k2 = self.half_symbols[1]
        band = np.ones(k2.shape)
        for ax, m in enumerate(self.shape):
            if m % 2 == 0:
                band[(slice(None),) * ax + (m // 2,)] = 0.0
        return band, band / np.maximum(k2, 1.0)

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature over the torus (exact for resolved trigonometric data)."""
        return float(np.sum(values) * self.cell_volume)


def _lex_sorted(keys: np.ndarray):
    """Lexicographic (stable) order of the rows of keys, the sorted rows, and
    for each sorted row whether it repeats the row before it."""
    order = np.lexsort(keys.T[::-1])
    rows = keys[order]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[1:] = (rows[1:] == rows[:-1]).all(axis=1)
    return order, rows, repeat


class ModeField:
    """Field with one complex amplitude per frequency vector: a number for
    FourierScalarField, a complex symmetric (n, n) matrix for the tensor
    fields FourierSymTensor and FourierMetric, an array for the twisted
    spinors of the flat Dirac identity ((n, spin_dim) per mode), the
    octonion spinors of the G2 model ((8, 7), row 0 the scalar part) and,
    through g2.FormField, forms on T^7.

    The amplitudes sit in one stack: `keys`, a (K, n) int64 array of
    distinct frequency vectors in lexicographic order, and `amps`, the
    (K, ...) complex stack of their amplitudes, none of them zero.  Every
    field is built by _store, and every operation is an expression on the
    whole stack.  `modes` is a read-only {k-tuple: amplitude} view of it.
    """

    def __init__(self, n: int, modes: dict):
        self.n = n
        keys = np.array(list(modes) or np.zeros((0, n)), dtype=np.int64)
        if keys.ndim != 2 or keys.shape[1] != n:
            raise ValueError(f"frequency vector {next(iter(modes))} has wrong length for T^{n}")
        self._store(keys, np.array(list(modes.values()) or np.zeros((0,) + self._amp_shape()),
                                   dtype=complex))

    def _amp_shape(self) -> tuple:
        """Shape of one amplitude, for a field built from no modes."""
        return ()

    def _store(self, keys: np.ndarray, amps: np.ndarray) -> "ModeField":
        """The one build path: sort the keys, sum the amplitudes of repeated
        keys in their input order, drop the modes whose amplitude is zero."""
        order, keys, repeat = _lex_sorted(keys)
        amps = np.asarray(amps, dtype=complex)[order]
        if repeat.any():
            first = np.flatnonzero(~repeat)
            keys, amps = keys[first], np.add.reduceat(amps, first, axis=0)
        keep = amps.any(axis=tuple(range(1, amps.ndim)))
        self.keys, self.amps = (keys, amps) if keep.all() else (keys[keep], amps[keep])
        return self

    @classmethod
    def _build(cls, n: int, keys: np.ndarray, amps: np.ndarray):
        f = cls.__new__(cls)
        f.n = n
        return f._store(keys, amps)

    def _like(self, keys: np.ndarray, amps: np.ndarray):
        """A field of the same kind with the given keys and amplitudes."""
        return self._build(self.n, keys, amps)

    def _scaled(self, factor: np.ndarray):
        """Each mode's amplitude times factor[mode]."""
        shape = (-1,) + (1,) * (self.amps.ndim - 1)
        return self._like(self.keys, np.reshape(factor, shape) * self.amps)

    @property
    def modes(self) -> MappingProxyType:
        """Read-only {k-tuple: amplitude} view, in key order; a scalar
        field's amplitudes are Python complex numbers."""
        amps = self.amps.tolist() if self.amps.ndim == 1 else list(self.amps)
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), amps)))

    def __add__(self, other):
        return self._like(np.concatenate([self.keys, other.keys]),
                          np.concatenate([self.amps, other.amps]))

    def __sub__(self, other):
        return self._like(np.concatenate([self.keys, other.keys]),
                          np.concatenate([self.amps, -other.amps]))

    def __rmul__(self, c: float):
        return self._like(self.keys, c * self.amps)

    def deriv(self, axis: int) -> "ModeField":
        return self._scaled(1j * self.keys[:, axis])

    def half_spectrum(self, grid: Grid) -> np.ndarray:
        """rfftn of the field's samples on grid, straight from the mode stack:
        amps.shape[1:] + grid.half_shape, the amplitudes times the point
        count.  Modes with k_last < 0 are left out (a real field's are the
        conjugates of the k_last > 0 ones); both +-k stay on the k_last = 0
        plane."""
        keys = self.keys
        if (2 * np.abs(keys) >= grid.shape).any():
            raise ValueError(f"grid of shape {grid.shape} cannot resolve cutoff "
                             f"{int(np.abs(keys).max())}")
        half = keys[:, -1] >= 0
        out = np.zeros(self.amps.shape[1:] + grid.half_shape, dtype=complex)
        out[(...,) + tuple((keys[half] % grid.shape).T)] = (
            np.moveaxis(self.amps[half], 0, -1) * float(np.prod(grid.shape)))
        return out

    def max_amp(self) -> float:
        # hypot, not np.abs: np.abs of a complex can differ from abs() in the last bit
        return float(np.hypot(self.amps.real, self.amps.imag).max(initial=0.0))

    def l2_norm_sq(self) -> float:
        """Parseval norm: volume times sum of squared amplitudes."""
        return float(np.sum(np.abs(self.amps) ** 2)) * (2 * np.pi) ** self.n

    def l2_inner(self, other: "ModeField") -> complex:
        """Integral over T^n of f conj(g), summed over the amplitude entries,
        by Parseval; the shared modes are visited in key order."""
        # keys are distinct per side and the sort stable: a repeat follows self's copy
        order, _, repeat = _lex_sorted(np.concatenate([self.keys, other.keys]))
        mine, theirs = order[:-1][repeat[1:]], order[1:][repeat[1:]] - len(self.keys)
        return complex(np.vdot(other.amps[theirs], self.amps[mine])) * (2 * np.pi) ** self.n


class FourierScalarField(ModeField):
    """Scalar field given by finitely many Fourier amplitudes."""

    def __init__(self, n: int, modes: dict, check_reality: bool = True):
        super().__init__(n, modes)
        if check_reality:
            # max |coeff(k) - conj(coeff(-k))| over the modes
            r = (self - self._like(-self.keys, self.amps.conj())).max_amp()
            if r > REALITY_TOL:
                raise ValueError(f"reality violated by {r:.3e}")

    @property
    def cutoff(self) -> int:
        """Largest |k|_inf among the stored modes (0 when there are none)."""
        return int(np.abs(self.keys).max(initial=0))

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, n: int, value: float):
        return cls(n, {(0,) * n: complex(value)})

    @classmethod
    def cosine(cls, n: int, k, amplitude: float = 1.0, phase: float = 0.0):
        """amplitude * cos(k.x + phase) as a real field."""
        return cls(n, _cosine_halves(k, 0.5 * amplitude * np.exp(1j * phase)))

    @classmethod
    def random_real(cls, n: int, cutoff: int, rng, scale: float = 1.0, count: int | None = None):
        """Random real field with O(scale) amplitudes at |k|_inf <= cutoff."""
        return cls._build(n, *_random_modes(n, cutoff, rng, scale, count))

    def laplacian_flat(self) -> "FourierScalarField":
        """Sum of unmixed second derivatives (negative-definite symbol)."""
        return self._scaled(-(self.keys ** 2).sum(axis=1))

    # -- evaluation --------------------------------------------------------
    def sample(self, grid: Grid) -> np.ndarray:
        return irfftn(self.half_spectrum(grid), grid.shape)

    def to_json_obj(self):
        return {
            "n": self.n,
            "cutoff": self.cutoff,
            "modes": {" ".join(str(v) for v in k): [a.real, a.imag]
                      for k, a in self.modes.items()},
        }

    @classmethod
    def from_json_obj(cls, obj):
        modes = {
            tuple(int(v) for v in key.split()): complex(re, im)
            for key, (re, im) in obj["modes"].items()
        }
        f = cls(obj["n"], modes)
        if f.cutoff > obj["cutoff"]:
            raise ValueError(f"mode with |k|_inf {f.cutoff} exceeds cutoff {obj['cutoff']}")
        return f


def _cosine_halves(k, half) -> dict:
    """Amplitudes of 2 Re(half exp(i k.x)): half at k, conj(half) at -k,
    summed when k = -k (k = 0)."""
    k = tuple(int(v) for v in k)
    mk = tuple(-v for v in k)
    out = {k: half}
    out[mk] = out.get(mk, 0) + np.conj(half)
    return out


@lru_cache(maxsize=None)
def _freq_array(n: int, cutoff: int) -> np.ndarray:
    """Frequencies with |k|_inf <= cutoff, one representative per +-k pair
    (the one whose first nonzero entry is negative), zero excluded: a
    read-only (M, n) int64 array in lexicographic order."""
    axis = np.arange(-cutoff, cutoff + 1)
    box = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    first = box[np.arange(len(box)), (box != 0).argmax(axis=1)]
    out = box[first < 0]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _freq_box(n: int, cutoff: int):
    """_freq_array as a tuple of int tuples."""
    return tuple(map(tuple, _freq_array(n, cutoff).tolist()))


def _random_modes(n: int, cutoff: int, rng, scale: float, count: int | None):
    """Keys and amplitudes of a random real scalar field: scale (x + i y),
    x and y standard normal, at `count` of the _freq_array frequencies (all
    of them when count is None) and the conjugate at -k."""
    freqs = _freq_array(n, cutoff)
    if count is not None and count < len(freqs):
        freqs = freqs[rng.choice(len(freqs), size=count, replace=False)]
    z = rng.standard_normal((len(freqs), 2))
    a = scale * (z[:, 0] + 1j * z[:, 1])
    return np.concatenate([freqs, -freqs]), np.concatenate([a, a.conj()])


class _ComponentField(ModeField):
    """Symmetric matrix-valued field: a complex symmetric (n, n) amplitude
    matrix per mode."""

    def _amp_shape(self) -> tuple:
        return (self.n, self.n)

    @classmethod
    def from_stack(cls, n: int, keys: np.ndarray, mats: np.ndarray):
        """The field with amplitude matrix mats[m] at keys[m], the upper
        triangle of each read."""
        upper = np.tri(n, dtype=bool).T  # diagonal included
        return cls._build(n, keys, np.where(upper, mats, np.swapaxes(mats, -1, -2)))

    @classmethod
    def from_mode_matrices(cls, n: int, mats: dict):
        """The field with amplitude matrix mats[k] at each k, its upper
        triangle read."""
        return cls.from_stack(n, np.array(list(mats), dtype=np.int64).reshape(-1, n),
                              np.array(list(mats.values()), dtype=complex).reshape(-1, n, n))

    def mode_matrices(self) -> dict:
        """{k: complex symmetric (n, n) amplitude matrix}, in key order."""
        return dict(self.modes)

    def component(self, i: int, j: int) -> FourierScalarField:
        return FourierScalarField._build(self.n, self.keys, self.amps[:, i, j])

    @property
    def components(self) -> dict:
        """{(i, j): component(i, j)} for i <= j, the nonzero entries only."""
        nonzero = self.amps.any(axis=0)
        return {(i, j): self.component(i, j)
                for i in range(self.n) for j in range(i, self.n) if nonzero[i, j]}

    def sample_matrix(self, grid: Grid) -> np.ndarray:
        """Values as an array of shape (n, n) + grid.shape, in one inverse
        transform; zero entries are not transformed, and equal entries are
        transformed once."""
        out = np.zeros((self.n, self.n) + grid.shape)
        entries = {}  # amplitude column -> the upper-triangle entries holding it
        for i, j in zip(*np.triu_indices(self.n)):
            column = self.amps[:, i, j]
            if column.any():
                entries.setdefault(column.tobytes(), []).append((i, j))
        if entries:
            first = tuple(np.array([e[0] for e in entries.values()]).T)
            values = irfftn(self.half_spectrum(grid)[first], grid.shape,
                            axes=range(-self.n, 0))
            for v, pairs in zip(values, entries.values()):
                for i, j in pairs:
                    out[i, j] = out[j, i] = v
        return out


class FourierSymTensor(_ComponentField):
    """Symmetric 2-tensor field h_ij given by finitely many Fourier amplitude
    matrices."""

    @classmethod
    def zero(cls, n: int):
        return cls(n, {})

    @classmethod
    def from_constant(cls, mat: np.ndarray):
        mat = np.asarray(mat, dtype=float)
        n = mat.shape[0]
        return cls.from_mode_matrices(n, {(0,) * n: mat})

    @classmethod
    def from_mode(cls, n: int, k, mat: np.ndarray, phase: float = 0.0):
        """mat_ij cos(k.x + phase)."""
        half = 0.5 * np.asarray(mat, dtype=float) * np.exp(1j * phase)
        return cls.from_mode_matrices(n, _cosine_halves(k, half))

    @classmethod
    def conformal(cls, u: FourierScalarField):
        """u times the flat metric."""
        return cls._build(u.n, u.keys, u.amps[:, None, None] * np.eye(u.n))

    @classmethod
    def random_real(cls, n: int, cutoff: int, rng, scale: float = 1.0, count: int | None = None):
        """Each upper-triangle entry an independent FourierScalarField.random_real,
        drawn in row-major entry order."""
        keys, mats = [], []
        for i in range(n):
            for j in range(i, n):
                k, a = _random_modes(n, cutoff, rng, scale, count)
                m = np.zeros((len(k), n, n), dtype=complex)
                m[:, i, j] = m[:, j, i] = a
                keys.append(k)
                mats.append(m)
        return cls._build(n, np.concatenate(keys), np.concatenate(mats))

    @property
    def l2_norm_sq(self) -> float:
        return ModeField.l2_norm_sq(self)

    def trace_flat(self) -> FourierScalarField:
        return FourierScalarField._build(self.n, self.keys,
                                         np.trace(self.amps, axis1=1, axis2=2))

    def divergence_flat(self) -> list:
        """(delta h)_j = -sum_i d_i h_ij, one scalar field per j."""
        div = (-1.0 * ((1j * self.keys)[:, :, None] * self.amps)).sum(axis=1)
        return [FourierScalarField._build(self.n, self.keys, div[:, j])
                for j in range(self.n)]

    def rough_laplacian_flat(self) -> "FourierSymTensor":
        """Entrywise -sum_a d_a^2 (the flat connection Laplacian): |k|^2 a."""
        return self._scaled((self.keys ** 2).sum(axis=1))


class FourierMetric(_ComponentField):
    """Metric g = delta + perturbation, stored by its perturbation part."""

    @classmethod
    def flat(cls, n: int):
        return cls(n, {})

    @classmethod
    def from_perturbation(cls, h: FourierSymTensor, t: float = 1.0):
        return cls._build(h.n, h.keys, t * h.amps)

    @classmethod
    def conformal_flat(cls, u: FourierScalarField, grid: Grid):
        """exp(2u) delta, truncated on the sampling grid."""
        vals = np.exp(2.0 * u.sample(grid))
        spec = fftn(vals) / grid.size**u.n
        freqs = _freq_array(u.n, min(grid.size // 2 - 1, MAX_CUTOFF[u.n] * 2))
        amps = spec[tuple((freqs % grid.size).T)]
        big = np.abs(amps) > 1e-15
        keys = np.concatenate([freqs[big], -freqs[big], np.zeros((1, u.n), dtype=np.int64)])
        pert = np.concatenate([amps[big], amps[big].conj(), [spec[(0,) * u.n] + -1.0]])
        return cls._build(u.n, keys, pert[:, None, None] * np.eye(u.n))

    def sample_matrix(self, grid: Grid) -> np.ndarray:
        out = super().sample_matrix(grid)
        out[range(self.n), range(self.n)] += 1.0
        return out

    def is_flat(self) -> bool:
        return not len(self.keys)
