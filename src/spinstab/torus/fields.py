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
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np
import scipy.fft as _sfft

REALITY_TOL = 1e-13

# thread count for the transforms; the only environment knob in the package
FFT_WORKERS = max(1, int(os.environ.get("SPINSTAB_THREADS", "1")))


def fftn(a, axes=None):
    return _sfft.fftn(a, axes=axes, workers=FFT_WORKERS)


def ifftn(a, axes=None):
    return _sfft.ifftn(a, axes=axes, workers=FFT_WORKERS)


def rfftn(a, axes=None):
    return _sfft.rfftn(a, axes=axes, workers=FFT_WORKERS)


def irfftn(a, s, axes=None):
    """Inverse of rfftn; `s` is the real output shape over `axes`."""
    return _sfft.irfftn(a, s=s, axes=axes, workers=FFT_WORKERS)


# default collocation grid sizes per dimension (2x-padded relative to the
# default working cutoffs: K <= 8 for n <= 3, smaller in higher dimension)
DEFAULT_GRID = {1: 64, 2: 48, 3: 24, 4: 16, 5: 8, 6: 8, 7: 8}
MAX_CUTOFF = {1: 16, 2: 8, 3: 8, 4: 8, 5: 4, 6: 4, 7: 4}


def default_grid_size(n: int) -> int:
    return DEFAULT_GRID[n]


class Grid:
    """Uniform collocation grid with exact spectral differentiation."""

    def __init__(self, n: int, size: int | None = None):
        self.n = n
        self.size = size if size is not None else default_grid_size(n)
        self.shape = (self.size,) * n
        k1 = np.fft.fftfreq(self.size) * self.size  # integer wavenumbers
        self.wavenumbers = [
            k1.reshape((1,) * ax + (self.size,) + (1,) * (n - ax - 1))
            for ax in range(n)
        ]
        self.cell_volume = (2 * np.pi / self.size) ** n
        self.volume = (2 * np.pi) ** n

    def points(self):
        """Coordinate arrays of shape self.shape, one per axis."""
        x = 2 * np.pi * np.arange(self.size) / self.size
        return np.meshgrid(*([x] * self.n), indexing="ij")

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
        k1 = np.fft.fftfreq(self.size) * self.size
        if self.size % 2 == 0:
            k1[self.size // 2] = 0.0
        last = k1[: self.size // 2 + 1]
        k = np.meshgrid(*([k1] * (self.n - 1) + [last]), indexing="ij",
                        sparse=True)
        ik = np.stack(np.broadcast_arrays(*(1j * ka for ka in k)))
        return ik, sum(ka ** 2 for ka in k)

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
        if 2 * self.cutoff >= grid.size:
            raise ValueError(
                f"grid of size {grid.size} cannot resolve cutoff {self.cutoff}")
        spec = np.zeros(grid.shape, dtype=complex)
        spec[tuple((self.keys % grid.size).T)] += self.amps
        return (ifftn(spec) * grid.size**self.n).real

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
        """Values as an array of shape (n, n) + grid.shape; zero entries are
        not sampled, and equal entries are sampled once."""
        out = np.zeros((self.n, self.n) + grid.shape)
        samples = {}
        for (i, j), f in self.components.items():
            key = (f.keys.tobytes(), f.amps.tobytes())
            if key not in samples:
                samples[key] = f.sample(grid)
            out[i, j] = out[j, i] = samples[key]
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
