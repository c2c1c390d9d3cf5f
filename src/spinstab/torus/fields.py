"""Band-limited fields on the flat torus T^n = (R / 2 pi Z)^n.

Fields are stored spectrally as maps from integer frequency vectors to
complex amplitudes (the amplitude of exp(i k.x)): a number for a scalar
field, a complex symmetric (n, n) matrix for a symmetric 2-tensor field.
Real fields keep the conjugate symmetry coeff(-k) == conj(coeff(k)).
Linear operations act on the coefficients; nonlinear pipelines render
fields onto a uniform grid where pointwise products are exact up to
aliasing of the unresolved tail.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from itertools import chain

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


def _canonical_modes(n: int, modes: dict) -> dict:
    out = {}
    for k, a in modes.items():
        k = tuple(int(v) for v in k)
        if len(k) != n:
            raise ValueError(f"frequency vector {k} has wrong length for T^{n}")
        a = complex(a)
        if a != 0:
            out[k] = out.get(k, 0j) + a
    return {k: a for k, a in out.items() if a != 0}


class ModeField:
    """Field with one complex amplitude per frequency vector: a number for
    FourierScalarField, a complex symmetric (n, n) matrix for the tensor
    fields FourierSymTensor and FourierMetric, an array for the twisted
    spinors of the flat Dirac identity ((n, spin_dim) per mode), the
    octonion spinors of the G2 model ((8, 7), row 0 the scalar part) and,
    through g2.FormField, forms on T^7.
    """

    def __init__(self, n: int, modes: dict):
        self.n = n
        self.modes = {
            tuple(int(v) for v in k): np.asarray(a, dtype=complex)
            for k, a in modes.items()
        }

    def _like(self, modes: dict) -> "ModeField":
        """A field of the same kind with the given amplitudes."""
        return ModeField(self.n, modes)

    def _merge(self, other, op):
        modes = dict(self.modes)
        for k, a in other.modes.items():
            modes[k] = op(modes.get(k, 0), a)
        return self._like(modes)

    def __add__(self, other):
        return self._merge(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._merge(other, lambda a, b: a - b)

    def __rmul__(self, c: float):
        return self._like({k: c * a for k, a in self.modes.items()})

    def map_modes(self, fn):
        """Apply fn(k, a) -> (k', a') to every amplitude, in mode order."""
        return self._like(dict(fn(k, a) for k, a in self.modes.items()))

    def deriv(self, axis: int) -> "ModeField":
        return self.map_modes(lambda k, a: (k, 1j * k[axis] * a))

    def max_amp(self) -> float:
        # hypot, not np.abs: np.abs of a complex can differ from abs() in the last bit
        return max((float(np.hypot(a.real, a.imag).max()) for a in self.modes.values()),
                   default=0.0)

    def l2_norm_sq(self) -> float:
        """Parseval norm: volume times sum of squared amplitudes."""
        acc = sum(float(np.sum(np.abs(a) ** 2)) for a in self.modes.values())
        return acc * (2 * np.pi) ** self.n

    def l2_inner(self, other: "ModeField") -> complex:
        """Integral over T^n of f conj(g), summed over the amplitude entries,
        by Parseval; the modes are visited in self's order."""
        acc = 0j
        for k, a in self.modes.items():
            b = other.modes.get(k)
            if b is not None:
                acc += complex(np.vdot(b, a))
        return acc * (2 * np.pi) ** self.n


class FourierScalarField(ModeField):
    """Scalar field given by finitely many Fourier amplitudes."""

    def __init__(self, n: int, modes: dict, check_reality: bool = True):
        self.n = n
        self.modes = _canonical_modes(n, modes)
        if check_reality:
            r = self.reality_residual()
            if r > REALITY_TOL:
                raise ValueError(f"reality violated by {r:.3e}")

    @classmethod
    def _trusted(cls, n: int, modes: dict) -> "FourierScalarField":
        """A field from derived amplitudes, whose keys are already distinct
        int tuples of length n: only the value rule of _canonical_modes
        applies (0j + complex(a), zeros dropped, order kept)."""
        f = cls.__new__(cls)
        f.n = n
        f.modes = {k: v for k, a in modes.items() if (v := 0j + complex(a)) != 0}
        return f

    def _like(self, modes: dict) -> "FourierScalarField":
        return FourierScalarField._trusted(self.n, modes)

    @property
    def cutoff(self) -> int:
        """Largest |k|_inf among the stored modes (0 when there are none)."""
        return max(map(abs, chain.from_iterable(self.modes)), default=0)

    def reality_residual(self) -> float:
        worst = 0.0
        for k, a in self.modes.items():
            mk = tuple(-v for v in k)
            worst = max(worst, abs(a - np.conj(self.modes.get(mk, 0j))))
        return worst

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int):
        return cls(n, {})

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
        all_freqs = _freq_box(n, cutoff)
        if count is not None and count < len(all_freqs):
            pick = rng.choice(len(all_freqs), size=count, replace=False)
            freqs = [all_freqs[i] for i in pick]
        else:
            freqs = all_freqs
        modes = {}
        for k in freqs:
            a = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            modes[k] = modes.get(k, 0j) + a
            mk = tuple(-v for v in k)
            modes[mk] = modes.get(mk, 0j) + np.conj(a)
        return cls(n, modes)

    def laplacian_flat(self) -> "FourierScalarField":
        """Sum of unmixed second derivatives (negative-definite symbol)."""
        return self._like(
            {k: -sum(v * v for v in k) * a for k, a in self.modes.items()})

    # -- evaluation --------------------------------------------------------
    def sample(self, grid: Grid) -> np.ndarray:
        if 2 * self.cutoff >= grid.size:
            raise ValueError(
                f"grid of size {grid.size} cannot resolve cutoff {self.cutoff}")
        spec = np.zeros(grid.shape, dtype=complex)
        for k, a in self.modes.items():
            spec[tuple(v % grid.size for v in k)] += a
        vals = ifftn(spec) * grid.size**self.n
        return vals.real

    def to_json_obj(self):
        return {
            "n": self.n,
            "cutoff": self.cutoff,
            "modes": {
                " ".join(str(v) for v in k): [a.real, a.imag]
                for k, a in sorted(self.modes.items())
            },
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
def _freq_box(n: int, cutoff: int):
    """Frequencies with |k|_inf <= cutoff, one representative per +-k pair,
    zero excluded."""
    rng_1d = range(-cutoff, cutoff + 1)
    out = []
    for k in np.stack(np.meshgrid(*([list(rng_1d)] * n), indexing="ij"), axis=-1).reshape(-1, n):
        k = tuple(int(v) for v in k)
        if k == (0,) * n:
            continue
        if k > tuple(-v for v in k):
            continue
        out.append(k)
    return tuple(out)


class _ComponentField(ModeField):
    """Symmetric matrix-valued field: a complex symmetric (n, n) amplitude
    matrix per mode; modes whose matrix is zero are left out."""

    @classmethod
    def _trusted(cls, n: int, modes: dict):
        """A field from derived (n, n) amplitudes whose keys are already
        distinct int tuples of length n; zero matrices are dropped."""
        f = cls.__new__(cls)
        f.n = n
        f.modes = {k: a for k, a in modes.items() if a.any()}
        return f

    def _like(self, modes: dict):
        return self._trusted(self.n, modes)

    @classmethod
    def from_mode_matrices(cls, n: int, mats: dict):
        """The field with amplitude matrix mats[k] at each k, its upper
        triangle read.  The keys must be distinct int tuples of length n."""
        stack = np.array(list(mats.values()), dtype=complex).reshape(-1, n, n)
        upper = np.triu(np.ones((n, n), dtype=bool))
        return cls._trusted(n, dict(zip(mats, np.where(upper, stack, stack.transpose(0, 2, 1)))))

    def mode_matrices(self) -> dict:
        """{k: complex symmetric (n, n) amplitude matrix}, in sorted k order."""
        return dict(sorted(self.modes.items()))

    def component(self, i: int, j: int) -> FourierScalarField:
        return FourierScalarField._trusted(self.n, {k: a[i, j] for k, a in self.modes.items()})

    @property
    def components(self) -> dict:
        """{(i, j): component(i, j)} for i <= j, the nonzero entries only."""
        out = {}
        for i in range(self.n):
            for j in range(i, self.n):
                f = self.component(i, j)
                if f.modes:
                    out[(i, j)] = f
        return out

    def sample_matrix(self, grid: Grid) -> np.ndarray:
        """Values as an array of shape (n, n) + grid.shape; zero entries are
        not sampled."""
        out = np.zeros((self.n, self.n) + grid.shape)
        for (i, j), f in self.components.items():
            out[i, j] = out[j, i] = f.sample(grid)
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
        return cls._trusted(u.n, {k: a * np.eye(u.n) for k, a in u.modes.items()})

    @classmethod
    def random_real(cls, n: int, cutoff: int, rng, scale: float = 1.0, count: int | None = None):
        """Each upper-triangle entry an independent FourierScalarField.random_real."""
        entries = {(i, j): FourierScalarField.random_real(n, cutoff, rng, scale, count)
                   for i in range(n) for j in range(i, n)}
        mats = {k: np.zeros((n, n), dtype=complex)
                for k in chain.from_iterable(f.modes for f in entries.values())}
        for (i, j), f in entries.items():
            for k, a in f.modes.items():
                mats[k][i, j] = a
        return cls.from_mode_matrices(n, mats)

    @property
    def l2_norm_sq(self) -> float:
        return ModeField.l2_norm_sq(self)

    def trace_flat(self) -> FourierScalarField:
        return FourierScalarField._trusted(self.n, {
            k: sum(a[i, i] for i in range(self.n)) for k, a in self.modes.items()})

    def divergence_flat(self) -> list:
        """(delta h)_j = -sum_i d_i h_ij, one scalar field per j."""
        return [FourierScalarField._trusted(self.n, {
            k: sum(-1.0 * (1j * k[i] * a[i, j]) for i in range(self.n))
            for k, a in self.modes.items()}) for j in range(self.n)]

    def rough_laplacian_flat(self) -> "FourierSymTensor":
        """Entrywise -sum_a d_a^2 (the flat connection Laplacian): |k|^2 a."""
        return self.map_modes(lambda k, a: (k, sum(v * v for v in k) * a))


class FourierMetric(_ComponentField):
    """Metric g = delta + perturbation, stored by its perturbation part."""

    @classmethod
    def flat(cls, n: int):
        return cls(n, {})

    @classmethod
    def from_perturbation(cls, h: FourierSymTensor, t: float = 1.0):
        return cls._trusted(h.n, (t * h).modes)

    @classmethod
    def conformal_flat(cls, u: FourierScalarField, grid: Grid):
        """exp(2u) delta, truncated on the sampling grid."""
        vals = np.exp(2.0 * u.sample(grid))
        spec = fftn(vals) / grid.size**u.n
        modes = {}
        for k in _freq_box(u.n, min(grid.size // 2 - 1, MAX_CUTOFF[u.n] * 2)):
            a = spec[tuple(v % grid.size for v in k)]
            if abs(a) > 1e-15:
                modes[k] = a
                modes[tuple(-v for v in k)] = np.conj(a)
        mean = spec[(0,) * u.n]
        modes[(0,) * u.n] = mean
        f = FourierScalarField(u.n, modes)
        pert = f + FourierScalarField.constant(u.n, -1.0)
        return cls._trusted(u.n, FourierSymTensor.conformal(pert).modes)

    def sample_matrix(self, grid: Grid) -> np.ndarray:
        out = super().sample_matrix(grid)
        for i in range(self.n):
            out[i, i] += 1.0
        return out

    def is_flat(self) -> bool:
        return not self.modes
