"""Band-limited fields on the flat torus T^n = (R / 2 pi Z)^n.

Fields are stored spectrally as maps from integer frequency vectors to
complex amplitudes (the amplitude of exp(i k.x)).  Real fields keep the
conjugate symmetry coeff(-k) == conj(coeff(k)).  Linear operations act on
the coefficients; nonlinear pipelines render fields onto a uniform grid
where pointwise products are exact up to aliasing of the unresolved tail.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache

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


class FourierScalarField:
    """Scalar field given by finitely many Fourier amplitudes."""

    def __init__(self, n: int, cutoff: int, modes: dict, check_reality: bool = True):
        self.n = n
        self.cutoff = cutoff
        self.modes = _canonical_modes(n, modes)
        for k in self.modes:
            if max(abs(v) for v in k) > cutoff:
                raise ValueError(f"mode {k} exceeds cutoff {cutoff}")
        if check_reality:
            r = self.reality_residual()
            if r > REALITY_TOL:
                raise ValueError(f"reality violated by {r:.3e}")

    def reality_residual(self) -> float:
        worst = 0.0
        for k, a in self.modes.items():
            mk = tuple(-v for v in k)
            worst = max(worst, abs(a - np.conj(self.modes.get(mk, 0j))))
        return worst

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int):
        return cls(n, 0, {})

    @classmethod
    def constant(cls, n: int, value: float):
        return cls(n, 0, {(0,) * n: complex(value)})

    @classmethod
    def cosine(cls, n: int, k, amplitude: float = 1.0, phase: float = 0.0):
        """amplitude * cos(k.x + phase) as a real field."""
        k = tuple(int(v) for v in k)
        half = 0.5 * amplitude * np.exp(1j * phase)
        return cls(n, max(abs(v) for v in k), {k: half, tuple(-v for v in k): np.conj(half)})

    @classmethod
    def random_real(cls, n: int, cutoff: int, rng, scale: float = 1.0, count: int | None = None):
        """Random band-limited real field with O(scale) amplitudes."""
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
        return cls(n, cutoff, modes)

    # -- linear structure --------------------------------------------------
    def __add__(self, other):
        modes = dict(self.modes)
        for k, a in other.modes.items():
            modes[k] = modes.get(k, 0j) + a
        return FourierScalarField(self.n, max(self.cutoff, other.cutoff), modes,
                                  check_reality=False)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c: float):
        return FourierScalarField(
            self.n, self.cutoff, {k: c * a for k, a in self.modes.items()},
            check_reality=False)

    def deriv(self, axis: int) -> "FourierScalarField":
        return FourierScalarField(
            self.n, self.cutoff,
            {k: 1j * k[axis] * a for k, a in self.modes.items()},
            check_reality=False)

    def laplacian_flat(self) -> "FourierScalarField":
        """Sum of unmixed second derivatives (negative-definite symbol)."""
        return FourierScalarField(
            self.n, self.cutoff,
            {k: -sum(v * v for v in k) * a for k, a in self.modes.items()},
            check_reality=False)

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

    def l2_inner(self, other: "FourierScalarField") -> complex:
        """Integral over T^n of f conj(g), by Parseval."""
        small, big = self.modes, other.modes
        if len(big) < len(small):
            small, big = big, small
        acc = 0j
        for k, a in small.items():
            b = big.get(k)
            if b is not None:
                acc += a * np.conj(b)
        if big is not other.modes:
            acc = np.conj(acc)
        return complex(acc * (2 * np.pi) ** self.n)

    def max_amp(self) -> float:
        return max((abs(a) for a in self.modes.values()), default=0.0)

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
        return cls(obj["n"], obj["cutoff"], modes)


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


class _ComponentField:
    """Shared behaviour of symmetric matrix-valued fields."""

    def __init__(self, n: int, components):
        self.n = n
        self.components = components  # dict (i, j) i<=j -> FourierScalarField

    def component(self, i: int, j: int) -> FourierScalarField:
        key = (i, j) if i <= j else (j, i)
        c = self.components.get(key)
        if c is None:
            return FourierScalarField.zero(self.n)
        return c

    @property
    def cutoff(self) -> int:
        return max((f.cutoff for f in self.components.values()), default=0)

    def max_amp(self) -> float:
        return max((f.max_amp() for f in self.components.values()), default=0.0)

    def _binary(self, other, op):
        keys = set(self.components) | set(other.components)
        comp = {k: op(self.component(*k), other.component(*k)) for k in keys}
        return type(self)(self.n, comp)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rmul__(self, c: float):
        return type(self)(self.n, {k: c * f for k, f in self.components.items()})

    def sample_matrix(self, grid: Grid) -> np.ndarray:
        """Values as an array of shape (n, n) + grid.shape."""
        out = np.zeros((self.n, self.n) + grid.shape)
        for (i, j), f in self.components.items():
            vals = f.sample(grid)
            out[i, j] = vals
            if i != j:
                out[j, i] = vals
        return out

    def mode_matrix(self, k) -> np.ndarray:
        """Complex (n, n) amplitude matrix of the single frequency k."""
        k = tuple(int(v) for v in k)
        out = np.zeros((self.n, self.n), dtype=complex)
        for (i, j), f in self.components.items():
            a = f.modes.get(k, 0j)
            out[i, j] = a
            out[j, i] = a
        return out

    def mode_set(self):
        keys = set()
        for f in self.components.values():
            keys |= set(f.modes)
        return sorted(keys)


class FourierSymTensor(_ComponentField):
    """Symmetric 2-tensor field h_ij with Fourier scalar components."""

    @classmethod
    def zero(cls, n: int):
        return cls(n, {})

    @classmethod
    def from_constant(cls, mat: np.ndarray):
        mat = np.asarray(mat, dtype=float)
        n = mat.shape[0]
        comp = {}
        for i in range(n):
            for j in range(i, n):
                if mat[i, j] != 0.0:
                    comp[(i, j)] = FourierScalarField.constant(n, mat[i, j])
        return cls(n, comp)

    @classmethod
    def from_mode(cls, n: int, k, mat: np.ndarray, phase: float = 0.0):
        """mat_ij cos(k.x + phase)."""
        mat = np.asarray(mat, dtype=float)
        comp = {}
        for i in range(n):
            for j in range(i, n):
                if mat[i, j] != 0.0:
                    comp[(i, j)] = FourierScalarField.cosine(n, k, mat[i, j], phase)
        return cls(n, comp)

    @classmethod
    def conformal(cls, u: FourierScalarField):
        """u times the flat metric."""
        return cls(u.n, {(i, i): u for i in range(u.n)})

    @classmethod
    def random_real(cls, n: int, cutoff: int, rng, scale: float = 1.0, count: int | None = None):
        comp = {}
        for i in range(n):
            for j in range(i, n):
                comp[(i, j)] = FourierScalarField.random_real(n, cutoff, rng, scale, count)
        return cls(n, comp)

    def l2_inner(self, other: "FourierSymTensor") -> complex:
        """Integral of sum_ij h_ij conj(t_ij) over the torus."""
        acc = 0j
        for i in range(self.n):
            for j in range(self.n):
                acc += self.component(i, j).l2_inner(other.component(i, j))
        return complex(acc)

    @property
    def l2_norm_sq(self) -> float:
        return float(np.real(self.l2_inner(self)))

    def trace_flat(self) -> FourierScalarField:
        out = FourierScalarField.zero(self.n)
        for i in range(self.n):
            out = out + self.component(i, i)
        return out

    def divergence_flat(self) -> list:
        """(delta h)_j = -sum_i d_i h_ij, one scalar field per j."""
        out = []
        for j in range(self.n):
            f = FourierScalarField.zero(self.n)
            for i in range(self.n):
                f = f + (-1.0) * self.component(i, j).deriv(i)
            out.append(f)
        return out

    def rough_laplacian_flat(self) -> "FourierSymTensor":
        """Componentwise -sum_a d_a^2 (the flat connection Laplacian)."""
        return FourierSymTensor(
            self.n,
            {k: -1.0 * f.laplacian_flat() for k, f in self.components.items()},
        )


class FourierMetric(_ComponentField):
    """Metric g = delta + perturbation, stored by its perturbation part."""

    @classmethod
    def flat(cls, n: int):
        return cls(n, {})

    @classmethod
    def from_perturbation(cls, h: FourierSymTensor, t: float = 1.0):
        return cls(h.n, {k: t * f for k, f in h.components.items()})

    @classmethod
    def conformal_flat(cls, u: FourierScalarField, grid: Grid):
        """exp(2u) delta, truncated on the sampling grid."""
        vals = np.exp(2.0 * u.sample(grid))
        spec = fftn(vals) / grid.size**u.n
        cut = grid.size // 2 - 1
        modes = {}
        for k in _freq_box(u.n, min(cut, MAX_CUTOFF[u.n] * 2)):
            a = spec[tuple(v % grid.size for v in k)]
            if abs(a) > 1e-15:
                modes[k] = a
                modes[tuple(-v for v in k)] = np.conj(a)
        mean = spec[(0,) * u.n]
        modes[(0,) * u.n] = mean
        f = FourierScalarField(u.n, min(cut, MAX_CUTOFF[u.n] * 2), modes)
        pert = f + FourierScalarField.constant(u.n, -1.0)
        return cls(u.n, {(i, i): pert for i in range(u.n)})

    def sample_matrix(self, grid: Grid) -> np.ndarray:
        out = super().sample_matrix(grid)
        for i in range(self.n):
            out[i, i] += 1.0
        return out

    def is_flat(self) -> bool:
        return not self.components

    def check_positive(self, grid: Grid) -> float:
        """Smallest metric eigenvalue over the grid (must be positive)."""
        g = np.moveaxis(self.sample_matrix(grid).reshape(self.n, self.n, -1), -1, 0)
        w = np.linalg.eigvalsh(g)
        return float(w.min())


class ModeField:
    """Array-valued field: per frequency vector one complex amplitude array.

    Holds the twisted spinors of the flat Dirac identity (an (n, spin_dim)
    array per mode), the octonion spinors of the G2 model (an (8, 7) array,
    row 0 the scalar part) and, through g2.FormField, forms on T^7.
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

    def deriv(self, axis: int) -> "ModeField":
        return self._like({k: 1j * k[axis] * a for k, a in self.modes.items()})

    def max_amp(self) -> float:
        return max((float(np.abs(a).max()) for a in self.modes.values()),
                   default=0.0)

    def l2_norm_sq(self) -> float:
        """Parseval norm: volume times sum of squared amplitudes."""
        acc = sum(float(np.sum(np.abs(a) ** 2)) for a in self.modes.values())
        return acc * (2 * np.pi) ** self.n

    def l2_inner_real(self, other: "ModeField") -> float:
        acc = 0.0
        for k, a in self.modes.items():
            b = other.modes.get(k)
            if b is not None:
                acc += float(np.real(np.sum(a * b.conj())))
        return acc * (2 * np.pi) ** self.n
