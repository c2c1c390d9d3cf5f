"""Warped-product metrics (1 - 2m(r)/r)^(-1) dr^2 + r^2 ds^2 + g(r) on R^3 x M.

The radial mass profile m(r) and a one-parameter family of fiber metrics
g_s determine the geometry; the scalar curvature and Ricci components come
from closed-form expressions in (m, m', g', g'') which are validated
against an independent finite-difference curvature oracle in coordinates.
The negative-mass construction assembles a piecewise profile (cubic core,
Hermite transition, linear ramp, inverse-radius tail) whose scan certifies
nonnegative scalar curvature.

The scalar pipeline (`WarpedMetric.schedule` through `warped_scalar`, and
the fiber families) maps a float radius or path parameter to floats and
(k, k) blocks, and an array to arrays and (..., k, k) blocks equal to the
float calls bit for bit; squares are products there, since numpy's `**`
and the C `pow` behind a float `**` can round differently.  The families
also map an array of fiber points, one per entry of s; the FD oracle makes
one metric call per stencil level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class HorizonError(ValueError):
    """2 m(r) >= r: the radial coordinate patch degenerates."""


# ---------------------------------------------------------------------------
# radial mass profiles
# ---------------------------------------------------------------------------

class MassProfile:
    """Base: m(r) and m'(r) evaluable, with a finite limit at infinity."""

    m_inf: float = 0.0
    breakpoints: tuple = ()

    def m(self, r):
        raise NotImplementedError

    def dm(self, r):
        raise NotImplementedError

    def to_json_obj(self):
        return {"kind": type(self).__name__, "m_inf": self.m_inf,
                "breakpoints": list(self.breakpoints)}


class ZeroMass(MassProfile):
    def m(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))[()]

    def dm(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))[()]


class ConstantMass(MassProfile):
    """m(r) = m0 away from the center (time-symmetric Schwarzschild slice)."""

    def __init__(self, m0: float):
        self.m0 = float(m0)
        self.m_inf = float(m0)

    def m(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.m0)[()]

    def dm(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))[()]


class InverseTail(MassProfile):
    """m(r) = m_inf - c / r; decays at the generic order-one rate."""

    def __init__(self, m_inf: float, c: float):
        self.m_inf = float(m_inf)
        self.c = float(c)

    def m(self, r):
        r = np.asarray(r, dtype=float)
        return self.m_inf - self.c / r

    def dm(self, r):
        r = np.asarray(r, dtype=float)
        return self.c / r**2


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_d(u):
    return 6.0 * u * (1.0 - u)


def smooth_path(start: float, end: float):
    """(f, f', f'') of the path from start (s=0) to end (s=1) along a
    smoothstep; f' vanishes at both ends, so radial schedules stay C^1."""
    delta = end - start

    def f(s):
        return start + delta * _smoothstep(s)

    def df(s):
        return delta * _smoothstep_d(s)

    def d2f(s):
        return delta * (6.0 - 12.0 * s)

    return f, df, d2f


@dataclass
class _Segment:
    lo: float
    hi: float
    m: callable
    dm: callable


class StabilityMassProfile(MassProfile):
    """The negative-mass profile of the nonnegative-scalar construction.

    Segments: m = -(a0/12) r^3 on [0, r1]; a cubic Hermite on [r1, r1+1]
    with equal endpoint values and slopes -(a0/4) r1^2 -> +(a0/2) r1^2
    (its derivative a0 r1^2 (3 t^2 - 1)/4... stays >= -(a0/4) r^2); a linear
    ramp of slope (a0/2) r1^2 on [r2, r3]; and the monotone tail
    m_inf - (m_inf - m(r3)) r3 / r.  Values: m(r3) = -(1/84) a0 r1^3 and
    m_inf = -(1/168) a0 r1^3, with r1 = max(7, ceil(126 / sqrt(a0))) >= 7 as
    the lower-bound constants need.  A smoothstep blend of width r1 / 100
    restores continuity of m' at the one genuinely kinked join (r3); the
    other joins are C^1 by construction and left untouched.
    """

    def __init__(self, a0: float):
        if a0 <= 0:
            raise ValueError("a0 must be positive")
        self.a0 = float(a0)
        self.r1 = float(max(7, int(np.ceil(126.0 / np.sqrt(a0)))))
        self.r2 = self.r1 + 1.0
        self.r3 = self.r2 + self.r1 / 7.0
        self.slope_lin = 0.5 * self.a0 * self.r1**2
        self.m_r1 = -(self.a0 / 12.0) * self.r1**3
        self.m_r3 = self.m_r1 + self.slope_lin * (self.r3 - self.r2)
        self.m_inf = -(1.0 / 168.0) * self.a0 * self.r1**3
        self.width = 0.01 * self.r1
        self.breakpoints = (self.r1, self.r2, self.r3)
        a0_, r1_ = self.a0, self.r1

        def core(r):
            return -(a0_ / 12.0) * r**3

        def dcore(r):
            return -(a0_ / 4.0) * r**2

        # Hermite data: values equal, slopes -(a0/4) r1^2 -> slope_lin
        s_in = -(a0_ / 4.0) * r1_**2
        s_out = self.slope_lin

        def hermite(r):
            t = r - r1_  # interval length 1
            h10 = t**3 - 2 * t**2 + t
            h11 = t**3 - t**2
            return self.m_r1 + s_in * h10 + s_out * h11

        def dhermite(r):
            t = r - r1_
            return s_in * (3 * t**2 - 4 * t + 1) + s_out * (3 * t**2 - 2 * t)

        def linear(r):
            return self.m_r1 + self.slope_lin * (r - self.r2)

        def dlinear(r):
            return np.full_like(np.asarray(r, dtype=float), self.slope_lin)

        def tail(r):
            return self.m_inf - (self.m_inf - self.m_r3) * (self.r3 / r)

        def dtail(r):
            return (self.m_inf - self.m_r3) * self.r3 / r**2

        self._segments = [
            _Segment(0.0, self.r1, core, dcore),
            _Segment(self.r1, self.r2, hermite, dhermite),
            _Segment(self.r2, self.r3, linear, dlinear),
            _Segment(self.r3, np.inf, tail, dtail),
        ]
        # the joins whose slopes disagree get a smoothstep blend
        self._kinked = [
            (left, right) for left, right in zip(self._segments, self._segments[1:])
            if abs(float(left.dm(left.hi)) - float(right.dm(left.hi)))
            >= 1e-14 * (1 + abs(float(left.dm(left.hi))))]

    def _piecewise(self, r, which: str):
        scalar = np.isscalar(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        for seg in self._segments:
            mask = (r >= seg.lo) & (r < seg.hi)
            if mask.any():
                out[mask] = getattr(seg, which)(r[mask])
        for left, right in self._kinked:
            b = left.hi
            w = self.width
            mask = (r > b - w) & (r < b + w)
            if not mask.any():
                continue
            u = (r[mask] - (b - w)) / (2 * w)
            s = _smoothstep(u)
            if which == "m":
                out[mask] = (1 - s) * left.m(r[mask]) + s * right.m(r[mask])
            else:
                ds = _smoothstep_d(u) / (2 * w)
                out[mask] = ((1 - s) * left.dm(r[mask]) + s * right.dm(r[mask])
                             + ds * (right.m(r[mask]) - left.m(r[mask])))
        return float(out[0]) if scalar else out

    def m(self, r):
        return self._piecewise(r, "m")

    def dm(self, r):
        return self._piecewise(r, "dm")

    def to_json_obj(self):
        return {
            "kind": "StabilityMassProfile",
            "a0": self.a0,
            "r1": self.r1, "r2": self.r2, "r3": self.r3,
            "linear_slope": self.slope_lin,
            "m_r3": self.m_r3,
            "m_inf": self.m_inf,
            "mollify_width": self.width,
        }


# ---------------------------------------------------------------------------
# fiber families
# ---------------------------------------------------------------------------

class FiberFamily:
    """Path s in [0, 1] of fiber metrics with closed-form s-derivatives.

    Subclasses provide the metric block in a fixed chart together with its
    first two s-derivatives (`blocks`), the scalar curvature and the Ricci
    tensor.  `blocks` and `scalar` also take an array of s, `blocks` with one
    q or an array of one q per s: (..., k, k) blocks, an array.
    """

    dim: int

    def blocks(self, s, q) -> tuple:
        """(g, d_s g, d_s^2 g) at (s, q)."""
        raise NotImplementedError

    def scalar(self, s, q):
        raise NotImplementedError

    def ricci(self, s: float, q) -> np.ndarray:
        raise NotImplementedError

    def sample_points(self):
        raise NotImplementedError


def _stereographic_conformal(q):
    """rho = 2 / (1 + |q|^2) at a point q, or at each row of an array of them;
    |q|^2 is a matmul, which rounds as `q @ q` does for one point."""
    q = np.asarray(q, dtype=float)
    return 2.0 / (1.0 + np.matmul(q[..., None, :], q[..., :, None])[..., 0, 0])


def _identity_blocks(values, s, eye: np.ndarray) -> tuple:
    """x I_k at each entry of s for each x of values; 0 * s spreads an x constant in s."""
    return tuple(np.multiply.outer(x + 0.0 * s, eye) for x in values)


class ConformalSphereFamily(FiberFamily):
    """Round 2-spheres of radius f(s), in the stereographic chart.

    Metric block f(s)^2 rho(q)^2 I with rho = 2 / (1 + |q|^2); the scalar
    curvature is 2 / f(s)^2 and the Ricci tensor rho^2 I is independent
    of the radius.
    """

    dim = 2
    _eye = np.eye(2)

    def __init__(self, f, df, d2f):
        self.f, self.df, self.d2f = f, df, d2f

    @classmethod
    def smooth_radius_path(cls, r_start: float, r_end: float):
        """Radius moving from r_start (s=0) to r_end (s=1) along smooth_path."""
        return cls(*smooth_path(r_start, r_end))

    @classmethod
    def constant(cls, radius: float):
        return cls(lambda s: radius, lambda s: 0.0, lambda s: 0.0)

    def blocks(self, s, q):
        rho = _stereographic_conformal(q)
        f, df = self.f(s), self.df(s)
        x = f * rho
        return _identity_blocks((x * x, 2.0 * f * df * (rho * rho),
                                 2.0 * (df * df + f * self.d2f(s)) * (rho * rho)), s, self._eye)

    def scalar(self, s, q):
        f = self.f(s)
        return 2.0 / (f * f) + 0.0 * s

    def ricci(self, s, q):
        rho = _stereographic_conformal(q)
        return rho**2 * np.eye(2)

    def sample_points(self):
        return [np.array([0.0, 0.0]), np.array([0.6, -0.2]),
                np.array([-1.1, 0.8]), np.array([0.3, 1.4])]

    def to_json_obj(self):
        return {"kind": "ConformalSphereFamily",
                "radius": [self.f(0.0), self.f(1.0)]}


class FlatTorusConformalFamily(FiberFamily):
    """g_s = c(s)^2 delta on a k-torus: scalar flat for every s."""

    def __init__(self, k: int, c, dc, d2c):
        self.dim, self._eye = k, np.eye(k)
        self.c, self.dc, self.d2c = c, dc, d2c

    def blocks(self, s, q):
        c, dc = self.c(s), self.dc(s)
        return _identity_blocks((c * c, 2.0 * c * dc, 2.0 * (dc * dc + c * self.d2c(s))),
                                s, self._eye)

    def scalar(self, s, q):
        return 0.0 * s

    def ricci(self, s, q):
        return np.zeros((self.dim, self.dim))

    def sample_points(self):
        return [np.zeros(self.dim), 0.3 * np.ones(self.dim)]

    def to_json_obj(self):
        return {"kind": "FlatTorusConformalFamily", "k": self.dim,
                "scale": [self.c(0.0), self.c(1.0)]}


class ReparametrizedFamily(FiberFamily):
    """The family s -> g_(eps s), used to shrink the traversed arc."""

    def __init__(self, base: FiberFamily, eps: float):
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim

    def blocks(self, s, q):
        g, gs, gss = self.base.blocks(self.eps * s, q)
        return g, self.eps * gs, self.eps**2 * gss

    def scalar(self, s, q):
        return self.base.scalar(self.eps * s, q)

    def ricci(self, s, q):
        return self.base.ricci(self.eps * s, q)

    def sample_points(self):
        return self.base.sample_points()

    def to_json_obj(self):
        return {"kind": "ReparametrizedFamily", "eps": self.eps,
                "base": self.base.to_json_obj()}


# ---------------------------------------------------------------------------
# admissibility and the lower bound
# ---------------------------------------------------------------------------

def _trace(a):
    """Trace over the last two axes: a float for one block, an array for a stack."""
    return np.trace(a, axis1=-2, axis2=-1)


COND_BOUND = 1.0 / 200.0
ADMISSIBILITY_S_COUNT = 65  # path parameters sampled on [0, 1]


@dataclass
class AdmissibilityReport:
    c1: float
    c2: float
    c3: float
    s_minus: float
    a0: float
    passed: bool
    violations: list


def admissibility_check(family: FiberFamily) -> AdmissibilityReport:
    """Constants of the contraction bounds and the negative-scalar margin.

    C1 = max |d_s g . d_s g^(-1)|, C2 = max |tr(g^-1 d_s g)|,
    C3 = max |d_s tr(g^-1 d_s g)|, each required <= 1/200; and
    max(0, -S(g_s)) <= a0 / 10 where a0 = min_q S(g_1) > 0.
    """
    c1 = c2 = c3 = s_minus = 0.0
    a0 = np.inf
    s = np.linspace(0.0, 1.0, ADMISSIBILITY_S_COUNT)
    for q in family.sample_points():
        g, gs, gss = family.blocks(s, q)
        gi = np.linalg.inv(g)
        a = gi @ gs
        aa = a @ a
        # d_s g_ab d_s g^ab = -tr((g^-1 g_s)^2)
        c1 = max(c1, float(np.abs(_trace(aa)).max()))
        c2 = max(c2, float(np.abs(_trace(a)).max()))
        c3 = max(c3, float(np.abs(_trace(gi @ gss - aa)).max()))
        s_minus = max(s_minus, -float(np.min(family.scalar(s, q))))
        a0 = min(a0, family.scalar(1.0, q))
    violations = []
    for name, val in (("C1", c1), ("C2", c2), ("C3", c3)):
        if val > COND_BOUND:
            violations.append(f"{name} = {val:.3e} > 1/200")
    if not a0 > 0:
        violations.append(f"S(g_1) = {a0:.3e} not positive")
    elif s_minus > a0 / 10.0:
        violations.append(f"S^- = {s_minus:.3e} > a0/10 = {a0 / 10:.3e}")
    return AdmissibilityReport(c1, c2, c3, s_minus, a0, not violations, violations)


# ---------------------------------------------------------------------------
# the warped metric
# ---------------------------------------------------------------------------

@dataclass
class WarpedMetric:
    """Mass profile plus a radial fiber schedule on R^3 x M.

    The fiber is g_1 for r <= r2, the reparametrized family
    g_((r3 - r)/(r3 - r2)) for r2 <= r <= r3, and g_0 beyond r3.  When
    r2/r3 are None the fiber is frozen at s_frozen for all radii.
    """

    profile: MassProfile
    family: FiberFamily
    r2: float | None = None
    r3: float | None = None
    s_frozen: float = 0.0

    @property
    def fiber_dim(self) -> int:
        return self.family.dim

    def schedule(self, r):
        """(s, ds/dr) at radius r, or arrays of both at an array of radii."""
        if self.r2 is None:
            return self.s_frozen + 0.0 * r, 0.0 * r
        span = self.r3 - self.r2
        ramp = (r > self.r2) & (r < self.r3)
        # mask arithmetic keeps floats as floats, and +0.0 (not -0.0) off the ramp
        return ramp * ((self.r3 - r) / span) + (r <= self.r2), (0.0 - ramp) / span

    def fiber_data(self, r, q):
        """Fiber block with its first two radial derivatives at (r, q)."""
        s, dsdr = self.schedule(r)
        dsdr = np.asarray(dsdr)[..., None, None]
        g, gs, gss = self.family.blocks(s, q)
        return g, dsdr * gs, (dsdr * dsdr) * gss, s

    def radial_invariants(self, r, q):
        """(g', g'', Q2, S_M) with g' = tr(g^-1 d_r g), Q2 = tr((g^-1 d_r g)^2)."""
        g, gr, grr, s = self.fiber_data(r, q)
        gi = np.linalg.inv(g)
        a = gi @ gr
        aa = a @ a
        return (_trace(a), _trace(gi @ grr - aa), _trace(aa),
                self.family.scalar(s, q))

    def to_json_obj(self):
        return {
            "profile": self.profile.to_json_obj(),
            "family": self.family.to_json_obj(),
            "r2": self.r2, "r3": self.r3, "s_frozen": self.s_frozen,
            "fiber_dim": self.fiber_dim,
        }


def _outside_horizon(m, r) -> None:
    """HorizonError naming the first radius of r (or of an array r) with 2 m >= r."""
    over = np.asarray(2.0 * m >= r)
    if over.any():
        i = np.argmax(over)
        raise HorizonError(f"2 m(r) = {2 * np.ravel(m)[i]:.3e} >= r = {np.ravel(r)[i]:.3e}")


def warped_scalar(w: WarpedMetric, r, q):
    """Scalar curvature of the warped metric at fiber point q and radius r, or
    at each radius of an array r; HorizonError where 2 m(r) >= r."""
    m = w.profile.m(r)
    _outside_horizon(m, r)
    dm = w.profile.dm(r)
    gp, gpp, q2, s_m = w.radial_invariants(r, q)
    lapse = 1.0 - 2.0 * m / r
    rr = r * r
    return (
        s_m
        + dm * (4.0 / rr + gp / r)
        - (m / rr) * gp
        - lapse * (gpp + 2.0 * gp / r + 0.25 * (gp * gp) + 0.25 * q2)
    )


def warped_ricci(w: WarpedMetric, r: float, q) -> dict:
    """Ricci components in the orthonormal-radial / sphere / fiber split."""
    m = float(w.profile.m(r))
    _outside_horizon(m, r)
    dm = float(w.profile.dm(r))
    lapse = 1.0 - 2.0 * m / r
    gp, gpp, q2 = map(float, w.radial_invariants(r, q)[:3])
    g, gr, grr, s = w.fiber_data(r, q)
    gi = np.linalg.inv(g)

    r00 = (2.0 * (-m / r**3 + dm / r**2) + 0.5 * (dm * r - m) / r**2 * gp
           - 0.5 * lapse * gpp - 0.25 * lapse * q2)
    rii = m / r + dm - 0.5 * r * lapse * gp
    d_mat = grr - gr @ gi @ gr  # d/dr[g_as,r g^ls] g_lb
    rab = (0.5 * (dm * r - m) / r**2 * gr
           - 0.5 * lapse * d_mat
           - 0.25 * lapse * gp * gr
           - (1.0 / r) * lapse * gr
           + w.family.ricci(s, q))
    trace = r00 + 2.0 * rii / r**2 + float(np.trace(gi @ rab))
    return {"R00": r00, "Rii": rii, "Rab": rab, "trace": trace}


# ---------------------------------------------------------------------------
# finite-difference curvature oracle
# ---------------------------------------------------------------------------

_FD_FIRST = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # at steps -2, ..., 2
_FD_SECOND = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


@functools.cache
def _stencil(d: int) -> tuple:
    """(offsets, w1, w2) of the 4th-order FD stencil in d dimensions: the
    (P, d) offsets, in steps, are the centre, -2, -1, 1, 2 along each axis
    and the 4 x 4 products of those along each axis pair, P = 1 + 4d +
    8d(d - 1); values there weighted by w1 (d, P) and w2 (d, d, P) give the
    first and second derivatives in step units."""
    e, mults = np.eye(d), (-2, -1, 1, 2)
    offsets = np.array([np.zeros(d)] + [m * e[a] for a in range(d) for m in mults]
                       + [m * e[a] + n * e[b] for a in range(d) for b in range(a + 1, d)
                          for m in mults for n in mults])
    idx = offsets.astype(int) + 2
    alone = np.abs(offsets).sum(axis=1, keepdims=True) == np.abs(offsets)  # no other axis moved
    w1 = (_FD_FIRST[idx] * alone).T
    w2 = np.einsum("pa,pb->abp", _FD_FIRST[idx], _FD_FIRST[idx])  # 0 unless a and b moved
    w2[np.arange(d), np.arange(d)] = (_FD_SECOND[idx] * alone).T
    offsets.flags.writeable = w1.flags.writeable = w2.flags.writeable = False
    return offsets, w1, w2


def scalar_curvature_fd(fn, x0, steps) -> float:
    """Scalar curvature of the metric function fn at x0 by finite differences.

    fn maps a (P, d) array of points to the (P, d, d) array of the metric
    matrices there; it is called once, on the whole stencil around x0.
    """
    x0, steps = np.asarray(x0, dtype=float), np.asarray(steps, dtype=float)
    offsets, w1, w2 = _stencil(len(x0))
    g = fn(x0 + offsets * steps)
    dg = np.tensordot(w1, g, axes=1) / steps[:, None, None]
    d2g = np.tensordot(w2, g, axes=1) / np.multiply.outer(steps, steps)[..., None, None]
    gi = np.linalg.inv(g[0])
    dgi = -np.einsum("kl,alm,mn->akn", gi, dg, gi)
    # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    br = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    gam = 0.5 * np.einsum("kl,ijl->kij", gi, br)
    # d_a Gamma^k_ij
    dbr = (d2g + np.transpose(d2g, (0, 2, 1, 3)) - np.transpose(d2g, (0, 2, 3, 1)))
    dgam = 0.5 * (np.einsum("akl,ijl->akij", dgi, br)
                  + np.einsum("kl,aijl->akij", gi, dbr))
    ric = (np.einsum("iijk->jk", dgam) - np.einsum("jiik->jk", dgam)
           + np.einsum("iim,mjk->jk", gam, gam)
           - np.einsum("ijm,mik->jk", gam, gam))
    return float(np.einsum("jk,jk->", gi, ric))


def warped_metric_function(w: WarpedMetric):
    """Coordinate metric (r, two stereographic sphere coords, fiber coords):
    a (P, 3 + k) array of points to the (P, 3 + k, 3 + k) matrices there."""
    k = w.fiber_dim

    def fn(x):
        r = x[:, 0]
        m = w.profile.m(r)
        _outside_horizon(m, r)
        out = np.zeros((len(x), 3 + k, 3 + k))
        out[:, 0, 0] = 1.0 / (1.0 - 2.0 * m / r)
        r_sigma = r * _stereographic_conformal(x[:, 1:3])
        out[:, 1, 1] = out[:, 2, 2] = r_sigma * r_sigma
        out[:, 3:, 3:] = w.family.blocks(w.schedule(r)[0], x[:, 3:])[0]
        return out

    return fn


ORACLE_REL_STEP = 1e-3  # radial step over r; the other steps are twice it


def fd_curvature_oracle(w: WarpedMetric, r: float, q) -> dict:
    """Independent scalar-curvature estimate with a Richardson error bar.

    The sample must sit away from r = 0 and from the schedule breakpoints
    by at least ten stencil reaches (twenty radial steps) so that the
    stencil sees a smooth metric.
    """
    fn = warped_metric_function(w)
    x0 = np.concatenate([[r, 0.35, -0.15], np.asarray(q, dtype=float)])
    steps = ORACLE_REL_STEP * np.concatenate([[r], np.full(len(x0) - 1, 2.0)])
    guard = 10.0 * 2.0 * steps[0]
    for b in (0.0,) + tuple(w.profile.breakpoints) + (
            (w.r2, w.r3) if w.r2 is not None else ()):
        if b is not None and abs(r - b) < guard:
            raise ValueError(
                f"sample r = {r} is within 20 radial steps of breakpoint {b}")
    s_full = scalar_curvature_fd(fn, x0, steps)
    s_half = scalar_curvature_fd(fn, x0, steps / 2.0)
    estimate = (16.0 * s_half - s_full) / 15.0
    # |diff|/15 bounds the Richardson truncation error, but roundoff in the
    # second-difference tables is correlated between the levels and does not
    # show up there; the floor models machine noise amplified by 1/h^2 and
    # the size of the Christoffel products (lapse^-1 ~ metric anisotropy).
    m = float(w.profile.m(r))
    aniso = 1.0 / (1.0 - 2.0 * m / r)
    roundoff = 1e-16 * (1.0 + abs(aniso)) / ORACLE_REL_STEP**2 * 4.0
    error_bar = abs(s_half - s_full) / 3.0 + roundoff
    return {"estimate": estimate, "error_bar": error_bar,
            "coarse": s_full, "fine": s_half}


def oracle_gate(error_bar: float) -> float:
    """The largest |formula - FD estimate| that agrees with the oracle:
    max(1e-6, 3 error bars)."""
    return max(1e-6, 3.0 * error_bar)


def sample_oracle_points(w: WarpedMetric, r_range, samples: int, rng) -> list:
    """Up to `samples` seeded (r, q) oracle points with r in r_range.

    Radii within 5% of a profile breakpoint or of the schedule ends are
    redrawn; after 10 * samples radius draws the points found so far are
    returned.  Each accepted radius is followed by the draw of its fiber
    sample point.
    """
    qs = w.family.sample_points()
    breaks = tuple(w.profile.breakpoints) + ((w.r2, w.r3) if w.r2 is not None else ())
    out = []
    for _ in range(10 * samples):
        if len(out) == samples:
            break
        r = float(rng.uniform(*r_range))
        if not any(abs(r - b) < 0.05 * max(1.0, r) for b in breaks):
            out.append((r, qs[int(rng.integers(0, len(qs)))]))
    return out


# ---------------------------------------------------------------------------
# the nonnegative-scalar, negative-mass construction
# ---------------------------------------------------------------------------

@dataclass
class ConstructionCertificate:
    """Scan of the scalar curvature: scan_values[q_index, i] is the value at
    fiber sample q_index and radius scan_radii[i]; empty_pieces, the (lo, hi)
    pieces of the profile that hold no scanned radius."""

    min_scalar: float
    argmin_r: float
    argmin_q_index: int
    min_lapse_margin: float
    scan_radii: np.ndarray
    scan_values: np.ndarray
    empty_pieces: list
    passed: bool


class ConstructionError(RuntimeError):
    pass


SCAN_FLOOR = -1e-9


def construct_negative_mass(family: FiberFamily, scan_points: int = 4000,
                            r_max_factor: float = 4.0) -> tuple:
    """Assemble the warped metric of the nonnegative-scalar construction.

    Requires the admissibility bounds; returns (metric, certificate) where
    the certificate records the scanned minimum of the scalar curvature
    over (0, r_max_factor * r3] times the fiber samples.
    """
    report = admissibility_check(family)
    if not report.passed:
        raise ConstructionError(
            "fiber family fails admissibility: " + "; ".join(report.violations))
    profile = StabilityMassProfile(report.a0)
    metric = WarpedMetric(profile=profile, family=family,
                          r2=profile.r2, r3=profile.r3)
    cert = scan_scalar_positivity(metric, scan_points, r_max_factor)
    if cert.empty_pieces:
        pieces = ", ".join(f"[{lo:.6g}, {hi:.6g})" for lo, hi in cert.empty_pieces)
        raise ConstructionError(f"positivity scan at {scan_points} radii leaves the profile "
                                f"piece(s) {pieces} without a scanned radius")
    if not cert.passed:
        raise ConstructionError(
            f"positivity scan failed: min scalar {cert.min_scalar:.3e} at "
            f"r = {cert.argmin_r:.6g}, fiber sample {cert.argmin_q_index}")
    return metric, cert


def scan_scalar_positivity(w: WarpedMetric, scan_points: int = 4000,
                           r_max_factor: float = 4.0) -> ConstructionCertificate:
    """Scalar curvature at scan_points equal steps of (0, r_top] and every
    fiber sample.  It passes if each piece [0, b1), [b1, b2), ..., [bk, r_top]
    between the profile's breakpoints holds a radius, S >= SCAN_FLOOR and
    r > 2 m(r)."""
    r_top = r_max_factor * (w.r3 if w.r3 is not None else 10.0)
    radii = np.linspace(r_top / scan_points, r_top, scan_points)
    edges = [0.0] + [b for b in w.profile.breakpoints if b < r_top] + [r_top]
    held = np.histogram(radii, edges)[0]  # half-open bins, the last one closed
    empty = [(lo, hi) for lo, hi, count in zip(edges, edges[1:], held) if count == 0]
    values = np.array([warped_scalar(w, radii, q) for q in w.family.sample_points()])
    # the first minimum in (fiber sample, radius) order
    arg_q, i = np.unravel_index(np.argmin(values), values.shape)
    worst = float(values[arg_q, i])
    margins = radii - 2.0 * np.asarray(w.profile.m(radii))
    min_margin = float(margins.min())
    return ConstructionCertificate(
        min_scalar=worst, argmin_r=float(radii[i]), argmin_q_index=int(arg_q),
        min_lapse_margin=min_margin, scan_radii=radii, scan_values=values,
        empty_pieces=empty, passed=not empty and worst >= SCAN_FLOOR and min_margin > 0.0)


def scalar_lower_bound(report: AdmissibilityReport, w: WarpedMetric, r: float) -> dict:
    """The transition-region lower bound with its A(r), B(r) coefficients.

    Valid for r2 <= r <= r3; under the 1/200 bounds and r1 >= 7 the
    coefficients satisfy |A| <= 3 and |B| <= 1.
    """
    profile = w.profile
    if not isinstance(profile, StabilityMassProfile):
        raise ValueError("bound applies to the constructed profile")
    r1, r2, r3 = profile.r1, profile.r2, profile.r3
    if not (r2 <= r <= r3):
        raise ValueError(f"r = {r} outside the transition region [{r2}, {r3}]")
    c1, c2, c3 = report.c1, report.c2, report.c3
    span = r3 - r2
    a_r = (c2 * r / span
           + (5.0 * c2 / 3.0 + (4.0 * c3 + c1 + c2**2) / 6.0 * (r / span))
           * abs(-r1 + 3.0 * (r - r2)) / span)
    b_r = (c1 + 4.0 * c3 + c2**2) / 4.0 + 2.0 * c2 * span / r
    s_here, _ = w.schedule(r)
    s_minus = max(
        0.0,
        -min(w.family.scalar(s_here, q) for q in w.family.sample_points()),
    )
    bound = (-s_minus + (report.a0 / 4.0) * (r1**2 / r**2) * (4.0 - a_r)
             - b_r / span**2)
    return {"A": a_r, "B": b_r, "bound": bound}


def mass_and_order(w: WarpedMetric) -> dict:
    """Mass read off the profile plus the fitted asymptotic decay order.

    The deviation from the product metric is the sup of the radial lapse
    deviation and the fiber-block deviation from g(infinity), measured on
    dyadic radii; the log-log slope estimates the decay order (1 for a
    mass-type tail).
    """
    prof = w.profile
    m_inf = prof.m_inf
    # the mass term dominates the deviation only once r >> 2 |m|
    base = max(w.r3 if w.r3 is not None else 10.0, 16.0 * abs(m_inf), 10.0)
    radii = base * 2.0 ** np.arange(1, 8)
    s, _ = w.schedule(radii)
    devs = np.abs(1.0 / (1.0 - 2.0 * prof.m(radii) / radii) - 1.0)
    for q in w.family.sample_points():
        g_lim = w.family.blocks(w.schedule(radii[-1] * 4)[0], q)[0]
        devs = np.maximum(devs, np.abs(w.family.blocks(s, q)[0] - g_lim).max(axis=(-2, -1)))
    if np.all(devs == 0.0):
        return {"mass": m_inf, "order": np.inf, "radii": radii, "deviations": devs}
    good = devs > 0
    slope, _ = np.polyfit(np.log(radii[good]), np.log(devs[good]), 1)
    return {"mass": m_inf, "order": -float(slope), "radii": radii,
            "deviations": devs}


SHRINK_EPS_FLOOR = 1e-6  # smallest arc fraction the shrinking path tries


def construct_from_positive_path(family: FiberFamily, scan_points: int = 4000) -> dict:
    """Shrink the traversed arc until admissibility holds, then construct.

    Requires S(g_0) >= 0 and S(g_s) > 0 strictly for s in (0, 1); the
    returned record carries the chosen eps and the construction outputs.
    """
    s_interior = np.linspace(0.0, 1.0, 33)
    for q in family.sample_points():
        if family.scalar(0.0, q) < 0:
            raise ConstructionError("S(g_0) must be nonnegative")
        for s in s_interior[1:]:
            if family.scalar(s, q) <= 0:
                raise ConstructionError(
                    f"S(g_s) must be strictly positive on (0, 1]; fails at s = {s}")
    eps = 1.0
    trace = []
    while eps >= SHRINK_EPS_FLOOR:
        candidate = ReparametrizedFamily(family, eps)
        report = admissibility_check(candidate)
        trace.append({"eps": eps, "passed": report.passed,
                      "violations": report.violations})
        if report.passed:
            metric, cert = construct_negative_mass(candidate, scan_points)
            return {"eps": eps, "metric": metric, "certificate": cert,
                    "admissibility": report, "trace": trace}
        eps *= 0.5
    raise ConstructionError(
        f"no admissible reparametrization above eps = {SHRINK_EPS_FLOOR}")
