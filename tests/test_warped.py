import numpy as np
import pytest

from spinstab.warped import (
    AdmissibilityReport,
    COND_BOUND,
    ConformalSphereFamily,
    ConstantMass,
    ConstructionError,
    FlatTorusConformalFamily,
    HorizonError,
    InverseTail,
    ReparametrizedFamily,
    StabilityMassProfile,
    WarpedMetric,
    ZeroMass,
    admissibility_check,
    construct_from_positive_path,
    construct_negative_mass,
    fd_curvature_oracle,
    mass_and_order,
    sample_oracle_points,
    scalar_curvature_fd,
    scalar_lower_bound,
    scan_scalar_positivity,
    smooth_path,
    warped_metric_function,
    warped_ricci,
    warped_scalar,
)

RADIUS = 0.2
BUMP = 1e-4


def desk_family():
    return ConformalSphereFamily.smooth_radius_path(RADIUS, RADIUS * (1 + BUMP))


# ---------------------------------------------------------------------------
# mass profiles
# ---------------------------------------------------------------------------

def test_profile_core_conditions():
    prof = StabilityMassProfile(a0=50.0)
    eps = 1e-6
    assert prof.m(0.0) == 0.0
    assert abs(prof.m(eps)) < 1e-17          # cubic core: O(r^3)
    assert abs(prof.dm(eps)) < 1e-10         # O(r^2)
    assert prof.r2 == prof.r1 + 1.0
    assert abs(prof.r3 - (prof.r2 + prof.r1 / 7.0)) < 1e-12


def test_profile_values_match_closed_forms():
    a0 = 50.0
    prof = StabilityMassProfile(a0=a0)
    r1 = prof.r1
    assert abs(prof.m_r3 - (-(1.0 / 84.0) * a0 * r1**3)) < 1e-9 * abs(prof.m_r3)
    assert prof.m_inf == -(1.0 / 168.0) * a0 * r1**3
    assert prof.m_inf > prof.m_r3  # monotone tail upward to the limit


def test_profile_transition_slope_bound():
    # m'(r) >= -(a0/4) r^2 throughout the transition
    a0 = 50.0
    prof = StabilityMassProfile(a0=a0)
    r = np.linspace(prof.r1, prof.r2, 2001)
    assert np.all(prof.dm(r) >= -(a0 / 4.0) * r**2 - 1e-9)


def test_profile_derivative_continuity():
    prof = StabilityMassProfile(a0=50.0)
    for b in prof.breakpoints:
        left = prof.dm(b - 1e-9)
        right = prof.dm(b + 1e-9)
        assert abs(left - right) < 1e-3 * max(1.0, abs(left))
    # tail is increasing toward a negative limit
    r = np.geomspace(prof.r3 * 1.01, prof.r3 * 100, 200)
    assert np.all(prof.dm(r) > 0)
    assert prof.m(1e9) < 0


def test_profile_horizon_clear():
    prof = StabilityMassProfile(a0=50.0)
    r = np.linspace(1e-3, 4 * prof.r3, 4000)
    assert np.all(2 * prof.m(r) < r)


def test_profile_rejects_bad_a0():
    with pytest.raises(ValueError):
        StabilityMassProfile(a0=-1.0)


# ---------------------------------------------------------------------------
# scalar curvature formula vs oracle
# ---------------------------------------------------------------------------

def test_fd_oracle_recovers_unit_sphere():
    def fn(x):
        rho = 2.0 / (1.0 + (x * x).sum(-1))
        return rho[:, None, None] ** 2 * np.eye(2)

    s = scalar_curvature_fd(fn, np.array([0.3, -0.4]), np.array([1e-3, 1e-3]))
    assert abs(s - 2.0) < 1e-7


def _parent_fd_tables(fn, x0, steps):
    """The per-point stencil evaluation the oracle used before the stencil
    table: a dict cache, one fn call per point."""
    d = len(x0)
    g0 = fn(x0)
    cache = {}

    def ev(offsets):
        key = tuple(offsets)
        if key not in cache:
            x = np.array(x0, dtype=float)
            for ax, mult in offsets:
                x[ax] += mult * steps[ax]
            cache[key] = fn(x)
        return cache[key]

    w1 = {-2: 1.0 / 12, -1: -8.0 / 12, 1: 8.0 / 12, 2: -1.0 / 12}
    dg = np.zeros((d,) + g0.shape)
    for a in range(d):
        acc = np.zeros_like(g0)
        for mult, wgt in w1.items():
            acc += wgt * ev(((a, mult),))
        dg[a] = acc / steps[a]
    d2g = np.zeros((d, d) + g0.shape)
    w2 = {-2: -1.0 / 12, -1: 16.0 / 12, 0: -30.0 / 12, 1: 16.0 / 12, 2: -1.0 / 12}
    for a in range(d):
        acc = np.zeros_like(g0)
        for mult, wgt in w2.items():
            acc += wgt * (g0 if mult == 0 else ev(((a, mult),)))
        d2g[a, a] = acc / steps[a] ** 2
    for a in range(d):
        for b in range(a + 1, d):
            acc = np.zeros_like(g0)
            for ma, wa in w1.items():
                for mb, wb in w1.items():
                    acc += wa * wb * ev(((a, ma), (b, mb)))
            d2g[a, b] = d2g[b, a] = acc / (steps[a] * steps[b])
    return g0, dg, d2g


def _parent_scalar_curvature_fd(fn, x0, steps):
    """scalar_curvature_fd on the per-point tables, with a one-point fn."""
    g0, dg, d2g = _parent_fd_tables(fn, np.asarray(x0, dtype=float), steps)
    gi = np.linalg.inv(g0)
    dgi = -np.einsum("kl,alm,mn->akn", gi, dg, gi)
    br = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    gam = 0.5 * np.einsum("kl,ijl->kij", gi, br)
    dbr = (d2g + np.transpose(d2g, (0, 2, 1, 3)) - np.transpose(d2g, (0, 2, 3, 1)))
    dgam = 0.5 * (np.einsum("akl,ijl->akij", dgi, br)
                  + np.einsum("kl,aijl->akij", gi, dbr))
    ric = (np.einsum("iijk->jk", dgam) - np.einsum("jiik->jk", dgam)
           + np.einsum("iim,mjk->jk", gam, gam)
           - np.einsum("ijm,mik->jk", gam, gam))
    return float(np.einsum("jk,jk->", gi, ric))


def _parent_point_metric(w):
    """The coordinate metric of the warped oracle at one point."""
    k = w.fiber_dim

    def fn(x):
        r, p, q = x[0], x[1:3], x[3:3 + k]
        m = float(w.profile.m(r))
        out = np.zeros((3 + k, 3 + k))
        out[0, 0] = 1.0 / (1.0 - 2.0 * m / r)
        sigma = 2.0 / (1.0 + float(p @ p))
        out[1, 1] = out[2, 2] = (r * sigma) ** 2
        out[3:, 3:] = w.family.blocks(w.schedule(r)[0], q)[0]
        return out

    return fn


def _richardson(curvature, fn, x0, steps, aniso=1.0):
    """The oracle's estimate and error bar from two step levels of curvature."""
    full, half = curvature(fn, x0, steps), curvature(fn, x0, steps / 2.0)
    roundoff = 1e-16 * (1.0 + abs(aniso)) / 1e-3**2 * 4.0
    return (16.0 * half - full) / 15.0, abs(half - full) / 3.0 + roundoff


def test_stencil_table_matches_per_point_tables():
    # two roundoff realizations of one estimate: they agree within the sum of
    # their error bars (on the Schwarzschild slice, whose exact value is 0,
    # either estimate can sit past one bar)
    def sphere_point(x):
        rho = 2.0 / (1.0 + x @ x)
        return rho**2 * np.eye(2)

    def sphere_rows(x):
        rho = 2.0 / (1.0 + (x * x).sum(-1))
        return rho[:, None, None] ** 2 * np.eye(2)

    x0, steps = np.array([0.3, -0.4]), np.array([1e-3, 1e-3])
    new, bar = _richardson(scalar_curvature_fd, sphere_rows, x0, steps)
    old, old_bar = _richardson(_parent_scalar_curvature_fd, sphere_point, x0, steps)
    assert abs(new - old) <= bar + old_bar
    flat = FlatTorusConformalFamily(2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    construction, _ = construct_negative_mass(desk_family(), scan_points=800)
    prof = construction.profile
    fixtures = [
        (WarpedMetric(profile=ZeroMass(), family=ConformalSphereFamily.constant(2.0),
                      s_frozen=0.3), (3.0, 30.0)),
        (WarpedMetric(profile=ConstantMass(1.0), family=flat), (3.0, 30.0)),
        (construction, (prof.r2 * 1.03, prof.r3 * 0.97)),
    ]
    points = [(w, r, q) for w, r_range in fixtures for seed in (0, 1)
              for r, q in sample_oracle_points(w, r_range, 6, np.random.default_rng(seed))]
    for w, r, q in points:
        out = fd_curvature_oracle(w, r, q)
        x0 = np.concatenate([[r, 0.35, -0.15], q])
        steps = 1e-3 * np.concatenate([[r], np.full(len(x0) - 1, 2.0)])
        old, old_bar = _richardson(_parent_scalar_curvature_fd, _parent_point_metric(w),
                                   x0, steps, 1.0 / (1.0 - 2.0 * float(w.profile.m(r)) / r))
        assert abs(out["estimate"] - old) <= out["error_bar"] + old_bar


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_stencil_has_one_row_per_point_and_one_call_per_level(d):
    calls = []

    def flat(x):
        calls.append(x.shape)
        return np.broadcast_to(np.eye(d), (len(x), d, d))

    assert abs(scalar_curvature_fd(flat, np.zeros(d), np.full(d, 1e-3))) <= 1e-6
    assert calls == [(1 + 4 * d + 8 * d * (d - 1), d)]


def test_oracle_on_a_seven_torus_schwarzschild_slice():
    # d = 3 + 7: no 5^10 box is built, the stencil has 761 points
    fam = FlatTorusConformalFamily(7, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    w = WarpedMetric(profile=ConstantMass(1.0), family=fam)
    out = fd_curvature_oracle(w, 5.0, 0.3 * np.ones(7))
    assert warped_scalar(w, 5.0, 0.3 * np.ones(7)) == 0.0
    assert abs(out["estimate"]) <= max(1e-6, 3 * out["error_bar"])


def test_product_metric_scalar():
    fam = ConformalSphereFamily.constant(2.0)
    w = WarpedMetric(profile=ZeroMass(), family=fam, s_frozen=0.5)
    q = np.array([0.2, 0.1])
    assert warped_scalar(w, 5.0, q) == fam.scalar(0.5, q) == 0.5
    out = fd_curvature_oracle(w, 5.0, q)
    assert abs(out["estimate"] - 0.5) <= max(1e-6, 3 * out["error_bar"])


def test_schwarzschild_slice_is_scalar_flat():
    fam = FlatTorusConformalFamily(2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    w = WarpedMetric(profile=ConstantMass(1.0), family=fam)
    q = np.zeros(2)
    for r in (3.0, 5.0, 11.0):
        assert warped_scalar(w, r, q) == 0.0
        out = fd_curvature_oracle(w, r, q)
        assert abs(out["estimate"]) <= max(1e-6, 3 * out["error_bar"])


def test_horizon_error_raised():
    fam = FlatTorusConformalFamily(2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    w = WarpedMetric(profile=ConstantMass(1.0), family=fam)
    with pytest.raises(HorizonError):
        warped_scalar(w, 1.5, np.zeros(2))


def test_ricci_components_constant_mass():
    # fixed flat fiber: R00 = -2 m0 / r^3, Rii = m0 / r (display with g' = 0)
    fam = FlatTorusConformalFamily(2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    w = WarpedMetric(profile=ConstantMass(1.0), family=fam)
    out = warped_ricci(w, 5.0, np.zeros(2))
    assert abs(out["R00"] + 2.0 / 125.0) < 1e-15
    assert abs(out["Rii"] - 1.0 / 5.0) < 1e-15
    assert np.abs(out["Rab"]).max() == 0.0
    assert abs(out["trace"] - warped_scalar(w, 5.0, np.zeros(2))) < 1e-12


def test_ricci_trace_identity_on_construction():
    fam = desk_family()
    metric, _ = construct_negative_mass(fam, scan_points=800)
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = float(rng.uniform(metric.profile.r2 * 1.03, metric.profile.r3 * 0.97))
        q = fam.sample_points()[int(rng.integers(0, 4))]
        out = warped_ricci(metric, r, q)
        assert abs(out["trace"] - warped_scalar(metric, r, q)) <= 1e-12


def test_sphere_family_formula_vs_oracle():
    fam = desk_family()
    metric, _ = construct_negative_mass(fam, scan_points=800)
    rng = np.random.default_rng(1)
    for _ in range(5):
        r = float(rng.uniform(metric.profile.r2 * 1.05, metric.profile.r3 * 0.95))
        q = fam.sample_points()[int(rng.integers(0, 4))]
        formula = warped_scalar(metric, r, q)
        out = fd_curvature_oracle(metric, r, q)
        assert abs(formula - out["estimate"]) <= max(1e-6, 3 * out["error_bar"])


def test_oracle_sampler_avoids_breakpoints_and_caps_draws():
    metric, _ = construct_negative_mass(desk_family(), scan_points=800)
    prof = metric.profile
    breaks = tuple(prof.breakpoints) + (metric.r2, metric.r3)
    points = sample_oracle_points(metric, (prof.r2 * 1.03, prof.r3 * 0.97), 20,
                                  np.random.default_rng(0))
    assert len(points) == 20
    for r, q in points:
        assert all(abs(r - b) >= 0.05 * max(1.0, r) for b in breaks)
        assert any(np.array_equal(q, p) for p in metric.family.sample_points())
    # every radius of this range is excluded: 10 x 5 draws, then give up
    rng = np.random.default_rng(1)
    b = prof.breakpoints[-1]
    assert sample_oracle_points(metric, (b - 0.01, b + 0.01), 5, rng) == []
    ref = np.random.default_rng(1)
    ref.uniform(size=50)
    assert rng.uniform() == ref.uniform()


def test_oracle_guards_breakpoints():
    fam = desk_family()
    metric, _ = construct_negative_mass(fam, scan_points=800)
    with pytest.raises(ValueError):
        fd_curvature_oracle(metric, metric.profile.r2, fam.sample_points()[0])


# ---------------------------------------------------------------------------
# admissibility, construction, bounds
# ---------------------------------------------------------------------------

def test_admissibility_constant_family():
    fam = ConformalSphereFamily.constant(1.0)
    rep = admissibility_check(fam)
    assert rep.passed
    assert rep.c1 == rep.c2 == rep.c3 == 0.0
    assert rep.a0 == 2.0


def test_admissibility_closed_form_sphere():
    # C2 = max |4 f'/f|, C3 = max |4 (f'' f - f'^2)/f^2|, C1 = C2^2/2
    fam = desk_family()
    rep = admissibility_check(fam)
    s = np.linspace(0, 1, 2001)
    f = RADIUS * (1 + BUMP * s**2 * (3 - 2 * s))
    df = RADIUS * BUMP * 6 * s * (1 - s)
    d2f = RADIUS * BUMP * (6 - 12 * s)
    c2 = np.abs(4 * df / f).max()
    c3 = np.abs(4 * (d2f * f - df**2) / f**2).max()
    c1 = np.abs(2 * (2 * df / f) ** 2).max()
    assert abs(rep.c2 - c2) < 1e-6 * c2
    assert abs(rep.c3 - c3) < 1e-4 * c3
    assert abs(rep.c1 - c1) < 1e-4 * c1
    assert rep.passed


def test_admissibility_rejects_steep_family():
    steep = ConformalSphereFamily.smooth_radius_path(1.0, 0.9)
    rep = admissibility_check(steep)
    assert not rep.passed
    assert any("C2" in v or "C1" in v or "C3" in v for v in rep.violations)


def test_construction_certificate():
    fam = desk_family()
    metric, cert = construct_negative_mass(fam, scan_points=2000)
    assert cert.passed
    assert cert.min_scalar >= -1e-9
    assert cert.min_lapse_margin > 0.0
    prof = metric.profile
    adm = admissibility_check(fam)
    assert abs(prof.m_r3 + (1.0 / 84.0) * adm.a0 * prof.r1**3) <= 1e-12 * abs(prof.m_r3)
    assert abs(prof.m_inf + (1.0 / 168.0) * adm.a0 * prof.r1**3) <= 1e-12 * abs(prof.m_inf)
    assert prof.m_inf < 0


def test_construction_requires_admissibility():
    steep = ConformalSphereFamily.smooth_radius_path(1.0, 0.9)
    with pytest.raises(ConstructionError):
        construct_negative_mass(steep)


def test_scan_on_product_metric():
    fam = ConformalSphereFamily.constant(1.0)
    w = WarpedMetric(profile=ZeroMass(), family=fam, s_frozen=0.0)
    cert = scan_scalar_positivity(w, scan_points=500)
    assert cert.passed
    assert abs(cert.min_scalar - 2.0) < 1e-12  # S = S_M = 2 everywhere


def test_scan_fails_unless_every_profile_piece_holds_a_radius():
    metric, _ = construct_negative_mass(desk_family(), scan_points=800)
    prof = metric.profile
    cert = scan_scalar_positivity(metric, scan_points=10)
    assert cert.empty_pieces == [(prof.r1, prof.r2), (prof.r2, prof.r3)]
    assert cert.min_scalar >= 0.0 and not cert.passed
    assert scan_scalar_positivity(metric, scan_points=800).empty_pieces == []
    with pytest.raises(ConstructionError, match=r"piece\(s\) \[18, 19\), \[19, 21.5714\)"):
        construct_negative_mass(desk_family(), scan_points=10)
    # a profile without breakpoints is one piece, which any scan covers
    product = WarpedMetric(profile=ZeroMass(), family=ConformalSphereFamily.constant(1.0))
    assert scan_scalar_positivity(product, scan_points=1).passed


def test_lower_bound_zero_constants():
    # C1 = C2 = C3 = 0: A = B = 0 and bound = -S^- + a0 r1^2 / r^2
    fam = desk_family()
    metric, _ = construct_negative_mass(fam, scan_points=800)
    prof = metric.profile
    rep0 = AdmissibilityReport(0.0, 0.0, 0.0, 0.0, 50.0, True, [])
    r = 0.5 * (prof.r2 + prof.r3)
    out = scalar_lower_bound(rep0, metric, r)
    assert out["A"] == 0.0
    assert out["B"] == 0.0
    assert abs(out["bound"] - 50.0 * prof.r1**2 / r**2) < 1e-12


def test_lower_bound_boundary_constants():
    fam = desk_family()
    metric, _ = construct_negative_mass(fam, scan_points=800)
    prof = metric.profile
    rep = AdmissibilityReport(COND_BOUND, COND_BOUND, COND_BOUND, 0.0,
                              50.0, True, [])
    for r in np.linspace(prof.r2, prof.r3, 21):
        out = scalar_lower_bound(rep, metric, float(r))
        assert abs(out["A"]) <= 3.0
        assert abs(out["B"]) <= 1.0


def test_lower_bound_is_sound():
    fam = desk_family()
    adm = admissibility_check(fam)
    metric, _ = construct_negative_mass(fam, scan_points=800)
    rng = np.random.default_rng(9)
    for _ in range(25):
        r = float(rng.uniform(metric.profile.r2, metric.profile.r3))
        out = scalar_lower_bound(adm, metric, r)
        for q in fam.sample_points():
            assert out["bound"] <= warped_scalar(metric, r, q) + 1e-12


def test_lower_bound_domain_guard():
    fam = desk_family()
    metric, _ = construct_negative_mass(fam, scan_points=800)
    adm = admissibility_check(fam)
    with pytest.raises(ValueError):
        scalar_lower_bound(adm, metric, metric.profile.r1)


# ---------------------------------------------------------------------------
# mass and asymptotics
# ---------------------------------------------------------------------------

def test_mass_zero_profile():
    fam = ConformalSphereFamily.constant(1.0)
    w = WarpedMetric(profile=ZeroMass(), family=fam, s_frozen=0.0)
    out = mass_and_order(w)
    assert out["mass"] == 0.0
    assert np.all(out["deviations"] == 0.0)


def test_mass_inverse_tail_order_one():
    fam = FlatTorusConformalFamily(2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    w = WarpedMetric(profile=InverseTail(-2.0, 5.0), family=fam)
    out = mass_and_order(w)
    assert out["mass"] == -2.0
    assert abs(out["order"] - 1.0) <= 0.05


def test_mass_of_construction():
    fam = desk_family()
    metric, _ = construct_negative_mass(fam, scan_points=800)
    out = mass_and_order(metric)
    assert out["mass"] == metric.profile.m_inf
    assert abs(out["order"] - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# the shrinking path
# ---------------------------------------------------------------------------

def test_shrink_path_succeeds_on_steep_family():
    steep = ConformalSphereFamily.smooth_radius_path(1.0, 0.9)
    out = construct_from_positive_path(steep, scan_points=800)
    assert out["certificate"].passed
    assert 0 < out["eps"] < 1
    rep = admissibility_check(ReparametrizedFamily(steep, out["eps"]))
    assert rep.passed


def test_shrink_metric_ricci_trace_and_descriptor():
    # the shrink construction's fiber is a ReparametrizedFamily: its ricci
    # and to_json_obj run only here
    steep = ConformalSphereFamily.smooth_radius_path(1.0, 0.9)
    metric = construct_from_positive_path(steep, scan_points=1500)["metric"]
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = float(rng.uniform(metric.r2 * 1.03, metric.r3 * 0.97))
        q = metric.family.sample_points()[int(rng.integers(0, 4))]
        out = warped_ricci(metric, r, q)
        assert abs(out["trace"] - warped_scalar(metric, r, q)) <= 1e-12
    obj = metric.family.to_json_obj()
    assert obj["kind"] == "ReparametrizedFamily" and obj["eps"] == 0.03125
    assert obj["base"] == steep.to_json_obj()


def test_shrink_path_rejects_zero_scalar_family():
    flat = FlatTorusConformalFamily(2, lambda s: 1.0 + 0.001 * s,
                                    lambda s: 0.001, lambda s: 0.0)
    with pytest.raises(ConstructionError):
        construct_from_positive_path(flat)


def test_reparametrized_family_scaling():
    fam = desk_family()
    rep = ReparametrizedFamily(fam, 0.5)
    q = fam.sample_points()[0]
    (g, gs, gss), (g_ref, gs_ref, gss_ref) = rep.blocks(1.0, q), fam.blocks(0.5, q)
    assert np.allclose(g, g_ref)
    assert np.allclose(gs, 0.5 * gs_ref)
    assert np.allclose(gss, 0.25 * gss_ref)


# ---------------------------------------------------------------------------
# array evaluation: one code path, equal to the float calls
# ---------------------------------------------------------------------------

def _parent_blocks(fam, s, q):
    """(g, d_s g, d_s^2 g, S_M) at one float s, as the per-point code wrote
    them: Python floats, `**` squares, one (k, k) block per call."""
    if isinstance(fam, ReparametrizedFamily):
        g, gs, gss, s_m = _parent_blocks(fam.base, fam.eps * s, q)
        return g, fam.eps * gs, fam.eps**2 * gss, s_m
    if isinstance(fam, ConformalSphereFamily):
        q = np.asarray(q, dtype=float)
        rho = 2.0 / (1.0 + float(q @ q))
        f, df, d2f, eye = fam.f(s), fam.df(s), fam.d2f(s), np.eye(2)
        return ((f * rho) ** 2 * eye, 2.0 * f * df * rho**2 * eye,
                2.0 * (df**2 + f * d2f) * rho**2 * eye, 2.0 / f**2)
    c, dc, d2c, eye = fam.c(s), fam.dc(s), fam.d2c(s), np.eye(fam.dim)
    return c**2 * eye, 2.0 * c * dc * eye, 2.0 * (dc**2 + c * d2c) * eye, 0.0


def _parent_scalar(w, r, q):
    """The scalar curvature at one radius as the per-point code computed it."""
    if w.r2 is None:
        s, dsdr = w.s_frozen, 0.0
    elif r <= w.r2:
        s, dsdr = 1.0, 0.0
    elif r >= w.r3:
        s, dsdr = 0.0, 0.0
    else:
        s, dsdr = (w.r3 - r) / (w.r3 - w.r2), -1.0 / (w.r3 - w.r2)
    g, gs, gss, s_m = _parent_blocks(w.family, s, q)
    gi = np.linalg.inv(g)
    a = gi @ (dsdr * gs)
    gp = float(np.trace(a))
    q2 = float(np.trace(a @ a))
    gpp = float(np.trace(-a @ a + gi @ (dsdr**2 * gss)))
    m, dm = float(w.profile.m(r)), float(w.profile.dm(r))
    lapse = 1.0 - 2.0 * m / r
    return (s_m + dm * (4.0 / r**2 + gp / r) - (m / r**2) * gp
            - lapse * (gpp + 2.0 * gp / r + 0.25 * gp**2 + 0.25 * q2))


def _parent_admissibility(fam, s_count=65):
    c1 = c2 = c3 = s_minus = 0.0
    a0 = np.inf
    for q in fam.sample_points():
        for s in np.linspace(0.0, 1.0, s_count):
            g, gs, gss, s_m = _parent_blocks(fam, float(s), q)
            gi = np.linalg.inv(g)
            a = gi @ gs
            c1 = max(c1, abs(-float(np.trace(a @ a))))
            c2 = max(c2, abs(float(np.trace(a))))
            c3 = max(c3, abs(float(np.trace(-a @ a + gi @ gss))))
            s_minus = max(s_minus, max(0.0, -s_m))
        a0 = min(a0, _parent_blocks(fam, 1.0, q)[3])
    return c1, c2, c3, s_minus, a0


def _parent_piecewise(prof, r, which):
    """StabilityMassProfile._piecewise as it was: every join's slopes are
    compared on every call."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for seg in prof._segments:
        mask = (r >= seg.lo) & (r < seg.hi)
        if np.any(mask):
            out[mask] = getattr(seg, which)(r[mask])
    for left, right in zip(prof._segments, prof._segments[1:]):
        b = left.hi
        if abs(float(left.dm(b)) - float(right.dm(b))) < 1e-14 * (1 + abs(float(left.dm(b)))):
            continue
        w = prof.width
        mask = (r > b - w) & (r < b + w)
        if not np.any(mask):
            continue
        u = (r[mask] - (b - w)) / (2 * w)
        s = u * u * (3.0 - 2.0 * u)
        if which == "m":
            out[mask] = (1 - s) * left.m(r[mask]) + s * right.m(r[mask])
        else:
            ds = 6.0 * u * (1.0 - u) / (2 * w)
            out[mask] = ((1 - s) * left.dm(r[mask]) + s * right.dm(r[mask])
                         + ds * (right.m(r[mask]) - left.m(r[mask])))
    return out


SCAN = 4000  # the suite's scan: 1-ulp rounding slips show up at this count


def _construction_radii(prof, count):
    """The scan radii, the joins r1, r2, r3 and the mollified window at r3."""
    w = prof.width
    marks = [prof.r1, prof.r2, prof.r3, prof.r3 - w, prof.r3 + w,
             np.nextafter(prof.r2, 0.0), np.nextafter(prof.r3, np.inf)]
    window = np.linspace(prof.r3 - w, prof.r3 + w, 41)
    return np.concatenate([np.linspace(4 * prof.r3 / count, 4 * prof.r3, count),
                           marks, window])


@pytest.fixture(scope="module")
def array_fixtures():
    """name -> (metric, radii, per-point parent values for each fiber sample)."""
    metric, _ = construct_negative_mass(desk_family(), scan_points=200)
    shrink = construct_from_positive_path(
        ConformalSphereFamily.smooth_radius_path(1.0, 0.9), scan_points=1500)["metric"]
    flat = FlatTorusConformalFamily(2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    fixtures = {
        "construction": (metric, _construction_radii(metric.profile, SCAN)),
        "shrink_path": (shrink, _construction_radii(shrink.profile, 400)),
        "product": (WarpedMetric(profile=ZeroMass(),
                                 family=ConformalSphereFamily.constant(2.0), s_frozen=0.3),
                    np.linspace(0.5, 30.0, 200)),
        "schwarzschild_slice": (WarpedMetric(profile=ConstantMass(1.0), family=flat),
                                np.linspace(2.5, 30.0, 200)),
    }
    return {name: (w, radii, [np.array([_parent_scalar(w, float(r), q) for r in radii])
                              for q in w.family.sample_points()])
            for name, (w, radii) in fixtures.items()}


@pytest.mark.parametrize("name", ["construction", "shrink_path", "product",
                                  "schwarzschild_slice"])
def test_array_scalar_equals_float_calls(array_fixtures, name):
    w, radii, parent = array_fixtures[name]
    for q, parent_q in zip(w.family.sample_points(), parent):
        values = warped_scalar(w, radii, q)
        assert values.shape == radii.shape
        pointwise = np.array([warped_scalar(w, float(r), q) for r in radii])
        assert np.array_equal(values, pointwise)
        # the per-point formula before vectorization: same arithmetic up to
        # the rounding of `**` squares against products
        assert np.abs(values - parent_q).max() <= 1e-13
        for r in radii[::37]:
            inv = w.radial_invariants(float(r), q)
            assert all(isinstance(v, float) for v in inv)
            batch = w.radial_invariants(radii, q)
            i = int(np.flatnonzero(radii == r)[0])
            assert [float(b[i]) for b in batch] == [float(v) for v in inv]


def test_array_schedule_matches_float_calls(array_fixtures):
    for name in ("construction", "product"):
        w, radii, _ = array_fixtures[name]
        s, dsdr = w.schedule(radii)
        for i, r in enumerate(radii):
            s_i, dsdr_i = w.schedule(float(r))
            assert isinstance(s_i, float) and isinstance(dsdr_i, float)
            assert (s[i], dsdr[i]) == (s_i, dsdr_i)
            assert not np.signbit(s_i) and (dsdr_i < 0.0 or not np.signbit(dsdr_i))
        assert not np.signbit(s).any() and not np.signbit(dsdr[dsdr == 0.0]).any()
    prof = array_fixtures["construction"][0].profile
    w = array_fixtures["construction"][0]
    assert w.schedule(prof.r2) == (1.0, 0.0) and not np.signbit(w.schedule(prof.r2)[1])
    assert w.schedule(prof.r3) == (0.0, 0.0)
    assert w.schedule(0.5 * (prof.r2 + prof.r3))[1] == -1.0 / (prof.r3 - prof.r2)


def test_scan_matches_pointwise_loop(array_fixtures):
    w, radii, parent = array_fixtures["construction"]
    cert = scan_scalar_positivity(w, scan_points=SCAN)
    radii = radii[:SCAN]
    assert np.array_equal(cert.scan_radii, radii)
    assert cert.scan_values.shape == (len(parent), SCAN)
    for qi, q in enumerate(w.family.sample_points()):
        assert np.array_equal(cert.scan_values[qi], warped_scalar(w, cert.scan_radii, q))
    worst, arg_r, arg_q = np.inf, radii[0], 0
    for qi, parent_q in enumerate(parent):
        vals = parent_q[:SCAN]
        i = int(np.argmin(vals))
        if vals[i] < worst:
            worst, arg_r, arg_q = float(vals[i]), float(radii[i]), qi
    assert cert.passed == (worst >= -1e-9)
    assert cert.argmin_q_index == arg_q
    assert cert.argmin_r == arg_r
    assert abs(cert.min_scalar - worst) <= 1e-13


def test_admissibility_matches_pointwise_loop():
    steep = ConformalSphereFamily.smooth_radius_path(1.0, 0.9)
    families = [desk_family(), ConformalSphereFamily.constant(1.0),
                FlatTorusConformalFamily(2, lambda s: 1.0 + 0.001 * s,
                                         lambda s: 0.001, lambda s: 0.0)]
    eps = 1.0
    while True:  # the shrink path's eps chain, down to the first pass
        families.append(ReparametrizedFamily(steep, eps))
        if admissibility_check(families[-1]).passed:
            break
        eps *= 0.5
    assert len(families) > 4
    for fam in families:
        rep = admissibility_check(fam)
        c1, c2, c3, s_minus, a0 = _parent_admissibility(fam)
        for new, old in ((rep.c1, c1), (rep.c2, c2), (rep.c3, c3)):
            assert abs(new - old) <= 1e-15 * abs(old)
        assert rep.s_minus == s_minus
        assert abs(rep.a0 - a0) <= 1e-15 * abs(a0)
        violations = []
        for name, val in (("C1", c1), ("C2", c2), ("C3", c3)):
            if val > COND_BOUND:
                violations.append(f"{name} = {val:.3e} > 1/200")
        if not a0 > 0:
            violations.append(f"S(g_1) = {a0:.3e} not positive")
        elif s_minus > a0 / 10.0:
            violations.append(f"S^- = {s_minus:.3e} > a0/10 = {a0 / 10:.3e}")
        assert rep.violations == violations
        assert rep.passed == (not violations)


def test_array_call_raises_horizon_error():
    flat = FlatTorusConformalFamily(2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    w = WarpedMetric(profile=ConstantMass(1.0), family=flat)
    assert np.all(warped_scalar(w, np.array([2.5, 3.0, 9.0]), np.zeros(2)) == 0.0)
    with pytest.raises(HorizonError, match="r = 2.000e"):
        warped_scalar(w, np.array([5.0, 2.0, 9.0]), np.zeros(2))
    with pytest.raises(HorizonError):
        warped_scalar(w, np.array([1.5]), np.zeros(2))
    # the oracle's coordinate metric on a batch of stencil points
    fn = warped_metric_function(w)
    x = np.zeros((3, 5))
    x[:, 0] = [5.0, 2.5, 9.0]
    assert fn(x).shape == (3, 5, 5)
    x[1, 0] = 1.5
    with pytest.raises(HorizonError, match="r = 1.500e"):
        fn(x)


def test_family_methods_on_arrays_equal_scalar_calls():
    s = np.linspace(0.0, 1.0, 17)
    families = [
        desk_family(),
        ConformalSphereFamily.constant(2.0),
        FlatTorusConformalFamily(3, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0),
        FlatTorusConformalFamily(2, lambda s: 1.0 + 0.1 * s * s,
                                 lambda s: 0.2 * s, lambda s: 0.2 + 0.0 * s),
        ReparametrizedFamily(ConformalSphereFamily.smooth_radius_path(1.0, 0.9), 0.25),
    ]
    rng = np.random.default_rng(0)
    for fam in families:
        k = fam.dim
        # each sample point for every s, then one random fiber point per s
        q_inputs = [(q, lambda i, q=q: q) for q in fam.sample_points()]
        q_rows = rng.normal(size=(len(s), k))
        q_inputs.append((q_rows, lambda i: q_rows[i]))
        for q, q_at in q_inputs:
            blocks = fam.blocks(s, q)
            assert len(blocks) == 3
            for i, si in enumerate(s):
                single = fam.blocks(float(si), q_at(i))
                for batch, one in zip(blocks, single, strict=True):
                    assert batch.shape == (len(s), k, k) and one.shape == (k, k)
                    assert np.array_equal(batch[i], one)
        for q in fam.sample_points():
            scal = fam.scalar(s, q)
            assert scal.shape == s.shape
            for i, si in enumerate(s):
                single = fam.scalar(float(si), q)
                assert isinstance(single, float)
                assert scal[i] == single


def test_profile_matches_per_call_join_test():
    for a0 in (50.0, 0.3, 1000.0):
        prof = StabilityMassProfile(a0=a0)
        w = prof.width
        r = np.concatenate([
            np.linspace(1e-3, 4 * prof.r3, 3001),
            [prof.r1, prof.r2, prof.r3, prof.r3 - w, prof.r3 + w],
            np.linspace(prof.r3 - w, prof.r3 + w, 101)])
        for which in ("m", "dm"):
            ref = _parent_piecewise(prof, r, which)
            assert np.array_equal(getattr(prof, which)(r), ref)
            for ri, vi in zip(r[::50], ref[::50]):
                assert getattr(prof, which)(float(ri)) == vi


def _parent_smooth_closures(start, end):
    """The smoothstep closures that ConformalSphereFamily.smooth_radius_path
    and the CLI torus fiber each defined before smooth_path."""
    delta = end - start

    def f(s):
        return start + delta * (s * s * (3.0 - 2.0 * s))

    def df(s):
        return delta * (6.0 * s * (1.0 - s))

    def d2f(s):
        return delta * (6.0 - 12.0 * s)

    return f, df, d2f


def test_smooth_path_matches_the_closures_of_both_families():
    from spinstab.cli import _family_from_descriptor

    s = np.linspace(0.0, 1.0, 33)
    sphere = ConformalSphereFamily.smooth_radius_path(1.0, 0.9)
    torus = _family_from_descriptor(
        {"fiber": {"kind": "torus", "k": 2, "scale_start": 1.0, "scale_end": 1.3}})
    for start, end, fns in ((1.0, 0.9, (sphere.f, sphere.df, sphere.d2f)),
                            (1.0, 1.3, (torus.c, torus.dc, torus.d2c))):
        for new, shared, old in zip(fns, smooth_path(start, end),
                                    _parent_smooth_closures(start, end)):
            assert np.array_equal(new(s), old(s))
            assert np.array_equal(shared(s), old(s))
            assert all(new(float(x)) == old(float(x)) for x in s)
