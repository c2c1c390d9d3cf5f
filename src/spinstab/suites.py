"""Verification batteries behind the `verify` command.

Each suite runs the module's invariants and property checks at pinned
tolerances and fills a VerificationReport; a check that raises ends its
suite with a failed `suite_error` record.  The tolerances, grids, cutoffs
and fixtures are literals at the check that uses them; the configuration
holds only the sample and mode counts (`default_config`).  Seeds are
explicit; repeated runs with the same seed and counts produce identical
numbers.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from . import clifford as cliff
from . import curvature as curv
from . import g2 as g2mod
from . import warped as wmod
from .report import VerificationReport
from .torus import cy as cymod
from .torus import eigen as eig
from .torus import geometry as geom
from .torus import operators as ops
from .torus.fields import FourierMetric, FourierScalarField, FourierSymTensor, Grid

SUITES = ("clifford", "curvalg", "torus", "g2", "warped")


def default_config() -> dict:
    """The sample and mode counts of each suite, the only settable values."""
    return {
        "clifford": {"isometry_samples": 100},
        "curvalg": {"curvature_samples": 20, "tensor_samples": 20},
        "torus": {
            "rayleigh_samples": 200,
            "first_variation_samples": 20,
            "second_variation_modes": 10,
            "sign_invariance_pairs": 20,
        },
        "g2": {"identity_samples": 100, "field_modes": 3},
        "warped": {"oracle_samples": 50, "scan_points": 4000, "bound_samples": 100},
    }


# the counts whose least value is not 1: second_variation_tt needs a mode on
# T^3 and one on T^4, which conformal_second_variation scales by
MIN_COUNT = {"torus.second_variation_modes": 2}


def merge_config(overrides: dict) -> dict:
    """The default counts with `overrides`, an object of suite objects of
    counts, merged in.  A key the defaults do not have raises KeyError; an
    override that is not an object, or a count that is not an int of at
    least 1 (MIN_COUNT where listed), raises ValueError."""
    cfg = default_config()
    if not isinstance(overrides, dict):
        raise ValueError(f"config must be an object, not {overrides!r}")
    for suite, counts in overrides.items():
        if suite not in cfg:
            raise KeyError(f"unknown config key {suite!r}")
        if not isinstance(counts, dict):
            raise ValueError(f"{suite} must be an object, not {counts!r}")
        for key, val in counts.items():
            name = f"{suite}.{key}"
            if key not in cfg[suite]:
                raise KeyError(f"unknown config key {name!r}")
            low = MIN_COUNT.get(name, 1)
            if isinstance(val, bool) or not isinstance(val, int) or val < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {val!r}")
            cfg[suite][key] = val
    return cfg


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------

def run_clifford(rep: VerificationReport, seed: int, cfg: dict) -> None:
    sub = cfg["clifford"]
    rng = np.random.default_rng(seed)

    for n in (2, 3, 4, 7, 8):
        g = cliff.build_gamma_rep(n)
        relation = g.relation_residual()
        rep.add(f"relation_n{n}",
                "gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij Id (exact)",
                relation, 0.0)
        skew = g.skew_residual()
        rep.add(f"skew_n{n}", "gamma_i^H = -gamma_i (exact)",
                skew, 0.0)

    # isometry of the tensor-to-spinor embedding
    worst = 0.0
    count = sub["isometry_samples"]
    for n, per_dim in ((4, count - count // 2), (7, count // 2)):
        g = cliff.build_gamma_rep(n)
        for _ in range(per_dim):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            h, ht = 0.5 * (a + a.T), 0.5 * (b + b.T)
            lhs = cliff.twisted_inner(cliff.spinor_embed(h, g), cliff.spinor_embed(ht, g))
            worst = max(worst, abs(lhs - float(np.sum(h * ht))))
    rep.add("embedding_isometry",
            "<embed(h), embed(h~)> = <h, h~> over seeded tensor pairs",
            worst, 1e-13,
            samples=sub["isometry_samples"])

    # derivative commutation on flat tori (Fourier-mode form)
    worst = 0.0
    for n in (4, 7):
        g = cliff.build_gamma_rep(n)
        h = FourierSymTensor.random_real(n, 1, rng, scale=0.5, count=2)
        lhs = ops.spinor_embed_field(h, g)
        for ax in range(n):
            worst = max(worst, (ops.spinor_embed_field(h.deriv(ax), g)
                                - lhs.deriv(ax)).max_amp())
    rep.add("embedding_derivative",
            "d_a embed(h) = embed(d_a h) on flat tori",
            worst, 1e-10)

    # spin equivariance under plane rotations
    worst = 0.0
    for n in (4, 7):
        g = cliff.build_gamma_rep(n)
        for _ in range(5):
            a_, b_ = rng.choice(n, size=2, replace=False)
            theta = float(rng.uniform(0.2, 1.3))
            q = cliff.plane_rotation(n, a_, b_, theta)
            s = cliff.spin_lift_plane(g, a_, b_, theta)
            s_inv = cliff.spin_lift_plane(g, a_, b_, -theta)
            m_ = rng.standard_normal((n, n))
            h = 0.5 * (m_ + m_.T)
            lhs = cliff.spinor_embed(q.T @ h @ q, g, s_inv @ cliff.unit_spinor(g))
            rhs = cliff.rotate_twisted(cliff.spinor_embed(h, g), q, s_inv)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    rep.add("spin_equivariance",
            "embed(Q^T h Q) with rotated vacuum = (spin x coframe) action",
            worst, 1e-12)

    for m in (1, 2):
        model = cliff.cy_clifford_model(m)
        relation = model.relation_residual()
        rep.add(f"cy_relation_m{m}",
                "form-model Clifford relation (exact)",
                relation, 0.0)
        parity = model.parity_residual()
        rep.add(f"cy_parity_m{m}",
                "generators swap even/odd form degree (exact)",
                parity, 0.0)
        _, resid = model.intertwiner(cliff.build_gamma_rep(2 * m))
        rep.add(f"cy_intertwiner_m{m}",
                "unitary intertwiner against the Pauli-product realization",
                resid, 1e-12)
        # the displayed wedge/contraction formula conjugated by the
        # normalization equals the integer model
        d = model.normalization()
        worst = 0.0
        for ax in range(2 * m):
            formula = d @ model.form_matrix(ax) @ np.linalg.inv(d)
            worst = max(worst, float(np.abs(formula - model.gamma[ax]).max()))
        rep.add(f"cy_formula_match_m{m}",
                "sqrt2(pi01(X*)^ - pi01(X)_|) matches the orthonormal model",
                worst, 1e-14)
        # vacuum annihilation: contraction part kills the constant 0-form
        worst = 0.0
        vac = {frozenset(): 1.0}
        for ax in range(2 * m):
            x = np.zeros(2 * m)
            x[ax] = 1.0
            out = model.act_on_form(x, vac)
            for idx, val in out.items():
                if len(idx) == 0:
                    worst = max(worst, abs(val))
        rep.add(f"cy_vacuum_m{m}",
                "constant function is annihilated by all contractions",
                worst, 0.0)


# ---------------------------------------------------------------------------
# curvalg
# ---------------------------------------------------------------------------

def run_curvalg(rep: VerificationReport, seed: int, cfg: dict) -> None:
    sub = cfg["curvalg"]
    rng = np.random.default_rng(seed)

    # validator fixtures
    r0 = curv.validate_curvature(np.zeros((4,) * 4))
    rep.add("validate_zero", "zero curvature validates, Ricci-flat",
            0.0, 0.0, passed=r0.is_ricci_flat)
    sphere = np.zeros((2,) * 4)
    sphere[0, 1, 0, 1] = sphere[1, 0, 1, 0] = 1.0
    sphere[0, 1, 1, 0] = sphere[1, 0, 0, 1] = -1.0
    r_s = curv.validate_curvature(sphere)
    rep.add("validate_sphere", "round 2-sphere pattern has ricci = identity",
            float(np.abs(r_s.ricci - np.eye(2)).max()), 0.0)
    bad = sphere.copy()
    bad[0, 1, 1, 0] = 1.0  # break the second-pair antisymmetry
    try:
        curv.validate_curvature(bad)
        rejected = False
    except curv.CurvatureSymmetryError:
        rejected = True
    rep.add("validate_rejects", "sign-broken tensor rejected with named identity",
            0.0 if rejected else 1.0, 0.0, passed=rejected)

    # curvature action: identity tensor contracts to Ricci; brute-force oracle
    first = curv.k3_sample(seed)
    ring_id = curv.ring_action(first.base, np.eye(4))
    rep.add("ring_identity", "ring(R, Id) = ricci(R)",
            float(np.abs(ring_id - first.base.ricci).max()), 0.0)
    a = rng.standard_normal((4, 4))
    h = 0.5 * (a + a.T)
    ring = curv.ring_action(first.base, h)
    brute = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    brute[i, j] += first.base.tensor[i, k, j, l] * h[k, l]
    rep.add("ring_bruteforce", "einsum contraction matches 4-loop summation",
            float(np.abs(ring - 0.5 * (brute + brute.T)).max()),
            1e-13)

    # seeded spin-compatible samples; the counts report what was checked
    worst_compat = 0.0
    worst_kernel_dim = 2
    worst_bochner = 0.0
    checked = paired = 0
    for i in range(sub["curvature_samples"]):
        sample = curv.k3_sample(seed + i)
        worst_compat = max(worst_compat, sample.compatibility_residual())
        checked += 1
        worst_kernel_dim = curv.joint_kernel_dimension(sample)
        if worst_kernel_dim != 2:
            break
        a = rng.standard_normal((sub["tensor_samples"], 4, 4))
        out = curv.bochner_curvature_identity(sample, 0.5 * (a + np.swapaxes(a, 1, 2)))
        worst_bochner = max(worst_bochner, float(out["ring_contraction"].max()),
                            float(out["ricci_contraction"].max()))
        paired += len(a)
    rep.add("kernel_spinor",
            "sum_ij R_klij gamma_i gamma_j sigma0 = 0 over seeded samples",
            worst_compat, 1e-11, samples=checked)
    rep.add("kernel_dimension", "joint kernel of the 2-form action is one chirality",
            worst_kernel_dim - 2, 0.0)
    rep.add("bochner_contractions",
            "cubic curvature contractions reduce to -2 (Rh) e . sigma0",
            worst_bochner, 1e-10, pairs=paired)

    # generic spinor is not annihilated
    chi = np.diag(cliff.chirality_operator(first.rep)).real
    wrong = np.zeros(4, dtype=complex)
    wrong[np.where(chi == -chi[np.argmax(first.sigma0 != 0)])[0][0]] = 1.0
    worst = float(np.linalg.norm(first.rho @ wrong, axis=-1).max())
    rep.add("nondegenerate", "opposite-chirality spinor is not annihilated",
            worst, 0.0, passed=worst > 1e-3)


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def _seeded_nonflat_metric(n: int, rng, amplitude: float = 0.02) -> FourierMetric:
    h = FourierSymTensor.random_real(n, 1, rng, scale=amplitude, count=2)
    return FourierMetric.from_perturbation(h)


def run_torus(rep: VerificationReport, seed: int, cfg: dict) -> None:
    sub = cfg["torus"]
    rng = np.random.default_rng(seed)

    # --- curvature pipeline -----------------------------------------------
    grid2 = Grid(2, 32)
    flat = geom.metric_curvature(FourierMetric.flat(2), grid2)
    rep.add("flat_curvature", "flat metric has exactly zero curvature",
            float(np.abs(flat["riemann"]).max()) + float(np.abs(flat["scalar"]).max()),
            0.0)

    u = FourierScalarField.cosine(2, (1, 0), 0.1)
    g_conf = FourierMetric.conformal_flat(u, grid2)
    out = geom.metric_curvature(g_conf, grid2)
    uv = u.sample(grid2)
    lap_u = grid2.deriv(grid2.deriv(uv, 0), 0) + grid2.deriv(grid2.deriv(uv, 1), 1)
    oracle = -2.0 * np.exp(-2.0 * uv) * lap_u
    rep.add("conformal_2d_scalar",
            "S(e^{2u} delta) = -2 e^{-2u} Lap u on T^2",
            float(np.abs(out["scalar"] - oracle).max()), 1e-9)

    n3 = 3
    grid3sym = Grid(3, 32)
    h3 = FourierSymTensor.random_real(n3, 2, rng, scale=0.004, count=2)
    gn = FourierMetric.from_perturbation(h3)
    geo3 = geom.MetricGeometry(gn, grid3sym)
    riem = geo3.riemann()
    sym_res = max(res for _, res in curv.curvature_symmetry_violations(riem))
    rep.add("riemann_symmetries",
            "pointwise algebraic curvature identities for perturbed metrics",
            sym_res, 1e-9)
    ric_contr = np.einsum("ik...,ijkl...->jl...", geo3.ginv, riem)
    rep.add("ricci_contraction", "ricci = g^{ik} R_ikjl-type contraction",
            float(np.abs(ric_contr - geo3.ricci()).max()), 1e-9)

    sizes = []
    for eps in (1e-2, 1e-3):
        ge = FourierMetric.from_perturbation(h3, eps / 0.004)
        sizes.append(float(np.abs(geom.MetricGeometry(ge, grid3sym).ricci()).max()))
    slope = np.log(sizes[0] / sizes[1]) / np.log(10.0)
    rep.add("ricci_linear_slope", "|Ric(flat + eps h)| = O(eps)",
            slope - 1.0, 0.05, slope=slope)

    # --- tensor calculus ----------------------------------------------------
    grid3 = Grid(3, 24)
    gflat3 = FourierMetric.flat(3)
    geo_flat3 = geom.MetricGeometry(gflat3, grid3)
    fv = FourierScalarField.cosine(3, (1, 2, 0), 0.7).sample(grid3)
    rep.add("flat_laplacian_symbol", "Lap cos(k.x) = -|k|^2 cos(k.x)",
            float(np.abs(geo_flat3.laplacian(fv) + 5.0 * fv).max()),
            1e-10)

    amat = rng.standard_normal((3, 3))
    amat = 0.5 * (amat + amat.T)
    hmode = FourierSymTensor.from_mode(3, (1, 0, 1), amat)
    div_h = geo_flat3.divergence_sym2(hmode.sample_matrix(grid3))
    kvec = np.array([1.0, 0.0, 1.0])
    # sin(k.x) = cos(k.x - pi/2)
    sin_part = FourierScalarField.cosine(3, (1, 0, 1), 1.0, phase=-np.pi / 2).sample(grid3)
    target = np.stack([(amat @ kvec)[j] * sin_part for j in range(3)])
    rep.add("flat_divergence_symbol",
            "div(A cos(k.x))_j = (A k)_j sin(k.x) with the minus convention",
            float(np.abs(div_h - target).max()), 1e-10)

    # adjointness of div against the symmetrized derivative, non-flat metric
    gnf = _seeded_nonflat_metric(3, rng)
    geo_nf = geom.MetricGeometry(gnf, grid3)
    hv = FourierSymTensor.random_real(3, 2, rng, scale=0.3, count=2).sample_matrix(grid3)
    wv = np.stack([FourierScalarField.random_real(3, 2, rng, 0.3, count=2).sample(grid3)
                   for _ in range(3)])
    lhs = grid3.integrate(
        geo_nf.inner_sym2(geo_nf.sym_derivative_oneform(wv), hv) * geo_nf.sqrt_det)
    rhs = grid3.integrate(
        geo_nf.inner_oneform(geo_nf.divergence_sym2(hv), wv) * geo_nf.sqrt_det)
    rep.add("divergence_adjoint",
            "<delta* w, h> = <w, delta h> by discrete integration by parts",
            abs(lhs - rhs) / max(1.0, abs(lhs)), 1e-10)

    lapf = geo_nf.laplacian(fv)
    trh = np.einsum("ij...,ij...->...", geo_nf.ginv, geo_nf.hessian(fv))
    rep.add("laplacian_is_hessian_trace", "Lap f = tr_g Hess f",
            float(np.abs(lapf - trh).max()), 0.0)

    # --- linearization formulas against finite differences ------------------
    base = _seeded_nonflat_metric(3, rng)
    hdir = FourierSymTensor.random_real(3, 1, rng, scale=0.3, count=2)
    fdir = FourierScalarField.random_real(3, 2, rng, scale=0.5, count=3)
    lin = geom.linearized_formulas(base, hdir, fdir, grid3)
    worst_rel = 0.0
    orders = []
    for name, quantity in (
        ("dric", lambda g_: g_.ricci()),
        ("dscalar", lambda g_: g_.scalar()),
        ("dlaplacian", lambda g_: g_.laplacian(fdir.sample(grid3))),
    ):
        fd = geom.fd_variation(base, hdir, quantity, 1e-4, grid3)
        scale = max(1e-12, float(np.abs(fd["richardson"]).max()))
        err_rich = float(np.abs(lin[name] - fd["richardson"]).max()) / scale
        worst_rel = max(worst_rel, err_rich)
        e1 = float(np.abs(lin[name] - fd["step"]).max())
        e2 = float(np.abs(lin[name] - fd["half_step"]).max())
        orders.append(np.log2(e1 / e2) if e2 > 0 else np.inf)
    rep.add("linearization_match",
            "dRic, dS, dLap agree with central differences of the pipeline",
            worst_rel, 1e-6)
    rep.add("linearization_order", "central-difference convergence order >= 1.9",
            0.0, 0.0, passed=min(orders) >= 1.9,
            orders=[float(o) for o in orders])

    # conformal direction closed form: dS = (1 - n) Lap u on flat background
    uconf = FourierScalarField.cosine(3, (0, 1, 1), 0.5)
    hconf = FourierSymTensor.conformal(uconf)
    lin_c = geom.linearized_formulas(gflat3, hconf, fdir, grid3)
    target = -(3 - 1) * geo_flat3.laplacian(uconf.sample(grid3))
    rep.add("conformal_dscalar", "dS[u g] = (1 - n) Lap u on flat background",
            float(np.abs(lin_c["dscalar"] - target).max()) /
            max(1.0, float(np.abs(target).max())),
            1e-6)

    # --- Dirac square, quadratic form, Rayleigh floor -----------------------
    for n in (4, 7):
        g = cliff.build_gamma_rep(n)
        h = FourierSymTensor.random_real(n, 1, rng, scale=0.7, count=2)
        phi = ops.spinor_embed_field(h, g)
        dd = ops.twisted_dirac(ops.twisted_dirac(phi, g), g)
        target = ops.spinor_embed_field(h.rough_laplacian_flat(), g)
        rep.add(f"dirac_square_n{n}",
                "Dirac^2 embed(h) = embed(connection Laplacian h), flat",
                (dd - target).max_amp(), 1e-10)
        lhs = float(np.real(ops.lichnerowicz_flat(h).l2_inner(h)))
        rhs = ops.twisted_dirac(phi, g).l2_norm_sq()
        rep.add(f"quadratic_identity_n{n}",
                "<Lich h, h> = |Dirac embed(h)|^2 on the flat torus",
                abs(lhs - rhs) / max(1.0, abs(lhs)), 1e-10)

    worst_rayleigh = 0.0
    count = sub["rayleigh_samples"]
    for n, per_dim in ((4, count - count // 2), (7, count // 2)):
        for _ in range(per_dim):
            h = FourierSymTensor.random_real(n, 1, rng, scale=1.0, count=1)
            tt = ops.tt_project(h)
            norm = tt.l2_norm_sq
            if norm < 1e-12:
                continue
            q = float(np.real(ops.lichnerowicz_flat(tt).l2_inner(tt))) / norm
            worst_rayleigh = min(worst_rayleigh, q)
    rep.add("rayleigh_floor",
            "min Rayleigh quotient of the flat Lichnerowicz on TT fields",
            min(0.0, worst_rayleigh), 1e-10,
            samples=sub["rayleigh_samples"])

    # --- TT decomposition ----------------------------------------------------
    h = FourierSymTensor.random_real(4, 2, rng, scale=1.0, count=3)
    tt, lie, conf = ops.tt_split(h)
    rep.add("tt_defect", "trace and divergence of the TT part vanish",
            ops.tt_defect(tt), 1e-10)
    rep.add("tt_reconstruction", "tt + lie + conformal parts resum to h",
            ((tt + lie + conf) - h).max_amp(), 1e-10)
    ortho = max(abs(complex(tt.l2_inner(lie))), abs(complex(tt.l2_inner(conf))))
    rep.add("tt_orthogonality",
            "TT part is L2-orthogonal to the lie and conformal parts",
            ortho / max(1.0, tt.l2_norm_sq), 1e-10)

    # --- kernel dimensions ---------------------------------------------------
    for n, expect in ((2, 2), (4, 9), (7, 27)):
        g = cliff.build_gamma_rep(n)
        basis = ops.stability_kernel_basis(n, g)
        rep.add(f"kernel_dim_n{n}",
                "flat kernel = constant traceless tensors, dim n(n+1)/2 - 1",
                len(basis) - expect, 0.0, rank_margin=basis.rank_margin)

    # --- covers ---------------------------------------------------------------
    h2 = FourierSymTensor.random_real(2, 2, rng, scale=1.0, count=3)
    ph = ops.cover_pullback(h2, (2, 3))
    comm = ops.cover_lichnerowicz(ph, (2, 3)) - ops.cover_pullback(
        ops.lichnerowicz_flat(h2), (2, 3))
    comm_res = comm.max_amp()
    rep.add("cover_commutation",
            "pullback commutes with the Lichnerowicz operator (exact)",
            comm_res, 0.0)
    iden_res = (ops.cover_pullback(h2, (1, 1)) - h2).max_amp()
    rep.add("cover_identity", "unit fold counts give the identity",
            iden_res, 0.0)
    num = ops.cover_l2_inner(ops.cover_lichnerowicz(ph, (2, 3)), ph, (2, 3))
    den = float(np.real(ops.lichnerowicz_flat(h2).l2_inner(h2)))
    # num == 6 den holds exactly; the quotient fl(6 den) / den can be 6 + 1 ulp
    rep.add("cover_quadratic_ratio",
            "cover quadratic form = fold count times the base form",
            num - 6.0 * den, 0.0)

    # --- eigenvalue of the conformal Laplacian -------------------------------
    grid3e = Grid(3, 24)
    # grid values, not the mode-free FourierMetric: that one is solved on
    # its one-point invariant sub-torus, where lambda = 0 by construction
    pair = eig.conformal_eigenvalue(FourierMetric.flat(3).sample_matrix(grid3e), grid3e)
    rep.add("flat_eigenvalue", "lambda(flat) = 0 with constant eigenfunction",
            abs(pair.lam), 1e-12)
    rep.add("flat_eigenfunction", "psi constant, integral psi dV = 1",
            float(np.abs(pair.psi - pair.psi.flat[0]).max())
            + abs(pair.normalization - 1.0),
            1e-12)

    gp = _seeded_nonflat_metric(3, rng, amplitude=0.03)
    p1 = eig.conformal_eigenvalue(gp, grid3e)
    rep.add("eigen_residual", "weighted operator residual of the eigenpair",
            p1.residual, 1e-8, lam=p1.lam, iterations=p1.iterations,
            matvecs=p1.matvecs)
    rep.add("eigen_positivity", "first eigenfunction is positive",
            0.0, 0.0, passed=p1.min_psi > 0.0,
            min_psi=p1.min_psi)
    p2 = eig.conformal_eigenvalue(2.0 * gp.sample_matrix(grid3e), grid3e)
    rep.add("eigen_scaling", "lambda(c g) = lambda(g)/c for constant c = 2",
            abs(p2.lam - p1.lam / 2.0), 1e-11)

    # conformal sign invariance; sign resolution at |lambda| >= 1e-4 does
    # not need the fine grid.  Pairs with |lambda| below the floor are
    # replaced until the required number qualifies.
    grid_sign = Grid(3, 16)
    flips = 0
    qualified = 0
    attempts = 0
    inner_iterations = 0
    while qualified < sub["sign_invariance_pairs"] and attempts < 3 * sub["sign_invariance_pairs"]:
        attempts += 1
        gp = _seeded_nonflat_metric(3, rng, amplitude=0.05)
        base_pair = eig.conformal_eigenvalue(gp, grid_sign)
        inner_iterations += base_pair.iterations
        if abs(base_pair.lam) < 1e-4:
            continue
        qualified += 1
        v = FourierScalarField.random_real(3, 1, rng, scale=0.06, count=2)
        weight = np.exp(v.sample(grid_sign))
        gw = eig.conformal_rescale(gp, weight, grid_sign)
        new_pair = eig.conformal_eigenvalue(gw, grid_sign)
        inner_iterations += new_pair.iterations
        if np.sign(new_pair.lam) != np.sign(base_pair.lam):
            flips += 1
    rep.add("conformal_sign_invariance",
            "sign(lambda) is unchanged by conformal rescaling",
            flips, 0.0,
            passed=(flips == 0 and qualified == sub["sign_invariance_pairs"]),
            pairs=qualified, attempts=attempts, inner_iterations=inner_iterations)

    # first variation at the flat metric vanishes (Ricci-flat criticality)
    worst_first = 0.0
    for _ in range(sub["first_variation_samples"]):
        h = FourierSymTensor.random_real(3, 1, rng, scale=0.5, count=1)
        est = eig.eigenvalue_variations(FourierMetric.flat(3), h, grid3e)
        hnorm = np.sqrt(h.l2_norm_sq / (2 * np.pi) ** 3)
        worst_first = max(worst_first, abs(est.first) / max(hnorm, 1e-9))
    rep.add("first_variation_flat",
            "d/dt lambda(flat + t h) = 0 (Ricci-flat critical point)",
            worst_first, 1e-6,
            samples=sub["first_variation_samples"])

    # second variation matches the TT quadratic form
    worst_second = 0.0
    modes = sub["second_variation_modes"]
    tt_scale = {}
    for i in range(modes):
        n = 3 if i < (modes + 1) // 2 else 4
        grid_n = Grid(3, 24) if n == 3 else Grid(4, 12)
        kvec = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)][i % 5]
        if n == 4:
            kvec = tuple(kvec) + (0,)
        amat = _tt_matrix(n, kvec, rng)
        h = FourierSymTensor.from_mode(n, kvec, amat)
        est = eig.eigenvalue_variations(FourierMetric.flat(n), h, grid_n)
        pred = eig.tt_quadratic_form(h)
        worst_second = max(worst_second, abs(est.second - pred) / abs(pred))
        tt_scale[n] = abs(pred)
    rep.add("second_variation_tt",
            "d2/dt2 lambda matches -(n-2)/(8(n-1)) mean |grad h_tt|^2",
            worst_second, 2e-5, modes=modes)

    # diffeomorphism directions leave lambda flat
    worst_lie = 0.0
    for kvec, vvec in (((1, 1, 0), (0.25, 0.0, 0.15)),
                       ((0, 1, 1), (0.1, -0.2, 0.2))):
        hlie = FourierSymTensor.from_mode(
            3, kvec, -(np.outer(kvec, vvec) + np.outer(vvec, kvec)), phase=np.pi / 2)
        for t in (1e-2, 5e-3):
            gt = FourierMetric.from_perturbation(hlie, t)
            worst_lie = max(worst_lie, abs(eig.conformal_eigenvalue(gt, grid3e).lam))
    rep.add("lie_invariance",
            "lambda is constant along Lie-derivative directions",
            worst_lie, 1e-8)

    # conformal directions contribute nothing at second order
    worst_conf = 0.0
    for n in (3, 4):
        grid_n = Grid(3, 24) if n == 3 else Grid(4, 12)
        kvec = (1,) + (0,) * (n - 1)
        ucos = FourierScalarField.cosine(n, kvec, 1.0)
        hconf2 = FourierSymTensor.conformal(ucos)
        est = eig.eigenvalue_variations(FourierMetric.flat(n), hconf2, grid_n)
        worst_conf = max(worst_conf, abs(est.second) / tt_scale[n])
    rep.add("conformal_second_variation",
            "conformal directions contribute <= 2% of the TT form",
            worst_conf, 2e-2)

    # --- Dolbeault model ------------------------------------------------------
    for m in (1, 2):
        out = cymod.dirac_vs_dolbeault(m, 2)
        rep.add(f"cy_dirac_m{m}",
                "Dirac = sqrt2(dbar - dbar*) mode-wise (dbar* = -adjoint)",
                out["operator_residual"], 1e-10,
                adjoint_defect=out["adjoint_defect"],
                square_residual=out["square_residual"])


def _tt_matrix(n: int, kvec, rng) -> np.ndarray:
    """Random symmetric matrix with A k = 0 and zero trace."""
    a = rng.standard_normal((n, n))
    a = ops.tt_mode_projection(0.5 * (a + a.T), kvec)
    if np.abs(a).max() < 1e-3:
        a = ops.tt_mode_projection(np.diag(np.arange(1.0, n + 1)), kvec)
    return a / np.abs(a).max()


# ---------------------------------------------------------------------------
# g2
# ---------------------------------------------------------------------------

def run_g2(rep: VerificationReport, seed: int, cfg: dict) -> None:
    sub = cfg["g2"]
    rng = np.random.default_rng(seed)

    g2 = g2mod.standard_g2_structure()
    rep.add("orientation", "displayed dual equals the computed Hodge star",
            0.0, 0.0, passed=True)

    e = np.eye(7, dtype=np.int64)
    fixtures = [
        (g2.cross(e[0], e[1]), e[2], "P(e1, e2) = e3"),
        (g2.cross(e[1], e[4]), -e[6], "P(e2, e5) = -e7"),
    ]
    worst = max(int(np.abs(a - b).max()) for a, b, _ in fixtures)
    rep.add("cross_fixtures", "cross product matches the 3-form table",
            worst, 0.0)

    idres = g2mod.verify_cross_identities(g2, seed=seed, samples=sub["identity_samples"])
    total = max(max(idres["basis"].values()), max(idres["random"].values()))
    rep.add("cross_identities",
            "antisymmetry, double-cross, Jacobi-type and dual-contraction "
            "identities (exact)",
            total, 0.0, detail_residuals=idres)

    rel = g2mod.clifford_relation_residual(g2, seed=seed, samples=sub["identity_samples"])
    rep.add("clifford_relation", "X.(X.s) = -|X|^2 s in the R + TM model (exact)",
            rel, 0.0)

    vecs = list(np.eye(7, dtype=np.int64))
    trip = g2mod.triple_pairing_residual(g2, vecs)
    rep.add("triple_pairing", "phi(X,Y,Z) = -<X.Y.Z.sigma0, sigma0> (exact)",
            trip, 0.0)

    types = g2mod.ThreeFormTypes(g2)
    ranks = types.projector_ranks()
    rep.add("projector_ranks", "type projectors have ranks (1, 7, 27)",
            0.0, 0.0, passed=ranks == (1, 7, 27), ranks=list(ranks))
    alg = types.projector_algebra_residual()
    rep.add("projector_algebra",
            "projectors idempotent, mutually annihilating, resolving identity "
            "(exact rational arithmetic)",
            float(alg), 0.0, passed=alg == 0)

    psi_id = g2mod.sym_to_three_form(g2, np.eye(7, dtype=np.int64))
    ok = all(int(a) == 3 * int(b) for a, b in zip(psi_id, g2.phi3))
    rep.add("embed_identity", "3-form embedding of the identity is 3 phi",
            0.0, 0.0, passed=ok)

    worst = 0
    for _ in range(10):
        diag = rng.integers(-3, 4, size=6)
        hmat = np.zeros((7, 7), dtype=np.int64)
        hmat[np.arange(6), np.arange(6)] = diag
        hmat[6, 6] = -int(diag.sum())
        off = rng.integers(-3, 4, size=(7, 7))
        hmat = hmat + off + off.T - np.diag(np.diag(off + off.T))
        psi = g2mod.sym_to_three_form(g2, hmat)
        w6, w7 = types.wedge_conditions(psi)
        worst = max(worst, max(abs(int(v)) for v in w6),
                    max(abs(int(v)) for v in w7))
    rep.add("traceless_type27",
            "embedded traceless tensors satisfy both wedge conditions (exact)",
            worst, 0.0)
    rank = g2mod.sym_to_three_form_rank(g2)
    rep.add("embed_rank", "embedding is injective on traceless tensors",
            rank - 27, 0.0)

    h = FourierSymTensor.random_real(7, 1, rng, scale=0.7, count=sub["field_modes"])
    two = (g2mod.octonion_dirac_by_action(g2, h)
           - g2mod.octonion_dirac_closed_form(g2, h)).max_amp()
    rep.add("dirac_two_methods",
            "Clifford-action Dirac equals (div h, -dh-contraction) closed form",
            two, 1e-11)
    rep.add("codifferential_identity",
            "d* of the embedded 3-form equals its algebraic expansion",
            g2mod.codifferential_identity_residual(g2, h), 1e-11)
    rep.add("star_d_identity",
            "*d of the embedded 3-form equals its algebraic expansion",
            g2mod.star_d_identity_residual(g2, h), 1e-11)

    basis = g2mod.harmonic_constraint_basis(g2)
    worst = 0.0
    for mat in basis[:5]:
        hm = FourierSymTensor.from_constant(mat)
        psi = g2mod.sym_field_to_three_form(g2, hm)
        worst = max(worst,
                    psi.exterior_d().max_amp() + psi.codifferential().max_amp())
    rep.add("constrained_harmonicity",
            "solutions of the three flat constraints give closed and "
            "coclosed 3-forms",
            worst, 1e-10, basis_dim=len(basis),
            rank_margin=basis.rank_margin)
    rep.add("constraint_space_dim",
            "constraint space on the flat 7-torus is the 27 constants",
            len(basis) - 27, 0.0)


# ---------------------------------------------------------------------------
# warped
# ---------------------------------------------------------------------------

def run_warped(rep: VerificationReport, seed: int, cfg: dict) -> None:
    sub = cfg["warped"]
    rng = np.random.default_rng(seed)

    # FD oracle sanity: round sphere, on a (P, 2) array of stencil points
    def sphere_fn(x):
        rho = 2.0 / (1.0 + (x * x).sum(-1))
        return rho[:, None, None] ** 2 * np.eye(2)

    s_val = wmod.scalar_curvature_fd(sphere_fn, np.array([0.3, -0.4]),
                                     np.array([1e-3, 1e-3]))
    rep.add("oracle_sphere", "FD pipeline recovers S = 2 for the unit sphere",
            s_val - 2.0, 1e-7)

    test_metrics = []
    fam_fixed = wmod.ConformalSphereFamily.constant(2.0)
    test_metrics.append(("product", wmod.WarpedMetric(
        profile=wmod.ZeroMass(), family=fam_fixed, s_frozen=0.3),
        (3.0, 30.0)))
    fam_flat = wmod.FlatTorusConformalFamily(
        2, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
    test_metrics.append(("schwarzschild_slice", wmod.WarpedMetric(
        profile=wmod.ConstantMass(1.0), family=fam_flat), (3.0, 30.0)))

    family = wmod.ConformalSphereFamily.smooth_radius_path(0.2, 0.2 * (1.0 + 1e-4))
    adm = wmod.admissibility_check(family)
    rep.add("admissibility", "derivative bounds <= 1/200 and S^- <= a0/10",
            max(adm.c1, adm.c2, adm.c3), wmod.COND_BOUND,
            passed=adm.passed, a0=adm.a0)
    metric, cert = wmod.construct_negative_mass(
        family, scan_points=sub["scan_points"])
    prof = metric.profile
    test_metrics.append(("construction", metric,
                         (prof.r2 * 1.03, prof.r3 * 0.97)))

    # product fixture: scalar equals the fiber scalar
    wprod = test_metrics[0][1]
    qs = wprod.family.sample_points()
    prod_res = max(
        abs(wmod.warped_scalar(wprod, r, q) - wprod.family.scalar(0.3, q))
        for r in (2.0, 7.0, 19.0) for q in qs)
    rep.add("product_scalar", "m = 0 with frozen fiber reproduces S_M",
            prod_res, 1e-12)

    worst_oracle = 0.0
    worst_trace = 0.0
    per_metric = sub["oracle_samples"]
    for name, w, r_range in test_metrics:
        points = wmod.sample_oracle_points(w, r_range, per_metric, rng)
        for r, q in points:
            formula = wmod.warped_scalar(w, r, q)
            oracle = wmod.fd_curvature_oracle(w, r, q)
            err = abs(formula - oracle["estimate"])
            worst_oracle = max(worst_oracle, err / wmod.oracle_gate(oracle["error_bar"]))
            ric = wmod.warped_ricci(w, r, q)
            worst_trace = max(worst_trace, abs(ric["trace"] - formula))
        if len(points) < per_metric:
            rep.add(f"oracle_sampling_{name}", "sampling away from breakpoints",
                    1.0, 0.0, passed=False)
    rep.add("scalar_vs_oracle",
            "closed-form scalar curvature within max(1e-6, 3 error bars) of "
            "the FD oracle on all test metrics",
            worst_oracle, 1.0, samples_per_metric=per_metric)
    rep.add("ricci_trace_identity",
            "R00 + 2 Rii / r^2 + tr_g Rab reassembles the scalar curvature",
            worst_trace, 1e-12)

    # construction certificate
    rep.add("scan_nonnegative", "grid scan of the scalar curvature >= -1e-9",
            min(0.0, cert.min_scalar), 1e-9,
            argmin_r=cert.argmin_r)
    rep.add("horizon", "2 m(r) < r everywhere on the scan",
            0.0, 0.0, passed=cert.min_lapse_margin > 0.0,
            margin=cert.min_lapse_margin)
    rep.add("mass_negative", "constructed mass is negative",
            0.0, 0.0, passed=prof.m_inf < 0.0, m_inf=prof.m_inf)
    m_r3_target = -(1.0 / 84.0) * adm.a0 * prof.r1**3
    rep.add("transition_value", "m(r3) = -(1/84) a0 r1^3",
            abs(prof.m_r3 - m_r3_target) / abs(m_r3_target),
            1e-12)
    m_inf_target = -(1.0 / 168.0) * adm.a0 * prof.r1**3
    rep.add("tail_value", "mass limit = -(1/168) a0 r1^3",
            abs(prof.m_inf - m_inf_target) / abs(m_inf_target),
            1e-12)
    mo = wmod.mass_and_order(metric)
    rep.add("mass_readoff", "mass functional returns the profile limit",
            mo["mass"] - prof.m_inf, 0.0)
    rep.add("asymptotic_order", "fitted decay order is 1.00 +- 0.05",
            mo["order"] - 1.0, 0.05, order=mo["order"])

    # lower bound soundness and coefficient bounds
    worst_gap = -np.inf
    worst_a = 0.0
    worst_b = 0.0
    for _ in range(sub["bound_samples"]):
        r = float(rng.uniform(prof.r2, prof.r3))
        lb = wmod.scalar_lower_bound(adm, metric, r)
        q = family.sample_points()[int(rng.integers(0, 4))]
        actual = wmod.warped_scalar(metric, r, q)
        worst_gap = max(worst_gap, lb["bound"] - actual)
        worst_a = max(worst_a, abs(lb["A"]))
        worst_b = max(worst_b, abs(lb["B"]))
    rep.add("lower_bound_sound", "closed-form lower bound <= actual scalar",
            max(0.0, worst_gap), 1e-12,
            samples=sub["bound_samples"])
    boundary = wmod.AdmissibilityReport(
        c1=wmod.COND_BOUND, c2=wmod.COND_BOUND, c3=wmod.COND_BOUND,
        s_minus=0.0, a0=adm.a0, passed=True, violations=[])
    worst_ab = 0.0
    for r in np.linspace(prof.r2, prof.r3, 33):
        lb = wmod.scalar_lower_bound(boundary, metric, r)
        worst_ab = max(worst_ab, abs(lb["A"]) / 3.0, abs(lb["B"]) / 1.0)
    rep.add("coefficient_bounds",
            "|A| <= 3 and |B| <= 1 at the 1/200 boundary constants",
            worst_ab, 1.0, also_at_measured=(worst_a, worst_b))

    # admissibility rejection and the shrinking path
    steep = wmod.ConformalSphereFamily.smooth_radius_path(1.0, 0.9)
    steep_rep = wmod.admissibility_check(steep)
    rep.add("steep_rejected", "fast families fail with named bounds",
            0.0, 0.0, passed=not steep_rep.passed,
            violations=steep_rep.violations)
    shrink = wmod.construct_from_positive_path(steep, scan_points=1500)
    rep.add("shrink_construct",
            "reparametrized family passes and the construction certifies",
            min(0.0, shrink["certificate"].min_scalar), 1e-9,
            eps=shrink["eps"])


RUNNERS = {
    "clifford": run_clifford,
    "curvalg": run_curvalg,
    "torus": run_torus,
    "g2": run_g2,
    "warped": run_warped,
}


def run_suite(name: str, seed: int = 0, config: dict | None = None):
    cfg = merge_config({} if config is None else config)
    if name != "all" and name not in RUNNERS:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return [_run_one(s, seed, cfg) for s in (SUITES if name == "all" else (name,))]


def _run_one(name: str, seed: int, cfg: dict) -> VerificationReport:
    """One suite's report; a check that raises ends the suite with a failed
    `suite_error` record after the records made so far."""
    rep = VerificationReport(name, seed, cfg)
    try:
        RUNNERS[name](rep, seed, cfg)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        rep.add("suite_error", "every check of the suite runs to completion", 1.0,
                0.0, passed=False, error=f"{type(exc).__name__}: {exc}",
                where=f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
                after=rep.records[-1].check_id if rep.records else None)
    return rep
