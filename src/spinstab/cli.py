"""Command-line interface: verification suites, warped constructions, spectra.

`verify --config` reads a JSON object of sample counts per suite, the
only settable values of the suites (docs/formats.md lists them).  Exit
codes: 0 all checks pass, 1 a check or scan failed, 2 usage or
configuration errors, a malformed config file included; those end in one
`error:` line before any check runs.  CSV columns are documented in
docs/formats.md; floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

USAGE_ERROR = 2
CHECK_FAILURE = 1

from . import warped as wmod
from .spectrum import rayleigh_rows
from .suites import SUITES, merge_config, run_suite
from .torus.fields import MAX_CUTOFF, FourierMetric, FourierSymTensor, Grid


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None


def _object(value, name: str) -> dict:
    """A descriptor object; {} for null or absent."""
    if value is not None and not isinstance(value, dict):
        raise SystemExit(f"{name} must be an object, not {value!r}")
    return value or {}


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """A descriptor integer in [low, high]; anything else is a usage error."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise SystemExit(f"{name} must be an integer {bound}, not {value!r}")
    return value


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
    return int(text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    try:  # a bad config; a failing check is a record
        cfg = merge_config(_load_json(args.config) if args.config else {})
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    reports = run_suite(args.suite, seed=args.seed, config=cfg)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        for line in r.summary_lines():
            print(line)
    print(f"verify {args.suite}: {'PASS' if all_pass else 'FAIL'} "
          f"({sum(len(r.records) for r in reports)} checks)")
    if args.out:
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "config": reports[0].config,
            "passed": all_pass,
            "reports": [json.loads(r.to_json()) for r in reports],
        }
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if all_pass else CHECK_FAILURE


# ---------------------------------------------------------------------------
# warped
# ---------------------------------------------------------------------------

def _family_from_descriptor(desc: dict) -> wmod.FiberFamily:
    fiber = desc.get("fiber")
    if not isinstance(fiber, dict) or "kind" not in fiber:
        raise SystemExit("descriptor must contain fiber.kind")
    kind = fiber["kind"]
    if kind == "sphere_path":
        return wmod.ConformalSphereFamily.smooth_radius_path(
            float(fiber["radius_start"]), float(fiber["radius_end"]))
    if kind == "sphere":
        return wmod.ConformalSphereFamily.constant(float(fiber["radius"]))
    if kind == "torus":
        start = float(fiber.get("scale_start", 1.0))
        end = float(fiber.get("scale_end", start))
        return wmod.FlatTorusConformalFamily(_integer(fiber.get("k", 2), "fiber.k", 1),
                                             *wmod.smooth_path(start, end))
    raise SystemExit(f"unknown fiber kind {kind!r}")


def _scan_settings(desc: dict) -> tuple:
    """(points, r_max_factor) of the descriptor's positivity scan."""
    scan = _object(desc.get("scan"), "scan")
    factor = float(scan.get("r_max_factor", 4.0))
    if not factor > 0.0:
        raise SystemExit(f"scan.r_max_factor must be > 0, not {factor!r}")
    return _integer(scan.get("points", 4000), "scan.points", 1), factor


def _metric_from_descriptor(desc: dict):
    """(metric, certificate); the certificate is the construction's scan,
    None for a fixed profile."""
    family = _family_from_descriptor(desc)
    prof_desc = _object(desc.get("profile"), "profile")
    kind = prof_desc.get("kind", "construct")
    if kind == "construct":
        return wmod.construct_negative_mass(family, *_scan_settings(desc))
    if kind == "zero":
        profile = wmod.ZeroMass()
    elif kind == "constant":
        profile = wmod.ConstantMass(float(prof_desc["m0"]))
    elif kind == "tail":
        profile = wmod.InverseTail(float(prof_desc["m_inf"]),
                                   float(prof_desc["c"]))
    else:
        raise SystemExit(f"unknown profile kind {kind!r}")
    metric = wmod.WarpedMetric(profile=profile, family=family,
                               s_frozen=float(desc.get("frozen_s", 0.0)))
    return metric, None


def cmd_warped(args) -> int:
    desc = _object(_load_json(args.family), "descriptor")
    try:
        metric, cert = _metric_from_descriptor(desc)
    except wmod.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE

    if args.action == "build":
        mo = wmod.mass_and_order(metric)
        payload = {
            "metric": metric.to_json_obj(),
            "mass": mo["mass"],
            "asymptotic_order": mo["order"],
        }
        if cert is not None:
            payload["certificate"] = {
                "min_scalar": cert.min_scalar,
                "argmin_r": cert.argmin_r,
                "min_lapse_margin": cert.min_lapse_margin,
                "passed": cert.passed,
            }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text)
        return 0

    if args.action == "scan":
        if cert is None:
            cert = wmod.scan_scalar_positivity(metric, *_scan_settings(desc))
        adm = None
        if isinstance(metric.profile, wmod.StabilityMassProfile):
            adm = wmod.admissibility_check(metric.family)
        rows = []
        for qi, values in enumerate(cert.scan_values):
            for r, s_val in zip(cert.scan_radii, values.tolist()):
                bound = ""
                if adm is not None and metric.r2 <= r <= metric.r3:
                    bound = wmod.scalar_lower_bound(adm, metric, float(r))["bound"]
                rows.append((r, qi, s_val, bound))
        _write_csv(args.out, ["r", "q_index", "scalar", "lower_bound"], rows)
        print(f"scan: min scalar {cert.min_scalar:.6e} "
              f"({'PASS' if cert.passed else 'FAIL'})")
        return 0 if cert.passed else CHECK_FAILURE

    if args.action == "oracle":
        if metric.r2 is not None:
            r_range = (metric.profile.r2 * 1.03, metric.profile.r3 * 0.97)
        else:
            r_range = (3.0, 30.0)
        rows = []
        failures = 0
        samples = _integer(_object(desc.get("oracle"), "oracle").get("samples", 25),
                           "oracle.samples", 1)
        points = wmod.sample_oracle_points(metric, r_range, samples,
                                           np.random.default_rng(args.seed))
        for r, q in points:
            formula = wmod.warped_scalar(metric, r, q)
            oracle = wmod.fd_curvature_oracle(metric, r, q)
            ok = abs(formula - oracle["estimate"]) <= wmod.oracle_gate(oracle["error_bar"])
            failures += 0 if ok else 1
            rows.append((r, formula, oracle["estimate"], oracle["error_bar"],
                         int(ok)))
        _write_csv(args.out, ["r", "formula", "fd_estimate", "error_bar",
                              "within_tolerance"], rows)
        print(f"oracle: {len(rows) - failures}/{samples} within tolerance")
        return 0 if failures == 0 and len(rows) == samples else CHECK_FAILURE

    raise SystemExit(f"unknown warped action {args.action!r}")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    if args.count < 0:
        print("error: --count must be nonnegative", file=sys.stderr)
        return USAGE_ERROR
    desc = _object(_load_json(args.descriptor), "descriptor") if args.descriptor else {"dim": 4}
    n = _integer(desc.get("dim", 4), "dim", 2, 4)
    cutoff = _integer(desc.get("cutoff", 1), "cutoff", 0, MAX_CUTOFF[n])
    grid = Grid(n, _integer(desc["grid"], "grid", 1)) if "grid" in desc else Grid(n)
    pert = _object(desc.get("perturbation"), "perturbation")
    if pert:
        rng = np.random.default_rng(int(pert.get("seed", args.seed)))
        h = FourierSymTensor.random_real(
            n, _integer(pert.get("cutoff", 1), "perturbation.cutoff", 1, MAX_CUTOFF[n]), rng,
            scale=float(pert.get("amplitude", 0.02)),
            count=_integer(pert.get("count", 2), "perturbation.count", 1))
        metric = FourierMetric.from_perturbation(h)
    else:
        metric = FourierMetric.flat(n)
    rows = []
    if args.count > 0:
        rows_tt, ground = rayleigh_rows(metric, args.count, cutoff, grid)
        rows = [(r["kind"], r["index"], r["value"], r["multiplicity"], r["residual"])
                for r in rows_tt + [ground]]
    _write_csv(args.out, ["kind", "index", "value", "multiplicity", "residual"],
               rows)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinstab",
        description="verification toolkit for spinorial stability geometry")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a module verification suite")
    pv.add_argument("suite", choices=list(SUITES) + ["all"])
    pv.add_argument("--seed", type=_seed, default=0)
    pv.add_argument("--config", help="JSON file of sample counts")
    pv.add_argument("--out", help="write the JSON report here")
    pv.set_defaults(func=cmd_verify)

    pw = sub.add_parser("warped", help="build or check warped metrics")
    pw.add_argument("action", choices=["build", "scan", "oracle"])
    pw.add_argument("--family", required=True,
                    help="JSON descriptor of the fiber family and profile")
    pw.add_argument("--out", help="output file (JSON for build, CSV otherwise)")
    pw.add_argument("--seed", type=_seed, default=0)
    pw.set_defaults(func=cmd_warped)

    ps = sub.add_parser("spectrum", help="Rayleigh spectra and ground state")
    ps.add_argument("--descriptor", help="JSON metric descriptor")
    ps.add_argument("--count", type=int, default=5)
    ps.add_argument("--out", help="CSV output path")
    ps.add_argument("--seed", type=_seed, default=0)
    ps.set_defaults(func=cmd_spectrum)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return USAGE_ERROR
        raise
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
