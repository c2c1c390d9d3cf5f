"""Span tracing of the spinstab package, installed from outside it.

`Tracer.install()` replaces the public functions of every spinstab module,
and the public methods of its public classes, with wrappers that record one
span per call: (name, start, end, parent span, op id).  Functions imported
by name into other modules (`fftn`/`ifftn` in `torus.geometry` and
`torus.eigen`, for example) are rebound in every namespace that holds them,
so no call goes uncounted.  `uninstall()` restores the originals.

Spans stay in memory; `layer_metrics()` turns the spans of one pass into the
per-layer metrics and `dump()` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time

# module -> layer; `report` belongs to the `suites` layer
LAYERS = {
    "spinstab.torus.fields": "fields",
    "spinstab.torus.geometry": "geometry",
    "spinstab.torus.eigen": "eigen",
    "spinstab.torus.operators": "operators",
    "spinstab.torus.cy": "cy",
    "spinstab.g2": "g2",
    "spinstab.clifford": "clifford",
    "spinstab.curvature": "curvature",
    "spinstab.exterior": "exterior",
    "spinstab.warped": "warped",
    "spinstab.spectrum": "spectrum",
    "spinstab.suites": "suites",
    "spinstab.report": "suites",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

# Constructors are traced only where they do real work; the containers'
# constructors run millions of times and are covered by their callers' spans.
TRACED_INITS = {"MetricGeometry", "ThreeFormTypes", "CYCliffordModel"}
# Properties are traced only where the getter computes something large.
TRACED_PROPERTIES = {("MetricGeometry", "dgamma")}


def _fft_hook(tracer, idx, args, kwargs, out):
    if out is not None:
        tracer.fft_bytes[idx] = args[0].nbytes + out.nbytes


def _solve_hook(tracer, idx, args, kwargs, out):
    initial = kwargs.get("initial", args[4] if len(args) > 4 else None)
    tracer.solves[idx] = (
        initial is not None,
        None if out is None else int(out.iterations),
        None if out is None else float(out.residual),
    )


HOOKS = {
    "fields:fftn": _fft_hook,
    "fields:ifftn": _fft_hook,
    "eigen:conformal_eigenvalue": _solve_hook,
}


class Tracer:
    """Records spans of spinstab calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, t0, t1, parent index, op id)
        self.fft_bytes: dict[int, int] = {}
        self.solves: dict[int, tuple] = {}
        self.op = ""
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original value)

    # -- installation ------------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        replaced = {}  # id(original function) -> wrapper
        classes = {}  # insertion-ordered set
        for mod_name, layer in LAYERS.items():
            mod = sys.modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}:{obj.__qualname__}")
                    replaced[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    # private bases such as _ComponentField carry public methods
                    classes.update(dict.fromkeys(
                        c for c in obj.__mro__ if c.__module__ in LAYERS))
        for cls in classes:
            self._wrap_class(cls, LAYERS[cls.__module__])
        # rebind functions imported by name into other spinstab namespaces
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("spinstab") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(mod, attr) is not wrapper:
                    self._set(mod, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and not (
                    attr == "__init__" and cls.__name__ in TRACED_INITS):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, property) and (cls.__name__, attr) in TRACED_PROPERTIES:
                self._set(cls, attr, property(self._wrap(obj.fget, name),
                                              obj.fset, obj.fdel, obj.__doc__))

    def _wrap(self, fn, name):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, tracer.op)
                if hook is not None:
                    hook(tracer, idx, args, kwargs, out)

        return traced

    # -- analysis ----------------------------------------------------------
    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self time of spans lo..hi-1: duration minus their children's."""
        spans = self.spans
        out = [s[2] - s[1] for s in spans[lo:hi]]
        for s in spans[lo:hi]:
            if s[3] >= lo:
                out[s[3] - lo] -= s[2] - s[1]
        return out

    def check_nesting(self, lo: int, hi: int) -> list[str]:
        """Problems with the span tree of lo..hi-1 (empty when it is sound)."""
        problems = []
        spans = self.spans
        last_child_end = {}
        for i in range(lo, hi):
            _, t0, t1, parent, _ = spans[i]
            if t1 < t0:
                problems.append(f"span {i} ends before it starts")
            if parent >= 0:
                _, p0, p1, _, _ = spans[parent]
                if parent >= i or t0 < p0 or t1 > p1:
                    problems.append(f"span {i} is not inside its parent {parent}")
            if t0 < last_child_end.get(parent, float("-inf")):
                problems.append(f"span {i} overlaps an earlier sibling")
            last_child_end[parent] = t1
        for i, st in enumerate(self.self_times(lo, hi), start=lo):
            if st < 0:
                problems.append(f"span {i} has negative self time {st:.3e}")
        return problems

    def layer_metrics(self, lo: int, hi: int, pass_s: float) -> dict:
        """Per-layer metrics of the spans lo..hi-1 recorded during one pass."""
        spans = self.spans
        names = self.names
        by_name: dict[str, list[int]] = {}
        for i in range(lo, hi):
            by_name.setdefault(names[spans[i][0]], []).append(i)

        def members(*names_):
            return [i for n in names_ for i in by_name.get(n, ())]

        def calls(*names_):
            return len(members(*names_))

        def inclusive(*names_):
            """Time inside the named functions, nested calls counted once."""
            group = {self._name_ids[n] for n in names_ if n in self._name_ids}
            total = 0.0
            for i in members(*names_):
                p = spans[i][3]
                while p >= lo and spans[p][0] not in group:
                    p = spans[p][3]
                if p < lo:
                    total += spans[i][2] - spans[i][1]
            return total

        layer_self = dict.fromkeys(LAYER_NAMES, 0.0)
        for i, st in enumerate(self.self_times(lo, hi), start=lo):
            layer_self[names[spans[i][0]].split(":", 1)[0]] += st

        solve_ids = members("eigen:conformal_eigenvalue")
        solve_info = [self.solves[i] for i in solve_ids]
        warm_ids = [i for i, s in zip(solve_ids, solve_info) if s[0]]
        cold_ids = [i for i, s in zip(solve_ids, solve_info) if not s[0]]
        iters = [s[1] for s in solve_info if s[1] is not None]
        residuals = [s[2] for s in solve_info if s[2] is not None]

        def duration(ids):
            return sum((spans[i][2] - spans[i][1] for i in ids), 0.0)

        fft = ("fields:fftn", "fields:ifftn")
        grads = ("fields:Grid.gradient", "fields:Grid.deriv")
        samples = ("fields:FourierScalarField.sample",
                   "fields:_ComponentField.sample_matrix",
                   "fields:FourierMetric.sample_matrix")
        scalar_calls = calls("warped:warped_scalar")
        scalar_s = inclusive("warped:warped_scalar")
        m = {
            "eigen.solves": len(solve_ids),
            "eigen.cold_solves": len(cold_ids),
            "eigen.warm_solves": len(warm_ids),
            "eigen.solve_s": duration(solve_ids),
            "eigen.cold_s": duration(cold_ids),
            "eigen.warm_s": duration(warm_ids),
            "eigen.inner_iters": sum(iters),
            "eigen.inner_iters_max": max(iters, default=0),
            "eigen.iters_per_solve": sum(iters) / len(iters) if iters else 0.0,
            "eigen.max_residual": max(residuals, default=0.0),
            "eigen.variation_calls": calls("eigen:eigenvalue_variations"),
            "eigen.variation_s": inclusive("eigen:eigenvalue_variations"),
            "eigen.self_s": layer_self["eigen"],
            "fields.fft_calls": calls(*fft),
            "fields.fft_s": inclusive(*fft),
            "fields.fft_bytes_computed": sum(self.fft_bytes[i] for i in members(*fft)
                                             if i in self.fft_bytes),
            "fields.gradient_calls": calls(*grads),
            "fields.gradient_s": inclusive(*grads),
            "fields.sample_s": inclusive(*samples),
            "fields.self_s": layer_self["fields"],
            "geometry.build_calls": calls("geometry:MetricGeometry.__init__"),
            "geometry.build_s": inclusive("geometry:MetricGeometry.__init__"),
            "geometry.riemann_calls": calls("geometry:MetricGeometry.riemann"),
            "geometry.riemann_s": inclusive("geometry:MetricGeometry.riemann"),
            "geometry.ricci_s": inclusive("geometry:MetricGeometry.ricci"),
            "geometry.lichnerowicz_s": inclusive("geometry:MetricGeometry.lichnerowicz"),
            "geometry.fd_variation_s": inclusive("geometry:fd_variation"),
            "geometry.self_s": layer_self["geometry"],
            "operators.tt_split_s": inclusive("operators:tt_split", "operators:tt_project"),
            "operators.dirac_s": inclusive("operators:twisted_dirac", "operators:dirac_symbol"),
            "operators.lichnerowicz_flat_calls": calls("operators:lichnerowicz_flat"),
            "operators.lichnerowicz_flat_s": inclusive("operators:lichnerowicz_flat"),
            "operators.kernel_basis_s": inclusive("operators:stability_kernel_basis"),
            "operators.cover_s": inclusive("operators:cover_pullback",
                                           "operators:cover_lichnerowicz",
                                           "operators:cover_l2_inner"),
            "operators.self_s": layer_self["operators"],
            "cy.s": layer_self["cy"],
            "g2.identities_s": inclusive("g2:verify_cross_identities",
                                         "g2:cross_identity_residuals",
                                         "g2:clifford_relation_residual",
                                         "g2:triple_pairing_residual"),
            "g2.projectors_s": inclusive(*[n for n in by_name
                                           if n.startswith("g2:ThreeFormTypes.")]),
            "g2.field_identities_s": inclusive("g2:octonion_dirac_by_action",
                                               "g2:octonion_dirac_closed_form",
                                               "g2:codifferential_identity_residual",
                                               "g2:star_d_identity_residual"),
            "g2.harmonic_basis_s": inclusive("g2:harmonic_constraint_basis"),
            "g2.self_s": layer_self["g2"],
            "clifford.s": layer_self["clifford"],
            "curvature.s": layer_self["curvature"],
            "exterior.self_s": layer_self["exterior"],
            "spectrum.rayleigh_s": inclusive("spectrum:rayleigh_rows"),
            "spectrum.self_s": layer_self["spectrum"],
            "suites.run_s": layer_self["suites"],
            "warped.scalar_calls": scalar_calls,
            "warped.scalar_s": scalar_s,
            "warped.scalar_us_per_call": 1e6 * scalar_s / scalar_calls if scalar_calls else 0.0,
            "warped.scan_s": inclusive("warped:scan_scalar_positivity"),
            "warped.oracle_calls": calls("warped:fd_curvature_oracle"),
            "warped.oracle_s": inclusive("warped:fd_curvature_oracle"),
            "warped.ricci_s": inclusive("warped:warped_ricci"),
            "warped.admissibility_s": inclusive("warped:admissibility_check"),
            "warped.lower_bound_s": inclusive("warped:scalar_lower_bound"),
            "warped.self_s": layer_self["warped"],
        }
        attributed = sum(layer_self.values())
        m["trace.unattributed_frac"] = 1.0 - attributed / pass_s if pass_s > 0 else 0.0
        return m

    def dump(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name_id, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[name_id],
                                     "start": t0, "end": t1, "parent": parent,
                                     "op": op}) + "\n")


def median_metrics(per_pass: list[dict]) -> dict:
    """Per-metric median over passes; a value every pass agrees on is kept
    as it is, so counts stay whole numbers."""
    out = {}
    for k in per_pass[0]:
        values = [p[k] for p in per_pass]
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
