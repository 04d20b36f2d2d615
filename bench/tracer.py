"""Span tracing of the library's layers from outside the library.

Each layer is one module of ``hotspots``. The tracer replaces that module's
entry points (the functions other layers and the benchmark call) with
wrappers that record a span: layer, function, start, end, parent span and a
few counters read from the arguments or the result. Every binding of a
wrapped function is patched, in every loaded module, so a call through
``hotspots.continuation.triangulate`` is traced the same as one through
``hotspots.mesh.triangulate``. ``uninstall`` puts the originals back.

Spans nest because the benchmark drives the library from one thread: a span
opened while another is open is its child. A span's self time is its
duration minus its children's durations.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_points(args, kwargs) -> dict:
    pts = kwargs.get("pts", args[2] if len(args) > 2 else None)
    return {"points": len(np.atleast_2d(np.asarray(pts, dtype=float)))}


# (module, attribute path, layer, observer(args, kwargs, result) -> info).
# Observers read only what the call already computed.
TARGETS = [
    ("hotspots.mesh", "triangulate", "mesh", lambda a, k, r: {"nodes": r.n_nodes}),
    ("hotspots.mesh", "refine", "mesh", lambda a, k, r: {"nodes": r.n_nodes}),
    ("hotspots.eigensolver", "solve_second", "eigensolver",
     lambda a, k, r: {"ndof": r.space.ndof, "nnz": r.space.matrices[0].nnz,
                      "residual": r.residual}),
    ("hotspots.eigensolver", "P2Space.project_gradient", "eigensolver", None),
    ("hotspots.eigensolver", "P2Space.eval", "eigensolver",
     lambda a, k, r: _n_points(a, k)),
    ("hotspots.eigensolver", "P2Space.eval_grad", "eigensolver",
     lambda a, k, r: _n_points(a, k)),
    ("hotspots.bessel", "fit_coefficients", "bessel", lambda a, k, r: {"cond": r.cond}),
    ("hotspots.critical", "find_critical_points", "critical",
     lambda a, k, r: {"points": len(r.points), "unresolved": len(r.unresolved_points())}),
    ("hotspots.critical", "verify_index_formula", "critical", None),
    ("hotspots.critical", "index_of", "critical", None),
    ("hotspots.critical", "estimate_hessian", "critical", None),
    ("hotspots.critical", "cusp_diagnostic", "critical", None),
    # private, but called from hotspots.continuation: a layer boundary
    ("hotspots.critical", "_side_tangential_roots", "critical", None),
    ("hotspots.critical", "_grad_scale", "critical", None),
    ("hotspots.nodal", "trace", "nodal",
     lambda a, k, r: {"nodes": len(r.nodes), "unresolved": len(r.unresolved)}),
    ("hotspots.nodal", "arc_ends_at_vertex", "nodal", None),
    ("hotspots.nodal", "analytic_arc_verdict", "nodal", None),
    ("hotspots.continuation", "track", "continuation",
     lambda a, k, r: {"accepted": len(r.samples), "events": len(r.events)}),
    ("hotspots.continuation", "breaking_experiment", "continuation", None),
    ("hotspots.continuation", "n_membership", "continuation", None),
    ("hotspots.continuation", "lip1_no_hotspots", "continuation", None),
]

LAYERS = ("mesh", "eigensolver", "bessel", "critical", "nodal", "continuation")


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- patching ---------------------------------------------------------------
    def install(self) -> "Tracer":
        for modname, path, layer, observe in self.targets:
            mod = sys.modules[modname]
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(mod, owner_path)
                orig = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(layer, path, orig, observe))
            else:
                orig = getattr(mod, attr)
                wrapper = self._wrap(layer, path, orig, observe)
                for m in list(sys.modules.values()):
                    d = getattr(m, "__dict__", None)
                    if not isinstance(d, dict):
                        continue
                    for name, value in list(d.items()):
                        if value is orig:
                            self._set(m, name, wrapper)
            self.originals[f"{modname}.{path}"] = orig
        return self

    def _set(self, owner, name, value):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, layer, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close(span)
                span.error = type(e).__name__
                raise
            tracer._close(span)
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------------
    def _open(self, layer, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: a child outside its parent, overlapping
    siblings, or a span left open. Empty when the spans nest."""
    problems = []
    by_id = {s.id: s for s in spans}
    last_end: dict[int | None, float] = {}
    for s in spans:
        if not s.end >= s.start:
            problems.append(f"span {s.id} ({s.name}) not closed")
            continue
        if s.parent is not None:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.id} ({s.name}) outside parent {p.id} ({p.name})")
        if s.start < last_end.get(s.parent, -float("inf")):
            problems.append(f"span {s.id} ({s.name}) overlaps its previous sibling")
        last_end[s.parent] = s.end
    return problems


def check_accounting(spans: list[Span], start: float, end: float) -> list[str]:
    """Problems with the time accounting of a traced pass from ``start`` to
    ``end``: a top-level span outside the pass, or a span whose children
    take longer than it does. Empty when every span's self time and the
    time outside all spans (``bench.self_s``) are >= 0."""
    problems = [f"span {s.id} ({s.name}) outside the traced pass"
                for s in spans if s.parent is None and (s.start < start or s.end > end)]
    problems += [f"span {s.id} ({s.name}) has self time {t:.3g} s"
                 for s, t in zip(spans, self_times(spans)) if t < -1e-9]
    return problems


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _ancestors(spans: list[Span], s: Span):
    while s.parent is not None:
        s = spans[s.parent]
        yield s


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans of the named functions that are not inside another one of them."""
    return [s for s in spans if s.name in names
            and not any(a.name in names for a in _ancestors(spans, s))]


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer metrics of one traced pass lasting ``wall_s`` seconds."""
    own = self_times(spans)

    def of(*names):
        return [s for s in spans if s.name in names]

    def total(names):
        return sum((s.duration for s in _outermost(spans, set(names))), 0.0)

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    mesh = of("triangulate", "refine")
    solves = [s for s in of("solve_second") if s.error is None]
    evals = of("P2Space.eval", "P2Space.eval_grad")
    fits = of("fit_coefficients")
    finds = of("find_critical_points")
    traces = of("trace")
    verdicts = _outermost(spans, {"arc_ends_at_vertex", "analytic_arc_verdict"})
    tracks = [s for s in of("track") if s.error is None]
    attempted = sum(1 for s in of("solve_second")
                    if any(a.layer == "continuation" for a in _ancestors(spans, s)))
    accepted = sum(s.info["accepted"] for s in tracks)
    eval_points = sum(s.info["points"] for s in evals)

    m = {
        "mesh.calls": len(mesh),
        "mesh.s": total(["triangulate", "refine"]),
        "mesh.nodes_mean": mean([s.info["nodes"] for s in mesh if s.error is None]),
        "mesh.failures": sum(1 for s in mesh if s.error == "MeshingError"),
        "eigensolver.solve_calls": len(of("solve_second")),
        "eigensolver.solve_s": total(["solve_second"]),
        "eigensolver.ndof_mean": mean([s.info["ndof"] for s in solves]),
        "eigensolver.nnz_mean": mean([s.info["nnz"] for s in solves]),
        "eigensolver.residual_max": max([s.info["residual"] for s in solves], default=0.0),
        "eigensolver.recover_s": total(["P2Space.project_gradient"]),
        "eigensolver.eval_calls": len(evals),
        "eigensolver.eval_points": eval_points,
        "eigensolver.points_per_call": eval_points / len(evals) if evals else 0.0,
        "eigensolver.eval_s": total(["P2Space.eval", "P2Space.eval_grad"]),
        "bessel.fit_calls": len(fits),
        "bessel.fit_s": total(["fit_coefficients"]),
        "bessel.fit_failures": sum(1 for s in fits if s.error == "FitError"),
        "bessel.cond_max": max([s.info["cond"] for s in fits if s.error is None], default=0.0),
        "critical.find_calls": len(finds),
        "critical.find_s": total(["find_critical_points"]),
        "critical.points": sum(s.info.get("points", 0) for s in finds),
        "critical.unresolved": sum(s.info.get("unresolved", 0) for s in finds),
        "nodal.trace_calls": len(traces),
        "nodal.trace_s": total(["trace"]),
        "nodal.arc_verdict_calls": len(verdicts),
        "nodal.arc_verdict_s": sum((s.duration for s in verdicts), 0.0),
        "nodal.graph_nodes": sum(s.info.get("nodes", 0) for s in traces),
        "nodal.unresolved_ends": sum(s.info.get("unresolved", 0) for s in traces),
        "continuation.attempted": attempted,
        "continuation.accepted": accepted,
        "continuation.accept_ratio": accepted / attempted if attempted else 0.0,
        "continuation.events": sum(s.info["events"] for s in tracks),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((t for s, t in zip(spans, own) if s.layer == layer), 0.0)
    roots = [s for s in spans if s.parent is None]
    m["bench.self_s"] = wall_s - sum(s.duration for s in roots)
    m["trace.spans"] = len(spans)
    return m
