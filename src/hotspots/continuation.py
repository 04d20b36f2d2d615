"""Tracking eigenfunctions and critical points along polygon families.

``track`` solves the eigenproblem along a DeformationPath on an adaptively
refined t-grid, matches critical points between consecutive samples, and
halves the step whenever the matching breaks (total-index change inside a
tracking disk), a point moves too fast, the eigenvalue gap falls below
``gap_floor`` (unless it already was at the last accepted sample: halving
cannot mend a pair that stays double), or the sample fails to mesh or
solve.  At the step floor a violation is recorded as an event, never
silently accepted; a failed sample is stepped past without being appended.

Each sample after the first is meshed with ``triangulate(...,
warm_start=...)`` from the mesh of the last accepted sample: its nodes are
carried onto the new polygon (boundary nodes keep their fraction along their
side, interior nodes follow the harmonic extension of that move) and its
triangles are kept.  When a side's node count is one or two off what h
asks for (that side then takes a fresh mesh's stations), or a carried
triangle fails the quality bound, the carried nodes are smoothed and
triangulated afresh once.  ``triangulate`` meshes afresh when the vertex
count changes, a side is off by two segments or more, or the second chance
fails too; ``Mesh.fallback`` says which.  A moved reflex angle, and with
it the grading, does not refuse a carry.  Every sample records the route in
``to_dict()["mesh"]`` ("warm" or "fresh"); a rejected step is retried from
the same accepted mesh, so a run stays deterministic.

On top of the tracker:
  * ``lip1_no_hotspots`` verifies that a Lip-1 polygon without orthogonal
    sides has exactly the two acute vertices as critical points, by reducing
    it to an obtuse triangle and monitoring S(t) (nonzero-index count) and
    V(t) (vertices receiving a side-direction nodal arc).
  * ``n_membership`` checks a triangle for N; min |u| on the saddle's side
    is exact, from the side's nodes and tangential-derivative roots.
  * ``breaking_experiment`` runs the broken-triangle family Q(T, w_t,
    eps sin(pi t)); two pure rules judge it: ``_sample_conditions`` the
    blocking hypotheses per sample, ``_breaking_verdict`` the branch
    (blocking/instability or interior critical point) and the window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import DEFAULTS
from .geometry import (Polygon, DeformationPath, GeometryError, lip1_reduction_path,
                       breaking_family)
from .mesh import triangulate, MeshingError
from .eigensolver import solve_second, EigenSolution, SolverError
from .critical import find_critical_points, estimate_hessian, CriticalSet, cusp_diagnostic
from .nodal import analytic_arc_verdict


@dataclass
class PathEvent:
    t_lo: float
    t_hi: float
    kind: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"t_lo": self.t_lo, "t_hi": self.t_hi, "kind": self.kind,
                "detail": self.detail}


@dataclass
class PathSample:
    t: float
    polygon: Polygon
    mu: float
    gap: float
    S: int
    V: int
    critical: CriticalSet
    leading_ratios: dict
    arc_vertices: list[int]
    sol: EigenSolution = dc_field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {"t": self.t, "h": self.sol.mesh.h, "mesh": self.sol.mesh.origin,
                "mu": self.mu, "gap": self.gap,
                "S": self.S, "V": self.V,
                "leading_ratios": {str(k): v for k, v in self.leading_ratios.items()},
                "arc_vertices": list(self.arc_vertices),
                "critical": self.critical.to_dict()}


@dataclass
class PathRun:
    path: DeformationPath
    samples: list[PathSample]
    events: list[PathEvent]
    config: dict

    def S_values(self) -> list[int]:
        return [s.S for s in self.samples]

    def V_values(self) -> list[int]:
        return [s.V for s in self.samples]

    def to_dict(self) -> dict:
        return {"path": self.path.to_dict(), "config": self.config,
                "samples": [s.to_dict() for s in self.samples],
                "events": [e.to_dict() for e in self.events]}


def _vertex_arc_count(P: Polygon, vertex_table: dict) -> tuple[int, list[int]]:
    """V: vertices (angle != pi) where some side-direction field has a nodal
    arc ending there, decided by the interval criteria on fitted coefficients."""
    arc_vertices = []
    for vid in range(P.n):
        exp = vertex_table.get(vid, {}).get("expansion")
        if exp is None or abs(P.angles[vid] - math.pi) <= DEFAULTS.angle_tol:
            continue
        _, alpha, _ = P.vertex_frame(vid)
        if any(analytic_arc_verdict(exp, psi_local=math.atan2(t[1], t[0]) - alpha)[0]
               for t in P.side_tangents):
            arc_vertices.append(vid)
    return len(arc_vertices), arc_vertices


def _solve_sample(path: DeformationPath, t: float, h, prev: PathSample | None) -> PathSample:
    P = path.polygon_at(t)
    h_val = h(P) if callable(h) else h
    mesh = triangulate(P, h_val, warm_start=None if prev is None else prev.sol.mesh)
    sol = solve_second(mesh)
    if prev is not None:
        if sol.neighbor_coef is not None and sol.gap < DEFAULTS.gap_floor:
            sol = sol.select_from_pair(prev.sol.eval)
        sol = sol.align_sign_with(prev.sol)
    cset = find_critical_points(sol)
    leading = {vid: info.get("leading_ratio")
               for vid, info in cset.vertex_table.items()}
    V, arc_vs = _vertex_arc_count(P, cset.vertex_table)
    return PathSample(t=t, polygon=P, mu=sol.mu, gap=sol.gap, S=cset.S, V=V,
                      critical=cset, leading_ratios=leading, arc_vertices=arc_vs,
                      sol=sol)


def _match_points(a: PathSample, b: PathSample):
    """Pair nonzero-index points of consecutive samples (same index, nearby).

    Vertices persist by id; free points match by distance, within
    ``match_radius_factor`` times the local mesh size.  Returns the list of
    unmatched descriptors and the max matched displacement (in local h).
    """
    unmatched = []
    max_move = 0.0
    a_pts = a.critical.nonzero_index_points()
    b_pts = b.critical.nonzero_index_points()
    a_vert = {p.locus[1]: p for p in a_pts if p.kind == "vertex"}
    b_vert = {p.locus[1]: p for p in b_pts if p.kind == "vertex"}
    for vid in set(a_vert) | set(b_vert):
        pa, pb = a_vert.get(vid), b_vert.get(vid)
        if pa is None or pb is None or pa.index != pb.index:
            unmatched.append(f"vertex {vid}: {None if pa is None else pa.index} -> "
                             f"{None if pb is None else pb.index}")
    a_free = [p for p in a_pts if p.kind != "vertex"]
    b_free = [p for p in b_pts if p.kind != "vertex"]
    used = set()
    for pa in a_free:
        h_loc = float(b.sol.h_at(pa.location[None, :])[0])
        best, best_d = None, np.inf
        for j, pb in enumerate(b_free):
            if j in used or pb.index != pa.index:
                continue
            d = float(np.linalg.norm(pa.location - pb.location))
            if d < best_d:
                best, best_d = j, d
        if best is not None and best_d < DEFAULTS.match_radius_factor * h_loc:
            used.add(best)
            max_move = max(max_move, best_d / h_loc)
        else:
            unmatched.append(f"{pa.locus} index {pa.index} at t={a.t:.4f} lost")
    for j, pb in enumerate(b_free):
        if j not in used:
            unmatched.append(f"{pb.locus} index {pb.index} at t={b.t:.4f} appeared")
    return unmatched, max_move


_VERTEX_APPROACH = 2.5   # a free nonzero-index point this near a vertex (in local h)
                         # is a "vertex-approach" event of ``track``


def track(path: DeformationPath, steps: int, *, h=None) -> PathRun:
    """Solve and analyze along the path in ``steps`` steps, each halved at
    most ``track_max_halvings`` times."""
    max_halvings = DEFAULTS.track_max_halvings
    if h is None:
        h = lambda P: P.diameter / 24
    dt0 = 1.0 / steps
    dt_floor = dt0 / (2 ** max_halvings)
    events: list[PathEvent] = []

    samples = [_solve_sample(path, 0.0, h, None)]
    t = 0.0
    dt = dt0
    while t < 1.0 - 1e-12:
        t_next = min(t + dt, 1.0)
        trouble = []    # (kind, detail) of each violation
        try:
            cand = _solve_sample(path, t_next, h, samples[-1])
        except (MeshingError, SolverError) as e:
            cand = None
            trouble.append(("sample failed", f"sample failed: {type(e).__name__}: {e}"))
        else:
            unmatched, max_move = _match_points(samples[-1], cand)
            unresolved = len(cand.critical.unresolved_points())
            if unmatched:
                trouble.append(("index-sum change",
                                "index-sum change: " + "; ".join(unmatched)))
            if max_move > DEFAULTS.probe_radius_factor:
                trouble.append(("critical point moved",
                                f"critical point moved {max_move:.1f} h"))
            if cand.gap < DEFAULTS.gap_floor:
                trouble.append(("eigenvalue gap below floor",
                                f"eigenvalue gap {cand.gap:.2e} below floor"))
            if unresolved:
                trouble.append(("unresolved critical points",
                                f"{unresolved} unresolved critical points"))
        # a gap already below the floor at the last accepted sample does not
        # mend by halving: it is recorded at this step, not halved on
        mendable = [k for k, _ in trouble if not (k == "eigenvalue gap below floor"
                                                  and samples[-1].gap < DEFAULTS.gap_floor)]
        if mendable and (t_next - t) > dt_floor * (1 + 1e-9):
            dt = 0.5 * (t_next - t)
            continue
        for kind, detail in trouble:
            events.append(PathEvent(t, t_next, kind, detail))
        if cand is not None:
            for cp in cand.critical.nonzero_index_points():
                if cp.kind == "vertex":
                    continue
                vd = float(np.linalg.norm(cp.location - cand.polygon.vertices, axis=1).min())
                if vd < _VERTEX_APPROACH * float(cand.sol.h_at(cp.location[None, :])[0]):
                    events.append(PathEvent(t_next, t_next, "vertex-approach",
                                            f"{cp.locus} index {cp.index} within "
                                            f"{vd:.3g} of a vertex"))
            samples.append(cand)
        t = t_next
        dt = min(dt0, 2 * dt)
    return PathRun(path=path, samples=samples, events=events,
                   config={"steps": steps, "max_halvings": max_halvings,
                           "threshold": DEFAULTS.vanish_threshold})


# ---------------------------------------------------------------------------
# Lip-1 verification
# ---------------------------------------------------------------------------

@dataclass
class Lip1HotspotsVerdict:
    polygon: Polygon
    passed: bool
    S_ok: bool
    V_ok: bool
    critical_at_acute_vertices: bool
    acute_vertices: list[int]
    run: PathRun
    detail: str = ""


def lip1_no_hotspots(P: Polygon, *, steps: int = 8, h=None) -> Lip1HotspotsVerdict:
    """Verify: a Lip-1 polygon with no two sides orthogonal has exactly two
    critical points, the two acute vertices (one max, one min).

    Builds the reduction path to an obtuse triangle (which checks both
    preconditions), tracks it, and checks S = 2 and V = 0 at every accepted sample.
    """
    path = lip1_reduction_path(P)
    acute = [i for i in range(P.n) if P.angles[i] < math.pi / 2 - DEFAULTS.angle_tol]
    if len(acute) != 2:
        raise GeometryError(f"expected exactly two acute vertices, found {len(acute)}")
    run = track(path, steps=steps, h=h)
    S_ok = all(s.S == 2 for s in run.samples)
    V_ok = all(s.V == 0 for s in run.samples)
    first = run.samples[0]
    crit_vs = sorted(p.locus[1] for p in first.critical.nonzero_index_points()
                     if p.kind == "vertex")
    at_acute = (crit_vs == sorted(acute)
                and len(first.critical.nonzero_index_points()) == 2
                and all(p.index == 1 for p in first.critical.nonzero_index_points()))
    passed = S_ok and V_ok and at_acute and not run.events
    detail = "" if passed else (f"S values {run.S_values()}, V values {run.V_values()}, "
                                f"critical vertices {crit_vs}, events {len(run.events)}")
    return Lip1HotspotsVerdict(polygon=P, passed=passed, S_ok=S_ok, V_ok=V_ok,
                               critical_at_acute_vertices=at_acute,
                               acute_vertices=acute, run=run, detail=detail)


# ---------------------------------------------------------------------------
# N membership (acute triangles with one nondegenerate side saddle)
# ---------------------------------------------------------------------------

_DET_FLOOR = 1e-5     # n_membership: the saddle is nondegenerate if |det H| > this * mu^2
_SIDE_FLOOR = 0.05    # and u is off zero on its side if min |u| there > this * scale


@dataclass
class NMembership:
    in_N: bool
    evidence: dict
    saddle: np.ndarray | None = None
    saddle_side: int | None = None

    def to_dict(self) -> dict:
        ev = {k: v for k, v in self.evidence.items()}
        return {"in_N": self.in_N, "evidence": ev,
                "saddle_side": self.saddle_side}


def _side_min_abs(sol, side: int, roots) -> float:
    """min |u_h| along polygon side ``side``, exactly.

    u_h is quadratic on each boundary edge, so its extremes along the side
    lie at the side's nodes and at ``roots``, the raw tangential-derivative
    roots as fractions along the side (``CriticalSet.side_roots``).  The
    minimum is 0 when those values change sign.
    """
    P = sol.polygon
    be = sol.mesh.boundary_edges
    u = np.concatenate([sol.coef[be[be[:, 2] == side, :2].ravel()],
                        sol.eval(P.vertices[side] + np.outer(roots, P.side_vectors[side]))])
    return 0.0 if u.min() < 0 < u.max() else float(np.abs(u).min())


def n_membership(T: Polygon, *, h=None) -> NMembership:
    """Numerical check of: every vertex a local extremum, exactly one
    nonvertex critical point, that point nondegenerate, and u nonzero on
    the saddle's side."""
    if T.n != 3:
        raise GeometryError("n_membership expects a triangle")
    if np.any(T.angles >= math.pi / 2 - DEFAULTS.angle_tol):
        raise GeometryError("n_membership expects an acute triangle")
    h_val = (h(T) if callable(h) else h) if h is not None else T.diameter / 28
    mesh = triangulate(T, h_val)
    sol = solve_second(mesh)
    evidence = {"mu": sol.mu, "gap": sol.gap}
    if sol.multiplicity_flag:
        evidence["note"] = "second eigenvalue nearly multiple (equilateral-like)"
        return NMembership(False, evidence)
    cset = find_critical_points(sol)
    vert_ext = [p for p in cset.points if p.kind == "vertex" and p.index == 1]
    nonvertex = [p for p in cset.points if p.kind != "vertex"]
    evidence["n_vertex_extrema"] = len(vert_ext)
    evidence["n_nonvertex"] = len(nonvertex)
    ok = len(vert_ext) == 3 and len(nonvertex) == 1
    saddle = side = None
    if ok:
        p = nonvertex[0]
        ok = p.index == -1 and p.kind == "side"
        evidence["saddle_index"] = p.index
        if ok:
            H = estimate_hessian(sol, p.location, side=p.locus[1])
            det = float(np.linalg.det(H))
            evidence["hessian_det"] = det
            evidence["hessian_det_scaled"] = det / sol.mu ** 2
            ok = abs(det) > _DET_FLOOR * sol.mu ** 2
            saddle = p.location
            side = p.locus[1]
            umin = _side_min_abs(sol, side, cset.side_roots[side])
            evidence["min_abs_u_on_side"] = umin
            ok = ok and umin > _SIDE_FLOOR * sol.scale
    return NMembership(bool(ok), evidence, saddle=saddle, saddle_side=side)


# ---------------------------------------------------------------------------
# breaking / blocking experiment
# ---------------------------------------------------------------------------

_BREAK_REACH = 0.2         # the break point travels this fraction of the side each way
_SIDE_END_MARGIN = 0.05    # of the saddle, keeping this fraction from either side end


@dataclass
class BreakingReport:
    branch: str                       # 'blocking-instability' | 'interior-critical-point'
    window: tuple[float, float] | None
    eps: float
    membership: NMembership
    run: PathRun
    conditions: list[dict]            # per-sample hypothesis checks
    events: list[PathEvent]
    w_vertex: int = 1                 # index of the obtuse break vertex in Q_t
    notes: list[str] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {"branch": self.branch, "window": self.window, "eps": self.eps,
                "w_vertex": self.w_vertex,
                "membership": self.membership.to_dict(),
                "conditions": self.conditions,
                "events": [e.to_dict() for e in self.events],
                "notes": self.notes, "run": self.run.to_dict()}


def _sample_conditions(s: PathSample, w_vid: int) -> tuple[dict, bool]:
    """The blocking hypotheses at one sample of Q_t, whose break point is
    vertex ``w_vid`` between the break sides ``w_vid - 1`` (left) and
    ``w_vid`` (right).  Returns the sample's record and ``off_break``:
    whether a nonzero-index point lies on a side away from the break (a lone
    -1 point there gets ``minus_one_side`` None).

    With no index -1 side point the saddle may sit within mesh resolution of
    the break point: ``saddle_to_vertex_dist`` is then its distance to the
    nearest raw tangential-derivative root on a break side.
    """
    left, right = w_vid - 1, w_vid
    P, pts = s.polygon, s.critical.points
    nz = s.critical.nonzero_index_points()
    off_break = any(p.kind == "side" and p.locus[1] not in (left, right) for p in nz)
    minus = [p for p in pts if p.kind == "side" and p.index == -1]
    side_of = near = None
    if len(minus) == 1:
        side_of = {left: "left", right: "right"}.get(minus[0].locus[1])
    elif not minus:
        w = P.vertices[w_vid]
        near = min((float(np.linalg.norm(P.vertices[sd] + r * P.side_vectors[sd] - w))
                    for sd in (left, right) for r in s.critical.side_roots[sd] or []),
                   default=None)
    cusps = []
    for q in pts:
        if q.kind != "side" or q.index != 0:
            continue
        try:
            cd = cusp_diagnostic(s.sol, q)
            cusps.append({"location": [float(q.location[0]), float(q.location[1])],
                          "tangent_cusp": cd.tangent_cusp, "k": cd.k})
        except (ValueError, np.linalg.LinAlgError) as ex:   # lstsq on NaN samples
            cusps.append({"error": str(ex)})
    record = {"t": s.t,
              "no_interior": not any(p.kind == "interior" for p in pts),
              "nonzero_on_break_sides": (not off_break
                                         and not any(p.kind == "interior" for p in nz)),
              "acute_extrema": all(any(p.kind == "vertex" and p.locus[1] == v and p.index == 1
                                       for p in pts) for v in range(P.n) if v != w_vid),
              "n_minus_one": len(minus),
              "minus_one_side": side_of,
              "saddle_to_vertex_dist": near,
              "index_zero_events": cusps,
              "w_leading_ratio": s.leading_ratios.get(w_vid)}
    return record, off_break


def _breaking_verdict(conditions: list[dict],
                      events: list[PathEvent]) -> tuple[str, tuple[float, float] | None]:
    """(branch, window) from the per-sample records and the path's events.

    The branch is 'interior-critical-point' if a sample has an interior
    critical point.  When the -1 point ends on another side than it starts,
    the window runs from the last sample on the start side to the first
    later one on the end side; else it spans the 'index-sum change' events
    (None if there are none).
    """
    branch = ("blocking-instability" if all(c["no_interior"] for c in conditions)
              else "interior-critical-point")
    start, end = conditions[0]["minus_one_side"], conditions[-1]["minus_one_side"]
    if start is not None and end is not None and start != end:
        t_lo = max(c["t"] for c in conditions if c["minus_one_side"] == start)
        t_hi = min(c["t"] for c in conditions if c["minus_one_side"] == end and c["t"] > t_lo)
        return branch, (t_lo, t_hi)
    ev = [e for e in events if e.kind == "index-sum change"]
    return branch, (min(e.t_lo for e in ev), max(e.t_hi for e in ev)) if ev else None


def breaking_experiment(T: Polygon, *, eps_rel: float = 0.01, steps: int = 12,
                        h=None) -> BreakingReport:
    """Break the saddle side of an N-triangle and watch the index -1 point.

    The break point travels from one side of the saddle p to the other,
    ``_BREAK_REACH`` of the side length either way (less near a side end),
    while the break amplitude follows eps * sin(pi t), so both endpoints are
    the original triangle.  Each sample is judged by ``_sample_conditions``;
    while a nonzero-index point lies on a side away from the break, eps is
    halved and the family rerun, at most three times.  ``_breaking_verdict``
    then gives the branch and the window where the -1 point changes sides.
    """
    nm = n_membership(T, h=h)
    if not nm.in_N:
        raise GeometryError(f"triangle fails the N-membership checks: {nm.evidence}")
    e = nm.saddle_side
    L = float(T.side_lengths[e])
    tvec = T.side_tangents[e]
    a = T.vertices[e]
    s_p = float(np.dot(nm.saddle - a, tvec)) / L
    d = _BREAK_REACH
    lo, hi = _SIDE_END_MARGIN, 1 - _SIDE_END_MARGIN
    s0, s1 = s_p - d, s_p + d
    if s0 < lo or s1 > hi:
        d = min(s_p - lo, hi - s_p)
        if d < DEFAULTS.w_margin:
            raise GeometryError("saddle too close to a side endpoint for a break path")
        s0, s1 = s_p - d, s_p + d
    w0 = a + s0 * L * tvec
    w1 = a + s1 * L * tvec
    eps = eps_rel * L

    w_vid = e + 1                     # Q inserts the break point after vertex e
    notes = []
    for attempt in range(4):
        run = track(breaking_family(T, e, (w0, w1), eps), steps=steps, h=h)
        records = [_sample_conditions(s, w_vid) for s in run.samples]
        if attempt == 3 or not any(off for _, off in records):
            break
        eps *= 0.5
        notes.append(f"critical point on a non-adjacent side: eps shrunk to {eps:.3e}")
    conditions = [c for c, _ in records]

    # endpoint conditions (4) and (5): at t=0 the -1 point lies on the side
    # away from w0 (the one containing p); at t=1 it has crossed over
    notes.append(f"t=0: -1 point on {conditions[0]['minus_one_side']} side; "
                 f"t=1: on {conditions[-1]['minus_one_side']} side")
    branch, window = _breaking_verdict(conditions, run.events)
    return BreakingReport(branch=branch, window=window, eps=eps, membership=nm,
                          run=run, conditions=conditions, events=run.events,
                          w_vertex=w_vid, notes=notes)
