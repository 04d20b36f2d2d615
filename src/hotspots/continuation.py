"""Tracking eigenfunctions and critical points along polygon families.

``track`` solves the eigenproblem along a DeformationPath on an adaptively
refined t-grid, matches critical points between consecutive samples, and
halves the step whenever the matching breaks (total-index change inside a
tracking disk), a point moves too fast, the eigenvalue gap collapses, or
the sample fails to mesh or solve.  At the step floor a violation is
recorded as an event, never silently accepted; a failed sample is stepped
past without being appended.

Each sample after the first is meshed with ``triangulate(...,
warm_start=...)`` from the mesh of the last accepted sample: its nodes are
carried onto the new polygon (boundary nodes keep their fraction along their
side, interior nodes follow the harmonic extension of that move) and its
triangles are kept.  ``triangulate`` meshes afresh when the vertex count or
the grading changes, a side's node count no longer fits h (it must be within
one of the number of target-size segments along the side), a triangle turns
over, or the minimum angle falls below its quality bound.  Every sample records the route in ``to_dict()["mesh"]``
("warm" or "fresh"); a rejected step is retried from the same accepted mesh,
so a run stays deterministic.

On top of the tracker:
  * ``lip1_no_hotspots`` verifies that a Lip-1 polygon without orthogonal
    sides has exactly the two acute vertices as critical points, by reducing
    it to an obtuse triangle and monitoring S(t) (nonzero-index count) and
    V(t) (vertices receiving a side-direction nodal arc).
  * ``breaking_experiment`` runs the broken-triangle family Q(T, w_t,
    eps sin(pi t)) and reports either a blocking/instability window for the
    index -1 point or an interior-critical-point event.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import DEFAULTS
from .geometry import (Polygon, DeformationPath, GeometryError,
                       lip1_classify, lip1_reduction_path, orthogonal_side_pairs,
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

    def events_of(self, kind: str) -> list[PathEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_dict(self) -> dict:
        return {"path": self.path.to_dict(), "config": self.config,
                "samples": [s.to_dict() for s in self.samples],
                "events": [e.to_dict() for e in self.events]}


def _vertex_arc_count(sample_polygon: Polygon, vertex_table: dict) -> tuple[int, list[int]]:
    """V: vertices (angle != pi) where some side-direction field has a nodal
    arc ending there, decided by the interval criteria on fitted coefficients."""
    P = sample_polygon
    tangents = P.side_tangents
    arc_vertices = []
    for vid in range(P.n):
        beta = float(P.angles[vid])
        if abs(beta - math.pi) <= 1e-9:
            continue
        info = vertex_table.get(vid, {})
        exp = info.get("expansion")
        if exp is None:
            continue
        apex, alpha, _ = P.vertex_frame(vid)
        hit = False
        for e in range(P.n):
            psi = math.atan2(tangents[e][1], tangents[e][0])
            verdict, margin, near, note = analytic_arc_verdict(exp, psi_local=psi - alpha)
            if verdict:
                hit = True
                break
        if hit:
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


def _match_points(a: PathSample, b: PathSample, radius_factor: float):
    """Pair nonzero-index points of consecutive samples (same index, nearby).

    Vertices persist by id; free points match by distance.  Returns the list
    of unmatched descriptors and the max matched displacement.
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
        if best is not None and best_d < radius_factor * h_loc:
            used.add(best)
            max_move = max(max_move, best_d / h_loc)
        else:
            unmatched.append(f"{pa.locus} index {pa.index} at t={a.t:.4f} lost")
    for j, pb in enumerate(b_free):
        if j not in used:
            unmatched.append(f"{pb.locus} index {pb.index} at t={b.t:.4f} appeared")
    return unmatched, max_move


def track(path: DeformationPath, steps: int | None = None, *,
          h=None, max_halvings: int | None = None) -> PathRun:
    """Solve and analyze along the path with adaptive step halving."""
    if steps is None:
        steps = DEFAULTS.track_steps
    if max_halvings is None:
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
            unmatched, max_move = _match_points(samples[-1], cand,
                                                DEFAULTS.match_radius_factor)
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
        if trouble and (t_next - t) > dt_floor * (1 + 1e-9):
            dt = 0.5 * (t_next - t)
            continue
        for kind, detail in trouble:
            events.append(PathEvent(t, t_next, kind, detail))
        if cand is not None:
            for cp in cand.critical.nonzero_index_points():
                if cp.kind == "vertex":
                    continue
                vd = float(np.linalg.norm(cp.location - cand.polygon.vertices, axis=1).min())
                if vd < 2.5 * float(cand.sol.h_at(cp.location[None, :])[0]):
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

    def to_dict(self) -> dict:
        return {"passed": self.passed, "S_ok": self.S_ok, "V_ok": self.V_ok,
                "critical_at_acute_vertices": self.critical_at_acute_vertices,
                "acute_vertices": self.acute_vertices, "detail": self.detail,
                "run": self.run.to_dict()}


def lip1_no_hotspots(P: Polygon, *, steps: int = 8, h=None) -> Lip1HotspotsVerdict:
    """Verify: a Lip-1 polygon with no two sides orthogonal has exactly two
    critical points, the two acute vertices (one max, one min).

    Builds the reduction path to an obtuse triangle, tracks it, and checks
    S = 2 and V = 0 at every accepted sample.
    """
    if not lip1_classify(P).is_lip1:
        raise GeometryError("polygon is not Lip-1")
    if orthogonal_side_pairs(P):
        raise GeometryError("polygon has two orthogonal sides")
    acute = [i for i in range(P.n) if P.angles[i] < math.pi / 2 - 1e-9]
    if len(acute) != 2:
        raise GeometryError(f"expected exactly two acute vertices, found {len(acute)}")
    path = lip1_reduction_path(P)
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


def n_membership(T: Polygon, *, h=None) -> NMembership:
    """Numerical check of: every vertex a local extremum, exactly one
    nonvertex critical point, that point nondegenerate."""
    if T.n != 3:
        raise GeometryError("n_membership expects a triangle")
    if np.any(T.angles >= math.pi / 2 - 1e-9):
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
    saddle = None
    side = None
    if ok:
        p = nonvertex[0]
        ok = p.index == -1 and p.kind == "side"
        evidence["saddle_index"] = p.index
        if ok:
            H = estimate_hessian(sol, p.location, side=p.locus[1])
            det = float(np.linalg.det(H))
            evidence["hessian_det"] = det
            evidence["hessian_det_scaled"] = det / sol.mu ** 2
            ok = abs(det) > 1e-3 * sol.mu ** 2 * 1e-2
            saddle = p.location
            side = p.locus[1]
            # u must not vanish on the saddle's side
            s = np.linspace(0.0, 1.0, 200)
            pts = T.vertices[side][None, :] + s[:, None] * T.side_vectors[side][None, :]
            uvals = sol.eval(pts)
            umin = float(np.nanmin(np.abs(uvals)))
            evidence["min_abs_u_on_side"] = umin
            ok = ok and umin > 0.05 * sol.scale
    return NMembership(bool(ok), evidence, saddle=saddle, saddle_side=side)


# ---------------------------------------------------------------------------
# breaking / blocking experiment
# ---------------------------------------------------------------------------

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


def breaking_experiment(T: Polygon, *, eps_rel: float = 0.01, steps: int = 12,
                        h=None) -> BreakingReport:
    """Break the saddle side of an N-triangle and watch the index -1 point.

    The break point travels from one side of the saddle p to the other, 0.2
    of the side length either way (less near a side end), while the break
    amplitude follows eps * sin(pi t), so both endpoints are the original
    triangle.  Per sample the blocking hypotheses are re-verified:
    nonzero-index points only at vertices or on the sides adjacent to the
    obtuse vertex, acute vertices stay extrema, and the sides away from the
    break stay critical-point-free (if not, eps is halved and the family is
    rerun, at most three times).  The report brackets the window where the -1 point changes sides
    and lists every index event inside it, or reports the
    interior-critical-point branch if one appears.
    """
    nm = n_membership(T, h=h)
    if not nm.in_N:
        raise GeometryError(f"triangle fails the N-membership checks: {nm.evidence}")
    e = nm.saddle_side
    p = nm.saddle
    L = float(T.side_lengths[e])
    tvec = T.side_tangents[e]
    a = T.vertices[e]
    s_p = float(np.dot(p - a, tvec)) / L
    d = max(0.2, DEFAULTS.w_margin)
    s0, s1 = s_p - d, s_p + d
    if s0 < 0.05 or s1 > 0.95:
        d = min(s_p - 0.05, 0.95 - s_p)
        if d < DEFAULTS.w_margin:
            raise GeometryError("saddle too close to a side endpoint for a break path")
        s0, s1 = s_p - d, s_p + d
    w0 = a + s0 * L * tvec
    w1 = a + s1 * L * tvec
    eps = eps_rel * L
    if h is None:
        h = lambda P: P.diameter / 24

    notes = []
    for attempt in range(4):
        family = breaking_family(T, e, (w0, w1), eps)
        run = track(family, steps=steps, h=h)
        w_vid = (e + 1) % 4           # vertex index of the break point in Q
        left_side, right_side = e, (e + 1) % 4
        conditions = []
        shrink = False
        interior_event = False
        for s in run.samples:
            pts = s.critical.points
            nz = s.critical.nonzero_index_points()
            acute_ids = [v for v in range(4) if v != w_vid]
            cond3 = all(any(p_.kind == "vertex" and p_.locus[1] == v and p_.index == 1
                            for p_ in pts) for v in acute_ids)
            bad_sides = [p_ for p_ in nz if p_.kind == "side"
                         and p_.locus[1] not in (left_side, right_side)]
            cond2 = len(bad_sides) == 0 and not any(p_.kind == "interior" for p_ in nz)
            interior_pts = [p_ for p_ in pts if p_.kind == "interior"]
            cond1 = len(interior_pts) == 0
            if interior_pts:
                interior_event = True
            if bad_sides:
                shrink = True
            minus = [p_ for p_ in pts if p_.kind == "side" and p_.index == -1]
            side_of = None
            p_near_w = None
            if len(minus) == 1:
                side_of = "left" if minus[0].locus[1] == left_side else "right"
            elif not minus:
                # the saddle may sit within mesh resolution of the obtuse
                # vertex: record the nearest raw tangential-derivative root
                w_pt = s.polygon.vertices[w_vid]
                best = np.inf
                for sd in (left_side, right_side):
                    for r in s.critical.side_roots[sd] or []:
                        q = s.polygon.vertices[sd] + r * s.polygon.side_vectors[sd]
                        best = min(best, float(np.linalg.norm(q - w_pt)))
                if np.isfinite(best):
                    p_near_w = best
            zero_idx = [p_ for p_ in pts if p_.kind == "side" and p_.index == 0]
            cusp_info = []
            for q in zero_idx:
                try:
                    cd = cusp_diagnostic(s.sol, q)
                    cusp_info.append({"location": [float(q.location[0]), float(q.location[1])],
                                      "tangent_cusp": cd.tangent_cusp, "k": cd.k})
                except (ValueError, np.linalg.LinAlgError) as ex:   # lstsq on NaN samples
                    cusp_info.append({"error": str(ex)})
            conditions.append({"t": s.t, "no_interior": cond1,
                               "nonzero_on_break_sides": cond2,
                               "acute_extrema": cond3,
                               "n_minus_one": len(minus),
                               "minus_one_side": side_of,
                               "saddle_to_vertex_dist": p_near_w,
                               "index_zero_events": cusp_info,
                               "w_leading_ratio": s.leading_ratios.get(w_vid)})
        if shrink and attempt < 3:
            eps *= 0.5
            notes.append(f"critical point on a non-adjacent side: eps shrunk to {eps:.3e}")
            continue
        break

    # endpoint conditions (4) and (5): at t=0 the -1 point lies on the side
    # away from w0 (the one containing p); at t=1 it has crossed over
    first, last = conditions[0], conditions[-1]
    notes.append(f"t=0: -1 point on {first['minus_one_side']} side; "
                 f"t=1: on {last['minus_one_side']} side")

    # blocking window: last sample with the starting membership to first with
    # the ending membership, plus any index events inside
    sides_seq = [(c["t"], c["minus_one_side"]) for c in conditions]
    start_side = first["minus_one_side"]
    end_side = last["minus_one_side"]
    window = None
    if start_side is not None and end_side is not None and start_side != end_side:
        t_lo = max(t for t, sd in sides_seq if sd == start_side)
        t_hi = min(t for t, sd in sides_seq if sd == end_side and t > t_lo)
        window = (t_lo, t_hi)
    else:
        ev = run.events_of("index-sum change")
        if ev:
            window = (min(e_.t_lo for e_ in ev), max(e_.t_hi for e_ in ev))

    branch = "interior-critical-point" if interior_event else "blocking-instability"
    return BreakingReport(branch=branch, window=window, eps=eps, membership=nm,
                          run=run, conditions=conditions, events=run.events,
                          w_vertex=w_vid, notes=notes)
