"""Critical points of the eigenfunction and their Poincare-Hopf indices.

Candidates are located exactly on the P2 elements.  Inside an element the
gradient of u_h is affine, so its zero is one 2x2 solve per element, kept
when it lies in that element.  On a boundary edge u_h is the quadratic
through the edge's three dofs, so the tangential derivative is linear and
its root is closed form; a sign change of the derivative across a boundary
node is a root at that node.

``find_critical_points`` reads u_h in one batched query: once the side and
interior points are found, every probe's centre and arcs and every vertex's
fit grid go into one ``eval``, and the side and interior points' gradients
into one ``eval_grad``.  The locator places each point by itself, so each
value is the one a query of its own would give; ``index_of`` and
``classify_vertex`` evaluate for themselves.

A point p gets index 1 - n/2 (interior) or 1 - n (boundary), where n counts
the level-set arcs of u through u(p) that emanate from p.  The count is
measured by sign changes of u - u(p) on probe circles at two radii, which
must agree for the index to be accepted.  Vertices are always examined and
classified independently through their fitted vertex expansions: with k the
smallest positive mode index whose coefficient does not vanish,

    u(v) = 0 or beta > k pi/2   ->  ind = 1 - k
    u(v) != 0 and beta < k pi/2 ->  ind = 1
    beta = k pi/2               ->  decided by |a|, a = c0 g0'(0) / (c_k g_2(0)),

and the probe count cross-checks the expansion route wherever both resolve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import DEFAULTS
from .geometry import arc_points
from . import bessel as _bessel


@dataclass
class CriticalPoint:
    location: np.ndarray
    locus: tuple | str                 # 'interior' | ('side', i) | ('vertex', i)
    index: int | None                  # None = unresolved
    is_extremum: bool
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.locus if isinstance(self.locus, str) else self.locus[0]

    def to_dict(self) -> dict:
        return {"location": [float(self.location[0]), float(self.location[1])],
                "locus": list(self.locus) if isinstance(self.locus, tuple) else self.locus,
                "index": self.index, "is_extremum": self.is_extremum,
                "diagnostics": {k: v for k, v in self.diagnostics.items()
                                if isinstance(v, (int, float, str, bool, list))}}


@dataclass
class DegenerateLocus:
    kind: str                          # 'side' | 'line'
    description: str
    points: np.ndarray


@dataclass
class CriticalSet:
    points: list[CriticalPoint]
    vertex_table: dict                 # vid -> {'expansion', 'index', 'note', ...}
    side_roots: list                   # per side: raw tangential-derivative roots
                                       # (fractions along it), None on a degenerate side
    degenerate_loci: list[DegenerateLocus] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def degenerate(self) -> bool:
        return len(self.degenerate_loci) > 0

    def nonzero_index_points(self) -> list[CriticalPoint]:
        return [p for p in self.points if p.index not in (None, 0)]

    def unresolved_points(self) -> list[CriticalPoint]:
        return [p for p in self.points if p.index is None]

    def by_kind(self, kind: str) -> list[CriticalPoint]:
        return [p for p in self.points if p.kind == kind]

    @property
    def S(self) -> int:
        """Number of nonzero-index critical points."""
        return len(self.nonzero_index_points())

    def to_dict(self) -> dict:
        return {"points": [p.to_dict() for p in self.points],
                "degenerate": self.degenerate,
                "notes": list(self.notes),
                "vertex_table": {str(k): {kk: vv for kk, vv in v.items() if kk != "expansion"}
                                 for k, v in self.vertex_table.items()}}


# ---------------------------------------------------------------------------
# probe-circle arc counting
# ---------------------------------------------------------------------------

def _count_sign_changes(vals: np.ndarray, *, cyclic: bool, band: float) -> int | None:
    ok = np.isfinite(vals)
    v = vals[ok]
    if len(v) < 8:
        return None
    keep = np.abs(v) > band
    s = np.sign(v[keep])
    if len(s) == 0:
        return None
    # collapse runs
    runs = s[np.concatenate([[True], s[1:] != s[:-1]])]
    changes = len(runs) - 1
    if cyclic and len(runs) >= 1 and runs[0] != runs[-1]:
        changes += 1
    return int(changes)


@dataclass
class IndexResult:
    index: int | None
    n_arcs: int | None
    counts: list
    radii: list
    note: str = ""


def _side_clearance(P, p, i: int) -> tuple[float, float]:
    """Distances from a point p on side i to the nearest other side and to
    the nearest vertex."""
    return (min(P.distance_to_side(p, j) for j in range(P.n) if j != i),
            min(np.linalg.norm(p - P.vertices[k]) for k in range(P.n)))


def _probe_radii(sol, p, locus, absorbed=(), nearest=math.inf) -> list[float]:
    """The two probe radii at p, larger first; no other code sizes a probe.

    By default r = ``probe_radius_factor`` h and r/2 (h the local mesh
    size), r at most 0.7 of the boundary distance at an interior point, and
    0.7 of the distance to another side and 0.45 of the nearest vertex
    distance at a side point.  At a vertex, roots absorbed into it (largest
    distance d) give max(3.3 h, 2.8 d) and max(2.5 h, 2.2 d), clearing the
    level arc's return near 2 d; else a detected point ``nearest`` < 3.5 h
    away gives 0.7 and 0.35 of that distance.  Each vertex radius is capped
    at half the vertex's ``Polygon.vertex_clearance``.
    """
    P = sol.polygon
    h = float(sol.h_at(p[None, :])[0])
    r1 = DEFAULTS.probe_radius_factor * h
    if locus == "interior":
        r1 = min(r1, 0.7 * float(P.boundary_distance(p[None, :])[0]))
    elif locus[0] == "side":
        others, vdist = _side_clearance(P, p, locus[1])
        r1 = min(r1, 0.7 * others, 0.45 * vdist)
    else:
        r_cap = 0.5 * float(P.vertex_clearance[locus[1]])
        if absorbed:
            d = max(absorbed)
            return [min(max(3.3 * h, 2.8 * d), r_cap), min(max(2.5 * h, 2.2 * d), r_cap)]
        if nearest < 3.5 * h:
            return [min(0.7 * nearest, r_cap), min(0.35 * nearest, r_cap)]
        r1 = min(r1, r_cap)
    return [r1, 0.5 * r1]


def _arc_index(counts, interior: bool):
    """(index, n, note) from the arc counts on the two probe radii, which
    must agree: index 1 - n at a side or vertex point, 1 - n/2 at an
    interior point, where an odd n has no index."""
    if any(c is None for c in counts):
        return None, None, "probe failed"
    if counts[0] != counts[1]:
        return None, None, "radius disagreement"
    n = counts[0]
    if not interior:
        return 1 - n, n, ""
    if n % 2 == 1:
        return None, n, "odd interior arc count"
    return 1 - n // 2, n, ""


def _probe_points(P, p, locus, radii) -> np.ndarray:
    """p, then the probe arcs at ``radii`` in turn: a full circle at an
    interior point, a semicircle into the domain at a side point, the wedge
    at a vertex."""
    m = DEFAULTS.probe_samples
    if locus == "interior":
        phis = np.linspace(0.0, 2 * math.pi, m + 1)[:-1]
    elif locus[0] == "side":
        t = P.side_tangents[locus[1]]
        phi_t = math.atan2(t[1], t[0])
        phis = np.linspace(phi_t, phi_t + math.pi, m // 2)
    else:
        _, alpha, beta = P.vertex_frame(locus[1])
        phis = np.linspace(alpha, alpha + beta, m // 2)
    return np.vstack([p, arc_points(p, radii, phis)])


def _probe_count(vals, locus, radii) -> IndexResult:
    """Arc count of u - u(p) from u at ``_probe_points``: index 1 - n/2 at
    an interior point (the arcs are closed circles), 1 - n at a side point
    or a vertex."""
    interior = locus == "interior"
    counts = []
    for arc in (vals[1:] - vals[0]).reshape(len(radii), -1):
        band = DEFAULTS.sign_band_frac * np.nanmax(np.abs(arc)) if np.any(np.isfinite(arc)) else 0
        counts.append(_count_sign_changes(arc, cyclic=interior, band=band))
    idx, n, note = _arc_index(counts, interior)
    return IndexResult(idx, n, counts, list(radii), note)


def index_of(sol, p, locus="interior") -> IndexResult:
    """Poincare-Hopf index of an isolated critical point by probe-circle
    counts; u(p) and both arcs take one ``eval``."""
    p = np.asarray(p, dtype=float)
    radii = _probe_radii(sol, p, locus)
    return _probe_count(sol.eval(_probe_points(sol.polygon, p, locus, radii)), locus, radii)


# ---------------------------------------------------------------------------
# vertex classification through the expansion
# ---------------------------------------------------------------------------

def _join(note: str, more: str) -> str:
    return f"{note}; {more}" if note and more else note or more


# At beta = k pi/2 the vertex index is 1 above this |a| band and 1 - k
# below it; inside it the truncated expansion cannot decide.
_A_BAND = (0.95, 1.05)


def _expansion_index(expansion):
    """(index, k, a, note) of a vertex from its fitted expansion, by the
    rules of the module docstring; a is None unless beta = k pi/2."""
    sig0 = expansion.magnitude(0) > DEFAULTS.vanish_threshold
    k = expansion.smallest_nonvanishing_k()
    if k is None:
        if sig0:
            return 1, None, None, "all c_k, k >= 1, vanish at threshold"
        return None, None, None, "all coefficients vanish at threshold"
    if not sig0:
        return 1 - k, k, None, "u(v) = 0"
    if abs(expansion.beta - k * math.pi / 2) <= DEFAULTS.angle_tol:
        # decided by |a| (k nu = 2 expansion competition)
        a = (expansion.coeffs[0] * _bessel.g0_prime_at_zero(expansion.mu)
             / (expansion.coeffs[k] * _bessel.g_at_zero(k * expansion.nu, expansion.mu)))
        if abs(a) > _A_BAND[1]:
            return 1, k, a, ""
        if abs(a) < _A_BAND[0]:
            return 1 - k, k, a, ""
        return None, k, a, f"|a| = {abs(a):.4f} near 1: undecidable at truncation order"
    return (1 if expansion.beta < k * math.pi / 2 else 1 - k), k, None, ""


def _vertex_verdict(idx, probe: IndexResult, composite: bool):
    """(index, note) of a vertex from its expansion index ``idx`` and its
    probe.  A resolved probe count wins: it measures the total index of
    everything inside the probe disk, which is the quantity that is stable
    at mesh resolution (unresolvably close side structure gets absorbed
    into the vertex count).  When the probe gives no index (its radii
    disagree, say) the expansion index stands, and the note names the
    probe's failure and its counts."""
    if probe.index is None:
        if idx is None:
            return None, ""
        return idx, f"probe {probe.note} (counts {probe.counts}): expansion index {idx} kept"
    if idx is None:
        return probe.index, "resolved by probe count"
    if probe.index == idx:
        return idx, ""
    if composite:
        return probe.index, (f"composite: probe total {probe.index} absorbs "
                             f"sub-resolution structure (expansion index {idx})")
    return probe.index, f"probe total {probe.index} overrides expansion index {idx}"


def classify_vertex(sol, vid: int, *, absorbed=(), nearest=math.inf) -> dict:
    """Vertex index from the fitted expansion and the probe count, combined
    by ``_vertex_verdict``; the expansion-route index is kept in the entry.
    The fit and the probe each take one ``eval``.

    ``absorbed`` (distances of roots absorbed into the vertex) and
    ``nearest`` (distance to the nearest side or interior critical point;
    ``find_critical_points`` counts no other vertex) size the
    probe through ``_probe_radii``; a vertex with absorbed roots is
    composite, and its table entry keeps their distances.
    """
    P = sol.polygon
    vid = vid % P.n
    expansion = _bessel.fit_coefficients(sol, vid)
    locus = ("vertex", vid)
    radii = _probe_radii(sol, P.vertices[vid], locus, absorbed, nearest)
    probe = _probe_count(sol.eval(_probe_points(P, P.vertices[vid], locus, radii)), locus, radii)
    return _vertex_entry(vid, expansion, probe, absorbed)


def _vertex_entry(vid: int, expansion, probe: IndexResult, absorbed) -> dict:
    """The vertex table entry of ``classify_vertex`` from the vertex's
    fitted expansion and its probe count."""
    idx, k, a, note = _expansion_index(expansion)
    final, more = _vertex_verdict(idx, probe, bool(absorbed))
    note = _join(note, more)
    if expansion.pinned:
        note = _join(note, f"modes {list(expansion.pinned)} pinned to 0: "
                           f"their columns underflow over the fit annulus")
    radii = probe.radii
    if radii[0] == radii[1]:
        # the two-radius agreement check then compares a circle with itself
        note = _join(note, f"probe radii collapse to one circle at the "
                           f"annulus cap r = {radii[0]:.5g}")
    mags = expansion.magnitudes()
    info = {"vertex": vid, "index": final, "expansion_index": idx, "k": k, "a": a,
            "expansion": expansion, "magnitudes": [float(x) for x in mags],
            "leading_ratio": None if expansion.leading_index is None
            else float(mags[expansion.leading_index]),
            "probe_index": probe.index, "probe_arcs": probe.n_arcs,
            "agree": None if probe.index is None or idx is None else probe.index == idx,
            "note": note}
    if absorbed:
        info["absorbed_distances"] = list(absorbed)
    return info


# ---------------------------------------------------------------------------
# hessian estimate (nondegeneracy checks)
# ---------------------------------------------------------------------------

def estimate_hessian(sol, p, side: int | None = None) -> np.ndarray:
    """Hessian of u_h at p: the constant Hessian of the P2 element holding p.

    On an element the reference gradient is r0 + A xi, so the Hessian is
    Jinv^T A Jinv (symmetrised).  For a point on side ``side`` the Neumann
    condition kills the mixed tangential-normal entry, so only the
    tangential and normal entries are kept (returned in world coordinates).
    """
    space = sol.space
    (e,), _ = space.locate(np.asarray(p, dtype=float)[None, :])
    if e < 0:
        raise ValueError(f"no Hessian off the mesh, at {p}")
    _, A = space.affine_gradients(sol.coef)
    Jinv = space.Jinv[e]
    H = Jinv.T @ A[e] @ Jinv
    H = 0.5 * (H + H.T)
    if side is None:
        return H
    P = sol.polygon
    R = np.column_stack([P.side_tangents[side], -P.side_normals[side]])
    return R @ np.diag(np.diag(R.T @ H @ R)) @ R.T


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def _grad_scale(sol) -> float:
    """max |grad u_h| over the element centroids."""
    space = sol.space
    r0, A = space.affine_gradients(sol.coef)
    g = np.einsum("eba,eb->ea", space.Jinv, r0 + A @ np.full(2, 1 / 3))
    return float(np.linalg.norm(g, axis=1).max())


def _element_gradient_zeros(sol) -> np.ndarray:
    """Points where an element's affine gradient vanishes inside that element."""
    space = sol.space
    r0, A = space.affine_gradients(sol.coef)
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    slack = 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):   # singular A: no zero kept
        # Cramer's rule for A xi = -r0
        xi = np.column_stack([r0[:, 1] * A[:, 0, 1] - r0[:, 0] * A[:, 1, 1],
                              r0[:, 0] * A[:, 1, 0] - r0[:, 1] * A[:, 0, 0]]) / det[:, None]
        inside = (xi[:, 0] >= -slack) & (xi[:, 1] >= -slack) & (xi.sum(axis=1) <= 1 + slack)
    e = np.nonzero(inside)[0]
    p0 = space.mesh.nodes[space.mesh.triangles[e, 0]]
    return p0 + np.einsum("eab,eb->ea", space.J[e], xi[e])


def _side_tangential_roots(sol, sides, *, zero_rtol: float, gscale: float):
    """Roots of the tangential derivative of u_h along each of ``sides``.

    On a boundary edge u_h is the quadratic through its dofs a, m, b, so the
    tangential derivative is linear between its end values (-3a + 4m - b)/L
    and (a - 4m + 3b)/L.  A root is reported inside an edge where the two
    change sign, and at a boundary node where the derivative changes sign
    across the node.  Returns one ``(roots, pts)`` pair per side: the roots
    as increasing fractions along the side, or None when every end value is
    below ``zero_rtol * gscale`` (a degenerate locus), and the side's nodes.
    The edges are read in ``mesh.boundary_edges`` order, which runs along
    each side from its first vertex (a chain ``_check_conforming`` asserts).
    """
    space, coef = sol.space, sol.coef
    mesh = space.mesh
    P = mesh.polygon
    be = mesh.boundary_edges
    mid = space.boundary_mid_dofs
    out = []
    for i in sides:
        rows = np.nonzero(be[:, 2] == i)[0]            # in order along the side
        ends = be[rows, :2]
        s = (mesh.nodes[ends] - P.vertices[i]) @ P.side_vectors[i] / P.side_lengths[i] ** 2
        a, um, b = coef[ends[:, 0]], coef[mid[rows]], coef[ends[:, 1]]
        L = (s[:, 1] - s[:, 0]) * P.side_lengths[i]
        f0, f1 = (-3 * a + 4 * um - b) / L, (a - 4 * um + 3 * b) / L
        pts = mesh.nodes[np.append(ends[:, 0], ends[-1, 1])]
        if np.all(np.maximum(np.abs(f0), np.abs(f1)) < zero_rtol * gscale):
            out.append((None, pts))  # entire side critical: degenerate locus
            continue
        cross = f0 * f1 < 0
        at_node = f1[:-1] * f0[1:] < 0
        roots = np.concatenate([s[cross, 0] + f0[cross] / (f0[cross] - f1[cross])
                                * (s[cross, 1] - s[cross, 0]), s[:-1, 1][at_node]])
        out.append((sorted(roots.tolist()), pts))
    return out


def find_critical_points(sol) -> CriticalSet:
    """All critical points: interior gradient zeros, side tangential zeros,
    and vertices classified through their expansions.

    Non-isolated critical behavior (a side on which the tangential derivative
    vanishes identically, or many collinear interior zeros) is reported as a
    degenerate locus instead of a point list.  ``side_roots`` keeps every
    side's raw tangential-derivative roots, before vertex absorption.
    """
    P = sol.polygon
    gscale = _grad_scale(sol)
    degenerate: list[DegenerateLocus] = []
    notes: list[str] = []
    absorbed: dict[int, list[float]] = {}   # vid -> distances of absorbed roots
    probes = []                             # (point, locus) of each side and interior point

    # sides first: vertex probes adapt to nearby side structure
    side_roots = _side_tangential_roots(sol, range(P.n),
                                        zero_rtol=DEFAULTS.grad_zero_rtol, gscale=gscale)
    roots_at, sides = [], []
    for i, (roots, pts) in enumerate(side_roots):
        if roots is None:
            degenerate.append(DegenerateLocus("side", f"tangential derivative vanishes on side {i}",
                                              pts))
            notes.append(f"side {i}: non-isolated critical locus (rectangle-like degenerate)")
            continue
        roots_at += [P.vertices[i] + r * P.side_vectors[i] for r in roots]
        sides += [i] * len(roots)
    q = np.reshape(roots_at, (-1, 2))
    vdists = np.linalg.norm(q[:, None] - P.vertices[None], axis=2)
    for p, i, hloc, dists in zip(q, sides, sol.h_at(q), vdists):
        vnear = int(np.argmin(dists))
        if dists[vnear] < 0.5 * hloc:
            continue  # sub-element: indistinguishable from the vertex itself
        if dists[vnear] < 1.2 * hloc:
            # too close to isolate from the vertex: absorbed into its probe
            absorbed.setdefault(vnear, []).append(float(dists[vnear]))
            continue
        probes.append((p, ("side", i)))

    # interior; the boundary zone is handled by side and vertex detection
    zeros = _element_gradient_zeros(sol)
    hz = sol.h_at(zeros)
    away = P.boundary_distance(zeros) >= 1.2 * hz
    found: list[np.ndarray] = []
    for p, hp in zip(zeros[away], hz[away]):
        if any(np.linalg.norm(p - q) < max(hp, 1e-9) for q in found):
            continue
        found.append(p)

    if len(found) >= DEFAULTS.degenerate_collinear_count:
        (pmain, resid) = _principal_line(np.array(found))
        if resid < 1e-3 * P.diameter:
            degenerate.append(DegenerateLocus("line", "collinear interior critical samples",
                                              np.array(found)))
            notes.append("interior: non-isolated critical locus (rectangle-like degenerate)")
            found = []
    probes += [(p, "interior") for p in found]

    # vertices last: probe radii adapt to the side and interior points
    # nearby, so no vertex depends on another.  Every probe and every fit
    # grid then takes one ``eval``, and the points' gradients one
    # ``eval_grad``; each point is located by itself, so each value is the
    # one a query of its own gives.
    radii = [_probe_radii(sol, p, locus) for p, locus in probes]
    loci = list(probes)
    for vid in range(P.n):
        vpt = P.vertices[vid]
        nearest = min((float(np.linalg.norm(p - vpt)) for p, _ in probes), default=math.inf)
        loci.append((vpt, ("vertex", vid)))
        radii.append(_probe_radii(sol, vpt, ("vertex", vid), absorbed.get(vid, ()), nearest))
    grids = [_bessel.vertex_fit_grid(P, vid) for vid in range(P.n)]
    blocks = [_probe_points(P, p, locus, r) for (p, locus), r in zip(loci, radii)]
    blocks += [g.points for g in grids]
    values = np.split(sol.eval(np.vstack(blocks)), np.cumsum([len(b) for b in blocks[:-1]]))
    counted = [_probe_count(v, locus, r) for v, (_, locus), r in zip(values, loci, radii)]

    points: list[CriticalPoint] = []
    if probes:
        grads = sol.eval_grad(np.reshape([p for p, _ in probes], (-1, 2)))
        points = [CriticalPoint(p, locus, res.index, res.index == 1,
                                {"n_arcs": res.n_arcs, "counts": res.counts, "radii": res.radii,
                                 "grad_residual": float(np.linalg.norm(g)), "note": res.note})
                  for (p, locus), res, g in zip(probes, counted, grads)]

    vertex_table = {}
    for vid, grid, fit_values, probe in zip(range(P.n), grids, values[len(loci):],
                                            counted[len(probes):]):
        try:
            expansion = _bessel.fit_coefficients(sol, vid, fit_values, grid)
        except _bessel.FitError as e:
            info = {"vertex": vid, "index": None, "note": f"fit failed: {e}",
                    "expansion": None, "leading_ratio": None}
        else:
            info = _vertex_entry(vid, expansion, probe, absorbed.get(vid, ()))
        vertex_table[vid] = info
        idx = info["index"]
        if idx != 0:
            points.append(CriticalPoint(P.vertices[vid].copy(), ("vertex", vid), idx, idx == 1,
                                        {key: info.get(key) for key in
                                         ("k", "leading_ratio", "probe_index", "agree", "note")}))

    return CriticalSet(points=points, vertex_table=vertex_table,
                       side_roots=[roots for roots, _ in side_roots],
                       degenerate_loci=degenerate, notes=notes)


def _principal_line(pts: np.ndarray):
    c = pts.mean(axis=0)
    d = pts - c
    _, sv, Vt = np.linalg.svd(d, full_matrices=False)
    resid = sv[1] / math.sqrt(len(pts)) if len(sv) > 1 else 0.0
    return (c, Vt[0]), float(resid)


# ---------------------------------------------------------------------------
# index formula
# ---------------------------------------------------------------------------

@dataclass
class IndexFormulaReport:
    lhs: int
    rhs: int | None
    passed: bool | None               # None = inconclusive
    terms: dict
    unresolved: int
    degenerate: bool

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "passed": self.passed,
                "terms": self.terms, "unresolved": self.unresolved,
                "degenerate": self.degenerate}


def verify_index_formula(sol, cset: CriticalSet | None = None) -> IndexFormulaReport:
    """Check 2*chi(P) = sum_interior 2*ind + sum_boundary ind (chi = 1)."""
    if cset is None:
        cset = find_critical_points(sol)
    if cset.degenerate:
        return IndexFormulaReport(2, None, None, {}, 0, True)
    unresolved = len(cset.unresolved_points())
    if unresolved:
        return IndexFormulaReport(2, None, None, {}, unresolved, False)
    interior = sum(p.index for p in cset.points if p.kind == "interior")
    boundary = sum(p.index for p in cset.points if p.kind != "interior")
    rhs = 2 * interior + boundary
    terms = {"interior_sum": interior, "boundary_sum": boundary,
             "n_interior": len(cset.by_kind("interior")),
             "n_side": len(cset.by_kind("side")),
             "n_vertex": len(cset.by_kind("vertex"))}
    return IndexFormulaReport(2, rhs, rhs == 2, terms, 0, False)


# ---------------------------------------------------------------------------
# index-zero cusp diagnostic
# ---------------------------------------------------------------------------

@dataclass
class CuspDiagnostic:
    tangent_cusp: bool
    k: int | None
    slope_estimate: float
    transverse_coeff: float
    sign_change: bool
    note: str = ""


def cusp_diagnostic(sol, cp: CriticalPoint) -> CuspDiagnostic:
    """Fit the normal-form behavior u - u(p) ~ c (y^2 - x^k rho(x)) at an
    index-zero side critical point: quadratic transversally, odd-order sign
    change along the side, level set a cusp tangent to the side.  u(p), the
    inward normal line and the side on both sides of p take one ``eval``."""
    if not (isinstance(cp.locus, tuple) and cp.locus[0] == "side"):
        raise ValueError("cusp diagnostic applies to side-interior critical points")
    if cp.index != 0:
        raise ValueError(f"cusp diagnostic requires index 0, got {cp.index}")
    P = sol.polygon
    i = cp.locus[1]
    t = P.side_tangents[i]
    n_in = -P.side_normals[i]
    p = cp.location
    h = float(sol.h_at(p[None, :])[0])
    others, vdist = _side_clearance(P, p, i)
    r_max = min(0.5 * others, 0.5 * vdist)
    yy = np.linspace(0.35 * h, min(3 * h, 0.9 * r_max), 12)
    xx = np.geomspace(max(h, 0.02 * r_max), r_max, 14)
    vals = sol.eval(np.vstack([p, p + yy[:, None] * n_in,
                               p + xx[:, None] * t, p - xx[:, None] * t]))
    u0 = vals[0]
    tv, fvals = vals[1:13] - u0, {+1: vals[13:27] - u0, -1: vals[27:] - u0}

    # transverse: u(p + y n) - u0 ~ c y^2
    A = np.column_stack([yy ** 2])
    c_fit, *_ = np.linalg.lstsq(A, tv, rcond=None)
    c_est = float(c_fit[0])
    tres = float(np.linalg.norm(tv - A @ c_fit) / max(np.linalg.norm(tv), 1e-300))

    # along the side: log|f| vs log|x| slope on both sides
    slopes = []
    for f in fvals.values():
        ok = np.isfinite(f) & (np.abs(f) > 1e-14 * abs(u0 + 1e-300))
        if np.sum(ok) >= 5:
            sl = np.polyfit(np.log(xx[ok]), np.log(np.abs(f[ok])), 1)[0]
            slopes.append(sl)
    slope = float(np.mean(slopes)) if slopes else float("nan")
    sign_change = bool(np.isfinite(fvals[+1][-1]) and np.isfinite(fvals[-1][-1])
                       and fvals[+1][-1] * fvals[-1][-1] < 0)

    k_round = int(round(slope)) if np.isfinite(slope) else None
    if k_round is not None and k_round % 2 == 0:
        k_round = k_round + 1 if slope > k_round else k_round - 1
    ok_k = (k_round is not None and k_round >= 3 and abs(slope - k_round) < 0.6)
    tangent = bool(sign_change and ok_k and tres < 0.2 and c_est != 0.0)
    note = "" if tangent else f"slope {slope:.2f}, sign_change={sign_change}, tres={tres:.2g}"
    return CuspDiagnostic(tangent_cusp=tangent, k=k_round if ok_k else None,
                          slope_estimate=slope, transverse_coeff=c_est,
                          sign_change=sign_change, note=note)
