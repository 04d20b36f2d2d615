"""Zero sets of u and of derivative fields, traced as embedded planar graphs.

A ScalarField wraps u, a constant-direction derivative
L_psi u = cos(psi) du/dx + sin(psi) du/dy, or the rotational-field
derivative R_w u = -(y - w_y) du/dx + (x - w_x) du/dy over a solution, as
one P2 dof vector on the solution's space, which is also what it evaluates
at points.  ``trace`` extracts Z(field) by marching triangles on the P2
sub-triangulation with those dof values, and classifies whether arcs end at
polygon vertices.

The arc-at-vertex question is answered two ways: geometrically, by probing
the field on shrinking circular arcs inside the vertex wedge, and
analytically, from the fitted vertex expansion through the angular-interval
criteria (the interval depends on which of c0/c1 dominates and on the vertex
angle).  Callers get both verdicts plus an agreement flag.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .config import DEFAULTS
from .eigensolver import P2Space
from .geometry import arc_points
from . import bessel as _bessel

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class ScalarField:
    """Evaluation handle for u or a first-order derivative field of u."""

    def __init__(self, sol, kind: str, *, psi: float | None = None, w=None):
        self.sol = sol
        self.kind = kind
        self.psi = psi
        self.w = None if w is None else np.asarray(w, dtype=float)

    @staticmethod
    def u(sol) -> "ScalarField":
        return ScalarField(sol, "u")

    @staticmethod
    def directional(sol, psi: float) -> "ScalarField":
        return ScalarField(sol, "L", psi=float(psi))

    @staticmethod
    def side_directional(sol, side: int) -> "ScalarField":
        t = sol.polygon.side_tangents[side % sol.polygon.n]
        return ScalarField(sol, "L", psi=math.atan2(t[1], t[0]))

    @staticmethod
    def rotational(sol, w) -> "ScalarField":
        return ScalarField(sol, "R", w=w)

    def _combine(self, pts, gx, gy) -> np.ndarray:
        if self.kind == "L":
            return math.cos(self.psi) * gx + math.sin(self.psi) * gy
        if self.kind == "R":
            return -(pts[:, 1] - self.w[1]) * gx + (pts[:, 0] - self.w[0]) * gy
        raise ValueError(f"unknown field kind {self.kind}")

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """The P2 field of ``dofs`` at each of the (n, 2) points (NaN outside
        the mesh)."""
        space, vals = self.dofs
        return space.eval(vals, pts)

    @functools.cached_property
    def dofs(self) -> tuple[P2Space, np.ndarray]:
        """The field as a P2 dof vector on the solution's space.

        u is ``coef``; a derivative field combines the recovered-gradient dof
        vectors at the dof points.
        """
        space = self.sol.space
        if self.kind == "u":
            return space, self.sol.coef
        gx, gy = self.sol._recovered
        return space, self._combine(space.dof_points(), gx, gy)

    @property
    def tag(self) -> dict:
        d = {"kind": self.kind}
        if self.psi is not None:
            d["psi"] = self.psi
        if self.w is not None:
            d["w"] = [float(self.w[0]), float(self.w[1])]
        return d

    @property
    def scale(self) -> float:
        """max |dof value| of the field."""
        return float(np.abs(self.dofs[1]).max())


# ---------------------------------------------------------------------------
# nodal graph
# ---------------------------------------------------------------------------

@dataclass
class GraphNode:
    id: int
    point: np.ndarray
    locus: tuple | str          # 'interior' | ('side', i) | ('vertex', i)
    degree: int = 0


@dataclass
class NodalGraph:
    nodes: list[GraphNode]
    edges: list[tuple[int, int, np.ndarray]]   # (node a, node b, polyline)
    zero_sides: list[int]                      # sides where the field vanishes identically
    unresolved: list[np.ndarray]               # dangling ends that could not be classified
    field_tag: dict = dc_field(default_factory=dict)

    def degree_one_nodes(self) -> list[GraphNode]:
        return [n for n in self.nodes if n.degree == 1]

    def n_components(self) -> int:
        """Connected components of the graph; a node's id is its position in
        ``nodes``, as ``trace`` numbers them."""
        n = len(self.nodes)
        if n == 0:
            return 0
        ab = np.array([(a, b) for a, b, _ in self.edges], dtype=int).reshape(-1, 2)
        adjacency = sp.coo_matrix((np.ones(len(ab)), (ab[:, 0], ab[:, 1])), shape=(n, n))
        return int(connected_components(adjacency, directed=False)[0])

    def polyline_points(self) -> np.ndarray:
        if not self.edges:
            return np.zeros((0, 2))
        return np.vstack([pl for _, _, pl in self.edges])

    def simple_arc_report(self) -> dict:
        """Check the single-simple-arc structure expected of Z(u)."""
        deg1 = self.degree_one_nodes()
        ok = (len(self.edges) > 0 and self.n_components() == 1 and len(deg1) == 2
              and all(n.degree in (1, 2) for n in self.nodes)
              and not self.zero_sides and not self.unresolved)
        sides = sorted(n.locus[1] for n in deg1
                       if isinstance(n.locus, tuple) and n.locus[0] == "side")
        distinct = len(deg1) == 2 and len({str(n.locus) for n in deg1}) == 2
        return {"is_simple_arc": bool(ok and distinct and len(sides) == 2),
                "n_components": self.n_components(),
                "n_degree_one": len(deg1),
                "endpoint_loci": [n.locus for n in deg1],
                "endpoint_sides": sides,
                "unresolved": len(self.unresolved)}

    def euler_data(self) -> dict:
        return {"n_nodes": len(self.nodes), "n_edges": len(self.edges),
                "n_components": self.n_components(),
                "euler_characteristic": len(self.nodes) - len(self.edges)}

    def to_dict(self) -> dict:
        return {
            "field": self.field_tag,
            "nodes": [{"id": n.id, "point": [float(n.point[0]), float(n.point[1])],
                       "locus": list(n.locus) if isinstance(n.locus, tuple) else n.locus,
                       "degree": n.degree} for n in self.nodes],
            "edges": [{"a": a, "b": b, "n_points": len(pl)} for a, b, pl in self.edges],
            "zero_sides": list(self.zero_sides),
            "n_unresolved": len(self.unresolved),
            "euler": self.euler_data(),
        }


# ---------------------------------------------------------------------------
# wedge probes (geometric arc-at-vertex test)
# ---------------------------------------------------------------------------

@dataclass
class WedgeProbe:
    vertex: int
    radii: list[float]
    root_thetas: list[list[float]]   # per radius, interior arc crossings
    boundary_band: bool              # crossings only inside the side bands
    ends_at_vertex: bool | None      # None = inconclusive (field too small)


def wedge_probe(field: ScalarField, vid: int) -> WedgeProbe:
    """Probe sign changes of the field on shrinking arcs inside a vertex wedge.

    The arcs have radii r0, r0/2 and r0/4, with r0 the inner radius of the
    vertex's fit annulus, and 241 samples each, all evaluated in one call; a
    crossing is the linear interpolate between neighbouring finite samples
    of opposite sign.  An arc of the zero set ends at the vertex iff
    crossings persist at every radius (no critical points sit near the
    vertex, so a zero curve entering the wedge either terminates at the
    vertex or leaves through the probe circle).  Crossings within 0.04 beta
    of either side are reported separately: they belong to boundary-lying
    components.  The verdict is None when an arc has fewer than half its
    samples finite or stays below 1e-9 of the field's scale.
    """
    P = field.sol.polygon
    apex, alpha, beta = P.vertex_frame(vid)
    r0 = DEFAULTS.annulus_inner * float(P.vertex_clearance[vid])
    radii = [r0, 0.5 * r0, 0.25 * r0]
    n_theta = 241
    pad = 0.04 * beta
    th = np.linspace(1e-4 * beta, beta * (1 - 1e-4), n_theta)
    arcs = field.eval(arc_points(apex, radii, alpha + th)).reshape(len(radii), n_theta)
    fscale = field.scale
    root_thetas = []
    band_hit = False
    conclusive = True
    for f in arcs:
        ok = np.isfinite(f)
        if np.sum(ok) < n_theta // 2 or np.abs(f[ok]).max() < 1e-9 * fscale:
            conclusive = False
            root_thetas.append([])
            continue
        k = np.nonzero(ok[:-1] & ok[1:] & (f[:-1] * f[1:] < 0))[0]
        roots = th[k] + f[k] / (f[k] - f[k + 1]) * (th[k + 1] - th[k])
        interior = [float(r) for r in roots if pad <= r <= beta - pad]
        band_hit |= len(interior) != len(roots)
        root_thetas.append(interior)
    verdict = all(len(r) >= 1 for r in root_thetas) if conclusive else None
    return WedgeProbe(vertex=vid, radii=radii, root_thetas=root_thetas,
                      boundary_band=band_hit, ends_at_vertex=verdict)


# ---------------------------------------------------------------------------
# analytic arc-at-vertex criteria
# ---------------------------------------------------------------------------

def _interval_membership(psi: float, a: float, b: float) -> float:
    """Signed angular distance of psi to [a, b] mod pi: positive inside."""
    width = b - a
    x = (psi - a) % math.pi
    if x <= width:
        return min(x, width - x)
    return -min(x - width, math.pi - x)


@dataclass
class ArcVerdict:
    vertex: int
    verdict: bool | None
    geometric: bool | None
    analytic: bool | None
    agree: bool | None
    method: str
    margin: float | None = None        # angular margin of the analytic test
    near_boundary: bool = False
    notes: str = ""


def analytic_arc_verdict(expansion, psi_local: float | None = None,
                         w_local_angle: float | None = None):
    """Interval criterion for 'an arc of Z(field u) ends at this vertex'.

    ``psi_local`` is the field direction measured in the vertex frame for a
    constant field; ``w_local_angle`` the angular position of the rotation
    center for a rotational field.  A coefficient vanishes below
    ``DEFAULTS.vanish_threshold``; an angular margin within
    ``DEFAULTS.psi_boundary_band`` is near the interval boundary.  Returns
    (verdict, margin, near_boundary, note); verdict None when the criteria do
    not apply.
    """
    threshold = DEFAULTS.vanish_threshold
    band = DEFAULTS.psi_boundary_band
    beta = expansion.beta
    mags = expansion.magnitudes()
    sig0 = mags[0] > threshold
    sig1 = len(mags) > 1 and mags[1] > threshold

    if psi_local is not None:
        if not sig0 and not sig1:
            return None, None, False, "c0 and c1 both vanish"
        if abs(beta - math.pi) <= DEFAULTS.angle_tol:
            # arc exists iff psi = pi/2 mod pi, and it lies on the boundary
            m = abs((psi_local - math.pi / 2) % math.pi)
            m = min(m, math.pi - m)
            return m <= band, -m, m <= band, "straight vertex: boundary-lying arc"
        if beta > math.pi:
            if not sig1:
                return None, None, False, "reflex vertex with c1 = 0: not covered"
            a, b = math.pi / 2, beta - math.pi / 2
        elif sig0 and (beta < math.pi / 2 or not sig1):
            a, b = math.pi / 2, math.pi / 2 + beta
        elif sig1 and (beta > math.pi / 2 or not sig0):
            a, b = beta - math.pi / 2, math.pi / 2
        else:
            return None, None, False, "no applicable coefficient case"
        m = _interval_membership(psi_local, a, b)
        return m > 0, m, abs(m) <= band, ""

    # rotational field: doubled-sector membership of the center
    if w_local_angle is None:
        return None, None, False, "no field parameter"
    if beta >= math.pi - DEFAULTS.angle_tol:
        return None, None, False, "rotational criterion needs beta < pi"
    th = w_local_angle % math.pi
    in_sector = 0 <= th <= beta
    if in_sector:
        margin = min(th, beta - th)
    else:
        margin = -min(th - beta, math.pi - th)
    if beta < math.pi / 2:
        if sig0:
            v = in_sector
        elif sig1:
            v = not in_sector
        else:
            return None, None, False, "c0 and c1 both vanish"
    else:
        if sig1:
            v = not in_sector
        elif sig0:
            v = in_sector
        else:
            return None, None, False, "c0 and c1 both vanish"
    near = abs(margin) <= band
    note = "w on sector boundary" if near else ""
    return v, margin, near, note


def arc_ends_at_vertex(field: ScalarField, vid: int) -> ArcVerdict:
    """Does an arc of Z(field) end at polygon vertex vid?

    Two routes answer it: the wedge probe of the traced field (geometric),
    and the interval criteria on the fitted vertex expansion (analytic).
    Where both resolve and disagree, the verdict is inconclusive.
    """
    sol = field.sol
    P = sol.polygon
    vid = vid % P.n
    ana = None
    margin = None
    near = False
    notes = []

    probe = wedge_probe(field, vid)
    geo = probe.ends_at_vertex
    if probe.boundary_band:
        notes.append("boundary-band crossings present")

    apex, alpha, beta = P.vertex_frame(vid)
    if abs(beta - math.pi / 2) <= DEFAULTS.angle_tol and field.kind != "u":
        notes.append("beta = pi/2: analytic criteria undefined")
    else:
        expansion = _bessel.fit_coefficients(sol, vid)
        if field.kind == "L":
            ana, margin, near, note = analytic_arc_verdict(expansion,
                                                           psi_local=field.psi - alpha)
        elif field.kind == "R":
            wl = math.atan2(field.w[1] - apex[1], field.w[0] - apex[0]) - alpha
            ana, margin, near, note = analytic_arc_verdict(expansion, w_local_angle=wl)
            if near:
                # w on the doubled-sector boundary: measure-zero case is
                # reported inconclusive, not resolved by convention
                ana = None
                note = (note + "; " if note else "") + "w on sector boundary: inconclusive"
        else:
            ana, note = None, "analytic criterion applies to derivative fields"
        if note:
            notes.append(note)

    if geo is not None and ana is not None:
        agree = geo == ana
        verdict = geo if agree else None
        meth = "both"
    elif ana is not None:
        agree, verdict, meth = None, ana, "bessel"
    elif geo is not None:
        agree, verdict, meth = None, geo, "geometric"
    else:
        agree, verdict, meth = None, None, "none"
    return ArcVerdict(vertex=vid, verdict=verdict, geometric=geo, analytic=ana,
                      agree=agree, method=meth, margin=margin,
                      near_boundary=near, notes="; ".join(notes))


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def _quadratic_root(A, B, C) -> np.ndarray:
    """Root in [0, 1] of the quadratic with values A, C, B at 0, 1/2, 1,
    where A and B have opposite signs (so the root is unique)."""
    b = 4 * C - 3 * A - B
    a = 2 * A + 2 * B - 4 * C
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4 * a * A, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):   # a = 0: linear, t = A/q
        t1, t2 = A / q, q / a
    return np.clip(np.where((t1 >= 0) & (t1 <= 1), t1, t2), 0.0, 1.0)


def _sub_edges(space: P2Space, vals: np.ndarray):
    """Sub-edges of the P2 sub-triangulation (4 P1 triangles per element).

    Mesh edge e with mid dof k is split into half-edges 2e = (lo, k) and
    2e + 1 = (k, hi); element j adds the sub-edges 2E + 3j + (0, 1, 2) between
    its mid dofs (m01, m12), (m12, m20), (m20, m01).  Returns each sub-edge's
    end dofs (S, 2), the field's value at its midpoint (S,), and the three
    sub-edges of each sub-triangle (4m, 3).
    """
    n = space.mesh.n_nodes
    lo, hi = space.edge_nodes.T
    E, d = len(lo), space.dof
    mid = n + np.arange(E)
    ends = np.concatenate([np.column_stack([lo, mid, mid, hi]).reshape(-1, 2),
                           d[:, [3, 4, 4, 5, 5, 3]].reshape(-1, 2)])
    # the quadratic restricted to a half-edge: 3/8, 3/4, -1/8 of its near
    # node, mid dof and far node; to a mid-dof sub-edge: 1/2, 1/2, 1/4 of the
    # three mid dofs and -1/8 of the two nodes it does not face
    v = vals[d]
    half = np.column_stack([0.375 * vals[lo] + 0.75 * vals[mid] - 0.125 * vals[hi],
                            0.375 * vals[hi] + 0.75 * vals[mid] - 0.125 * vals[lo]])
    inner = (0.5 * (v[:, [3, 4, 5]] + v[:, [4, 5, 3]]) + 0.25 * v[:, [5, 3, 4]]
             - 0.125 * (v[:, [0, 1, 2]] + v[:, [2, 0, 1]]))
    midval = np.concatenate([half.ravel(), inner.ravel()])

    def halfedge(slot, node):
        e = d[:, slot] - n
        return 2 * e + (d[:, node] == hi[e])

    inn = 2 * E + 3 * np.arange(len(d))[:, None] + np.arange(3)
    sub = np.stack([
        np.column_stack([halfedge(3, 0), inn[:, 2], halfedge(5, 0)]),
        np.column_stack([halfedge(4, 1), inn[:, 0], halfedge(3, 1)]),
        np.column_stack([halfedge(5, 2), inn[:, 1], halfedge(4, 2)]),
        inn], axis=1).reshape(-1, 3)
    return ends, midval, sub


def _chains(nbr: np.ndarray) -> list[list[int]]:
    """Maximal paths of a graph of maximum degree two, given each node's
    neighbours (-1 = none): open chains from their ends first, then closed
    loops, which repeat their first node at the end."""
    deg = (nbr >= 0).sum(axis=1)
    nbr = nbr.tolist()
    seen = [False] * len(nbr)
    chains = []
    for start in np.concatenate([np.nonzero(deg == 1)[0], np.nonzero(deg == 2)[0]]).tolist():
        if seen[start]:
            continue
        seen[start] = True
        chain, prev, cur = [start], -1, start
        while True:
            a, b = nbr[cur]
            nxt = a if a != prev else b
            if nxt < 0:
                break
            chain.append(nxt)
            if seen[nxt]:
                break
            seen[nxt] = True
            prev, cur = cur, nxt
        chains.append(chain)
    return chains


def trace(field: ScalarField) -> NodalGraph:
    """Trace Z(field) on the solution's polygon as an embedded graph.

    Marching triangles on the P2 sub-triangulation with the field's dof
    values: a crossing is the root of the field's quadratic restriction to a
    sub-edge, and crossings are chained through the sub-triangles.  A chain
    end on a boundary sub-edge carries that edge's side; it is reported at a
    polygon vertex when its sub-edge touches the vertex and the vertex
    verdict holds (u_h(v) = 0 for u, the wedge probe for a derivative field).

    Boundary-lying components (sides where every dof of the field is below
    ``DEFAULTS.side_zero_rtol * scale``, e.g. Z(L_psi u) containing a side
    orthogonal to psi) are recorded in ``zero_sides``; their dofs carry no
    sign.
    """
    P = field.sol.polygon
    space, vals = field.dofs
    mesh = space.mesh
    scale = field.scale
    tiny = 1e-13 * scale
    be, bmid = mesh.boundary_edges, space.boundary_mid_dofs

    signless = ~np.isfinite(vals)
    zero_sides = []
    for i in range(P.n):
        rows = be[:, 2] == i
        on_side = np.concatenate([be[rows, 0], be[rows, 1], bmid[rows]])
        if np.all(np.abs(vals[on_side]) < DEFAULTS.side_zero_rtol * scale):
            zero_sides.append(i)
            signless[on_side] = True
    vanish = np.abs(vals) < tiny
    vals = np.where(vanish, tiny, vals)

    ends, midval, sub = _sub_edges(space, vals)
    A, B = vals[ends[:, 0]], vals[ends[:, 1]]
    cross = ((A > 0) != (B > 0)) & ~signless[ends[:, 0]] & ~signless[ends[:, 1]]
    ci = np.nonzero(cross)[0]
    t = _quadratic_root(A[ci], B[ci], midval[ci])
    dp = space.dof_points()
    X = dp[ends[ci, 0]] + t[:, None] * (dp[ends[ci, 1]] - dp[ends[ci, 0]])

    # sub-triangles with two crossings link them; each crossing has <= 2 links
    local = np.full(len(ends), -1)
    local[ci] = np.arange(len(ci))
    loc = local[sub]
    links = np.sort(loc[(loc >= 0).sum(axis=1) == 2], axis=1)[:, 1:]
    nbr = np.full((len(ci), 2), -1)
    flat, partner = links.ravel(), links[:, ::-1].ravel()
    order = np.argsort(flat, kind="stable")
    flat, partner = flat[order], partner[order]
    second = np.r_[False, flat[1:] == flat[:-1]]
    nbr[flat, second.astype(int)] = partner

    side_of = np.full(len(ends), -1)
    e_b = bmid - mesh.n_nodes
    side_of[2 * e_b] = side_of[2 * e_b + 1] = be[:, 2]
    vertex_of = np.full(space.ndof, -1)
    vertex_of[mesh.vertex_map] = np.arange(P.n)

    @functools.cache
    def ends_at_vertex(vid: int) -> bool:
        if field.kind == "u":
            return bool(vanish[mesh.vertex_map[vid]])
        return bool(wedge_probe(field, vid).ends_at_vertex)

    nodes: list[GraphNode] = []
    unresolved: list[np.ndarray] = []
    vertex_nodes: dict[int, int] = {}

    def new_node(pt, locus) -> int:
        nodes.append(GraphNode(len(nodes), np.array(pt, dtype=float), locus))
        return nodes[-1].id

    def end_node(k: int) -> tuple[int, np.ndarray | None]:
        """Node of the chain end at crossing k, and the vertex it reaches."""
        s = ci[k]
        if side_of[s] < 0:
            unresolved.append(X[k].copy())
            return new_node(X[k], "interior"), None
        vid = int(vertex_of[ends[s]].max())
        if vid >= 0 and ends_at_vertex(vid):
            if vid not in vertex_nodes:
                vertex_nodes[vid] = new_node(P.vertices[vid], ("vertex", vid))
            return vertex_nodes[vid], P.vertices[vid]
        return new_node(X[k], ("side", int(side_of[s]))), None

    edges = []
    for chain in _chains(nbr):
        pl = X[chain]
        if chain[0] == chain[-1]:
            a = b = new_node(pl[0], "interior")
        else:
            a, va = end_node(chain[0])
            b, vb = end_node(chain[-1])
            pl = np.vstack([p for p in (va, pl, vb) if p is not None])
        edges.append((a, b, pl))
        nodes[a].degree += 1
        nodes[b].degree += 1

    return NodalGraph(nodes=nodes, edges=edges, zero_sides=zero_sides,
                      unresolved=unresolved, field_tag=field.tag)
