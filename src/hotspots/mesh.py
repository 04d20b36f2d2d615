"""Conforming graded triangulation of polygons.

The algorithm is a force-equilibrium relaxation over a Delaunay
triangulation (distmesh flavor): boundary nodes are placed exactly on the
polygon sides with spacing that follows a size function graded toward
selected vertices, interior nodes start on a hexagonal lattice and relax
under repulsive edge springs.  The contract is the mesh quality bound and
the grading, not the particular algorithm.  No random numbers are drawn: a
mesh is a pure function of the polygon and h: ``_SizeFunction(P, h)`` holds
the size data, with the grading ``default_grading(P)`` derived from P.

Between relaxation steps the nodes move little, so ``relax`` follows the
displacement rule of distmesh (Persson & Strang, *A Simple Mesh Generator in
MATLAB*, SIAM Review 2004): it keeps the carved triangles until some node has
moved more than 0.1 of its own target size since the last triangulation,
and only then triangulates afresh.  Kept triangles only steer the spring
forces: the repair loop and the final mesh triangulate afresh.

Along a deformation path the polygons of neighbouring samples barely differ,
so ``triangulate(P, h, warm_start=mesh)`` carries a mesh of a nearby polygon
over to P instead of meshing afresh.  Polygon vertices go to the new
vertices, each boundary node keeps its fraction along its side, and interior
nodes follow the harmonic extension of that boundary move (one sparse solve
with the mesh's graph Laplacian over the interior nodes).  A side's node
count must stay close to the number of target-size segments that fit along
it in P at h (a fresh mesh holds that number rounded):
  * within one on every side, the carried triangles are kept;
  * off by one to two, the side takes the fresh stations in place of its
    own nodes, and the carried nodes are triangulated afresh (below);
  * off by two or more, P is meshed afresh.
The count rule keeps the density that h asks for: a polygon scaled at
constant h, a coarser warm mesh or a refined one all mesh afresh.  When a
side was off by one to two, a carried triangle turns over, or the minimum
angle falls below the bound a fresh mesh must meet, the carried nodes get one
second chance: the interior evened out by a few Jacobi sweeps of
graph-Laplacian averaging and all nodes triangulated afresh, they are kept if
every node is used, the boundary chain conforms and the bound holds.
``triangulate`` meshes afresh, exactly as without a warm start, when the
vertex count differs, when a side is off by two or more, or when the second
chance fails (a grading that moved with a reflex angle is carried).
``Mesh.origin`` records which route built the mesh, and ``Mesh.fallback``
why a warm start was meshed afresh: "vertex count", "side count" (off by two
or more, or off by one to two and the second chance failed), "turned
triangle" or "angle bound" (None for a carried mesh and for a mesh built
without a warm start).

A mesh that keeps its warm start's triangles (a plain carry) also shares
that mesh's private connectivity record, so along a path the work that
depends on connectivity alone is done once per chain: here the harmonic
extension operator and its sparse LU factor, in ``eigensolver`` the P2 dof
map, the assembly pattern and the dissection order.  Every other mesh
(fresh, second chance, ``refine``, built by hand) makes its own record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay

from .config import DEFAULTS
from .geometry import Polygon, _read_only


class MeshingError(RuntimeError):
    pass


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _edge_keys(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    """Key a*n_nodes + b (a < b) of every triangle edge: all (0,1) edges, then
    all (1,2), then all (2,0)."""
    t = np.asarray(triangles, dtype=np.int64)
    a = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    b = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    return np.minimum(a, b) * n_nodes + np.maximum(a, b)


def _unique_edges(triangles: np.ndarray, n_nodes: int, *, return_inverse: bool = False):
    """Unique edges (a < b) of a triangle list as an (E, 2) array.

    The rows come out in lexicographic order, since that is the order of the
    integer keys.  Optionally also returns, as ``np.unique`` does, the row of
    each edge in ``_edge_keys`` order.
    """
    out = np.unique(_edge_keys(triangles, n_nodes), return_inverse=return_inverse)
    if not return_inverse:
        return np.column_stack(np.divmod(out, n_nodes))
    return np.column_stack(np.divmod(out[0], n_nodes)), out[1]


def default_grading(P: Polygon) -> np.ndarray:
    """Grading exponent per vertex: 0 for beta <= pi, 1 - pi/beta for reflex.

    Matches the r^(pi/beta) leading behavior of the eigenfunction gradient:
    only reflex corners need local refinement.
    """
    ang = P.angles
    return np.where(ang > math.pi + 1e-12, 1.0 - math.pi / ang, 0.0)


class _SizeFunction:
    """Target size h * min_v clamp((r_v / diam)^g_v, floor, 1), g being
    ``default_grading(P)``; ``h0``, the finest size a node gets, is the size
    0.1 h off the most strongly graded vertex (exactly h when none is)."""

    def __init__(self, P: Polygon, h: float):
        self.P = P
        self.h = float(h)
        self.grade = default_grading(P)
        self.diam = P.diameter
        self.floor = 0.2
        self._graded = np.nonzero(self.grade > 1e-12)[0]
        g = self.grade[self._graded].max(initial=0.0)
        self.h0 = self.h * max(self.floor, (0.1 * self.h / self.diam) ** g)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        s = np.full(len(pts), self.h)
        for i in self._graded:
            r = np.linalg.norm(pts - self.P.vertices[i], axis=1)
            fac = np.clip((r / self.diam) ** self.grade[i], self.floor, 1.0)
            s = np.minimum(s, self.h * fac)
        return s


class _Connectivity:
    """A mesh's triangles and boundary chain, the record of them that a path
    chain shares.

    Every mesh makes one for itself; a plain carry (``_transported``) keeps
    its warm mesh's triangles and chain, takes that mesh's record instead and
    marks it ``shared``.  So what depends on connectivity alone is built once
    per chain: here the harmonic extension operator, in ``eigensolver`` the
    P2 structure it keeps in ``p2``.  ``nodes`` are those of the mesh that
    made the record: work that needs one geometry of the connectivity reads
    them, so that it does not depend on which mesh of the chain asks first.
    """

    def __init__(self, nodes: np.ndarray, triangles: np.ndarray, boundary_edges: np.ndarray):
        self.nodes, self.triangles, self.boundary_edges = nodes, triangles, boundary_edges
        self.shared = False
        self.p2 = None

    @cached_property
    def harmonic(self):
        """The harmonic extension of a boundary move: the interior node ids,
        the node adjacency matrix, the interior nodes' degrees (a column), and
        the sparse LU factor of the graph Laplacian over the interior nodes
        (None without interior nodes)."""
        t, be, n = self.triangles, self.boundary_edges, len(self.nodes)
        inner = np.ones(n, dtype=bool)
        inner[be[:, 0]] = False              # every boundary node starts one chain edge
        inner_ids = np.nonzero(inner)[0]
        m = len(inner_ids)
        e = _unique_edges(t, n)
        adj = sp.csr_matrix((np.ones(2 * len(e)), (e.T.ravel(), e[:, ::-1].T.ravel())),
                            shape=(n, n))
        deg = np.bincount(e.ravel(), minlength=n).astype(float)[inner_ids, None]
        lu = None
        if m:
            pos = np.cumsum(inner) - 1
            a, b = e[inner[e].all(axis=1)].T
            lu = splu(sp.csc_matrix((np.concatenate([deg[:, 0], -np.ones(2 * len(a))]),
                                     (np.concatenate([np.arange(m), pos[a], pos[b]]),
                                      np.concatenate([np.arange(m), pos[b], pos[a]]))),
                                    shape=(m, m)))
        return _read_only(inner_ids), adj, _read_only(deg), lu


@dataclass
class Mesh:
    nodes: np.ndarray                 # (N, 2)
    triangles: np.ndarray             # (M, 3) positive orientation
    boundary_edges: np.ndarray        # (B, 3): node a, node b, polygon side id
    vertex_map: np.ndarray            # polygon vertex -> node index
    polygon: Polygon
    size_fn: _SizeFunction = field(repr=False)
    level: int = 0                    # refinement level
    origin: str = "fresh"             # "fresh" (meshed) or "warm" (transported)
    fallback: str | None = None       # why a warm start was meshed afresh
    _connectivity: _Connectivity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._connectivity = _Connectivity(self.nodes, self.triangles, self.boundary_edges)

    @property
    def h(self) -> float:
        """Target size of the mesh (halved by each refinement level)."""
        return self.size_fn.h / 2 ** self.level

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])

    def min_angle(self) -> float:
        return float(_min_angles(self.nodes, self.triangles).min())

    def edge_lengths(self) -> np.ndarray:
        e = _unique_edges(self.triangles, self.n_nodes)
        return np.linalg.norm(self.nodes[e[:, 0]] - self.nodes[e[:, 1]], axis=1)

    def h_at(self, pts: np.ndarray) -> np.ndarray:
        """Local target size at each of the (n, 2) points (scaled by
        refinement level)."""
        return self.size_fn(pts) / (2 ** self.level)

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes.tolist(),
            "triangles": self.triangles.tolist(),
            "boundary_edges": self.boundary_edges.tolist(),
            "vertex_map": self.vertex_map.tolist(),
            "h": self.h,
            "level": self.level,
        }


def _boundary_stations(P: Polygon, size: _SizeFunction) -> tuple[list[np.ndarray], np.ndarray]:
    """Per side: arclength fractions (excluding endpoints) of boundary nodes,
    and the number of target-size segments that fit along the side (the
    side's node count is that number rounded).  The number is given to 1e-9,
    so that the quadrature's roundoff cannot decide how many whole segments
    a warm mesh's side is off by."""
    out, totals = [], np.empty(P.n)
    for i in range(P.n):
        a = P.vertices[i]
        sv = P.side_vectors[i]
        L = float(np.linalg.norm(sv))
        m = 512
        s = np.linspace(0.0, 1.0, m)
        pts = a[None, :] + s[:, None] * sv[None, :]
        dens = 1.0 / size(pts)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * (L / (m - 1)))])
        total = cum[-1]
        n_seg = max(1, int(round(total)))
        targets = np.arange(1, n_seg) * (total / n_seg)
        fr = np.interp(targets, cum, s)
        out.append(fr)
        totals[i] = round(total, 9)
    return out, totals


_BAYER = np.array([[0, 8, 2, 10], [12, 4, 14, 6], [3, 11, 1, 9], [15, 7, 13, 5]])  # 4x4 dither


def _hex_seeds(P: Polygon, size: _SizeFunction) -> np.ndarray:
    """A hexagonal lattice at spacing h0 inside P, thinned to the target size
    by ordered (Bayer) dithering: point i of row j is kept iff (h0 / size)^2
    > (B[j mod 4, i mod 4] + 0.5) / 16, so every point is kept where the size
    is h0 (everywhere on an ungraded polygon)."""
    h0 = size.h0
    v = P.vertices
    x0, y0 = v.min(axis=0) - h0
    x1, y1 = v.max(axis=0) + h0
    dy = h0 * math.sqrt(3) / 2
    rows, ranks = [], []
    j = 0
    y = y0
    while y <= y1:
        xs = np.arange(x0 + (h0 / 2 if j % 2 else 0.0), x1 + h0, h0)
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
        ranks.append(_BAYER[j % 4, np.arange(len(xs)) % 4])
        y += dy
        j += 1
    pts = np.vstack(rows)
    loc = size(pts)
    keep = ((P.signed_distance(pts) < -0.55 * loc)
            & ((h0 / loc) ** 2 > (np.concatenate(ranks) + 0.5) / 16))
    return pts[keep]


def _carve(P: Polygon, pts: np.ndarray, geps: float) -> np.ndarray:
    """Delaunay simplices with centroid inside P, oriented positively."""
    t = Delaunay(pts).simplices
    cent = pts[t].mean(axis=1)
    t = t[P.signed_distance(cent) < -geps]
    # enforce positive orientation
    p = pts[t]
    areas = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = areas < 0
    t[flip] = t[flip][:, [0, 2, 1]]
    return t


def triangulate(P: Polygon, h: float, *, warm_start: Mesh | None = None) -> Mesh:
    """Conforming triangulation graded by ``default_grading(P)``, with a
    minimum-angle quality bound.

    With ``warm_start``, the nodes of that mesh (of a nearby polygon, meshed
    at a comparable h) are carried onto P and its connectivity is kept, but
    for a second-chance triangulation of the carried nodes; the module
    docstring gives the transport and the cases that mesh afresh instead.
    The size function (``h`` and the grading) is set as without a warm
    start, and the quality bound is the same.
    """
    if h <= 0:
        raise MeshingError("h must be positive")
    # corner elements cannot beat the polygon's own sharpest angle; thin-wedge
    # ladders realize a fixed fraction of it
    min_angle = min(DEFAULTS.mesh_quality_min_angle, 0.9 * math.degrees(float(P.angles.min())))

    h = min(h, 0.9 * float(P.side_lengths.min()))
    size = _SizeFunction(P, h)
    stations, segments = _boundary_stations(P, size)
    fallback = None
    if warm_start is not None:
        mesh, fallback = _transported(warm_start, size, stations, segments, min_angle)
        if mesh is not None:
            return mesh

    fixed_pts = [P.vertices.copy()]
    side_station_idx: list[np.ndarray] = []
    idx = P.n
    for i in range(P.n):
        fr = stations[i]
        pts = P.vertices[i][None, :] + fr[:, None] * P.side_vectors[i][None, :]
        fixed_pts.append(pts)
        side_station_idx.append(np.arange(idx, idx + len(fr)))
        idx += len(fr)
    fixed = np.vstack(fixed_pts)
    n_fixed = len(fixed)

    interior = _hex_seeds(P, size)
    geps = 1e-3 * h

    def relax(pts, n_iter):
        last = None     # the nodes at the last triangulation
        for _ in range(n_iter):
            # distmesh's displacement rule (Persson & Strang 2004): keep the
            # triangles until a node has moved 0.1 of its target size since
            if last is None or np.any(np.linalg.norm(pts - last, axis=1) > reach):
                e = _unique_edges(_carve(P, pts, geps), len(pts))
                last, reach = pts, 0.1 * size(pts)
            vec = pts[e[:, 0]] - pts[e[:, 1]]
            L = np.linalg.norm(vec, axis=1)
            mid = 0.5 * (pts[e[:, 0]] + pts[e[:, 1]])
            hbar = size(mid)
            L0 = hbar * 1.2 * math.sqrt(np.sum(L ** 2) / np.sum(hbar ** 2))
            Fmag = np.maximum(L0 - L, 0.0) / np.maximum(L, 1e-30)
            Fvec = Fmag[:, None] * vec
            at, w = e.T.ravel(), np.concatenate([Fvec, -Fvec])     # np.add.at's order
            force = np.column_stack([np.bincount(at, w[:, k], len(pts)) for k in range(2)])
            force[:n_fixed] = 0.0
            move = 0.2 * force
            pts = pts + move
            # keep interior points strictly inside
            if len(pts) > n_fixed:
                p_int = pts[n_fixed:]
                sd = P.signed_distance(p_int)
                loc = size(p_int)
                bad = sd > -0.3 * loc
                if np.any(bad):
                    d = 1e-6 * h
                    gx = (P.signed_distance(p_int[bad] + [d, 0]) - sd[bad]) / d
                    gy = (P.signed_distance(p_int[bad] + [0, d]) - sd[bad]) / d
                    g = np.column_stack([gx, gy])
                    g /= np.maximum(np.linalg.norm(g, axis=1), 1e-30)[:, None]
                    p_int[bad] -= (sd[bad] + 0.3 * loc[bad])[:, None] * g
                    pts[n_fixed:] = p_int
            if len(pts) > n_fixed and np.max(np.linalg.norm(move[n_fixed:], axis=1)) < 1e-3 * h:
                break
        return pts

    pts = np.vstack([fixed, interior]) if len(interior) else fixed.copy()
    pts = relax(pts, DEFAULTS.mesh_relax_iters)

    # repair loop: fix bad triangles by dropping or inserting interior
    # points, and re-relax after each change.  The round that finds nothing
    # to repair is the final check; the ninth round raises instead of
    # repairing.  A boundary chain edge the Delaunay dropped is left to
    # ``_check_conforming``, which raises.
    for rnd in range(9):
        t = _carve(P, pts, geps)
        m = _min_angles(pts, t)
        bad = np.nonzero(m < min_angle)[0]
        if len(bad) == 0:
            break
        if rnd == 8:
            raise MeshingError(f"quality bound not met: min angle {m.min():.2f} deg "
                               f"< {min_angle} deg after repair")
        drop = set()
        add = []
        for bi in bad:
            movable = [v for v in t[bi] if v >= n_fixed]
            if movable:
                drop.add(min(movable))
            else:
                tri_pts = pts[t[bi]]
                c = tri_pts.mean(axis=0)
                if P.signed_distance(c[None, :])[0] < -0.1 * size(c[None, :])[0]:
                    add.append(c)
        keep = np.ones(len(pts), dtype=bool)
        for d in drop:
            keep[d] = False
        pts = pts[keep]
        if add:
            pts = np.vstack([pts, np.array(add)])
        pts = relax(pts, 20)

    # prune nodes that ended up unused
    used = np.zeros(len(pts), dtype=bool)
    used[: n_fixed] = True
    used[t.ravel()] = True
    remap = -np.ones(len(pts), dtype=int)
    remap[used] = np.arange(used.sum())
    pts = pts[used]
    t = remap[t]

    mesh = Mesh(nodes=pts, triangles=t,
                boundary_edges=_boundary_chain(remap[:P.n], [remap[s] for s in side_station_idx]),
                vertex_map=remap[:P.n], polygon=P, size_fn=size, fallback=fallback)
    _check_conforming(mesh)
    return mesh


_SMOOTH_SWEEPS = 5   # Jacobi sweeps of graph-Laplacian averaging over the interior
                     # nodes of a carried mesh, before the second chance
                     # triangulates them afresh


def _transported(warm: Mesh, size: _SizeFunction, stations: list[np.ndarray],
                 segments: np.ndarray, min_angle: float) -> tuple[Mesh | None, str | None]:
    """``warm`` carried onto P = ``size.P`` at ``size.h``, or None and the
    reason to mesh afresh; the grading of ``warm`` need not be P's.

    ``stations`` and ``segments`` are ``_boundary_stations(P, size)``: a
    fresh mesh gives side i ``len(stations[i]) + 1`` chain edges, the number
    ``segments[i]`` of target-size segments along it rounded.  Every boundary
    node keeps its fraction along its side, and interior nodes follow the
    harmonic extension of the boundary move.  The carried triangles are kept
    when every side of ``warm`` is within one of ``segments[i]`` and none
    turns over or breaks the angle bound.  Otherwise the carried nodes get
    one second chance: the interior smoothed by ``_SMOOTH_SWEEPS`` sweeps, a
    side one to two off given the fresh stations in place of its own nodes,
    and all of them triangulated afresh by ``_carve``.
    """
    P = size.P
    if warm.polygon.n != P.n:
        return None, "vertex count"
    off = np.abs(np.bincount(warm.boundary_edges[:, 2], minlength=P.n) - segments)
    if np.any(off >= 2):
        return None, "side count"
    old, t, be, vmap = warm.nodes, warm.triangles, warm.boundary_edges, warm.vertex_map
    W = warm.polygon
    # every boundary node starts exactly one chain edge
    bnd, sid = be[:, 0], be[:, 2]
    sv = W.side_vectors[sid]
    frac = np.sum((old[bnd] - W.vertices[sid]) * sv, axis=1) / np.sum(sv * sv, axis=1)
    nodes = old.copy()
    nodes[bnd] = P.vertices[sid] + frac[:, None] * P.side_vectors[sid]
    nodes[vmap] = P.vertices
    inner_ids, adj, deg, lap = warm._connectivity.harmonic
    if lap is not None:
        # only boundary nodes have moved yet, so the pull of their move on
        # the interior is adj @ (nodes - old)
        nodes[inner_ids] += lap.solve((adj @ (nodes - old))[inner_ids])
    edited = np.nonzero(off >= 1)[0]
    reason = "side count" if len(edited) else _carried_fault(nodes, t, min_angle)
    if reason is None:
        mesh = Mesh(nodes=nodes, triangles=t.copy(), boundary_edges=be.copy(),
                    vertex_map=vmap.copy(), polygon=P, size_fn=size, origin="warm")
        mesh._connectivity = warm._connectivity
        mesh._connectivity.shared = True
        _check_conforming(mesh)
        return mesh, None
    for _ in range(_SMOOTH_SWEEPS):
        nodes[inner_ids] = (adj @ nodes)[inner_ids] / deg
    # an edited side's own nodes give way to the fresh stations, appended
    sides = [be[sid == i, 0][1:] for i in range(P.n)]
    keep = np.ones(len(nodes), dtype=bool)
    for i in edited:
        keep[sides[i]] = False
    remap = np.cumsum(keep) - 1
    sides = [remap[s] for s in sides]
    parts, k = [nodes[keep]], int(keep.sum())
    for i in edited:
        parts.append(P.vertices[i] + np.outer(stations[i], P.side_vectors[i]))
        sides[i] = np.arange(k, k + len(stations[i]))
        k += len(stations[i])
    nodes, vmap = np.vstack(parts), remap[vmap]
    tri = _carve(P, nodes, 1e-3 * size.h)
    if len(np.unique(tri)) == k and _min_angles(nodes, tri).min() >= min_angle:
        mesh = Mesh(nodes=nodes, triangles=tri, boundary_edges=_boundary_chain(vmap, sides),
                    vertex_map=vmap, polygon=P, size_fn=size, origin="warm")
        try:
            _check_conforming(mesh)
            return mesh, None
        except MeshingError:
            pass
    return None, reason


def _carried_fault(nodes: np.ndarray, t: np.ndarray, min_angle: float) -> str | None:
    """Why carried triangles fail: "turned triangle", "angle bound" or None."""
    p = nodes[t]
    if np.any(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) <= 0):
        return "turned triangle"
    if _min_angles(nodes, t).min() < min_angle:
        return "angle bound"
    return None


def _min_angles(pts, t) -> np.ndarray:
    p = pts[t]
    out = np.full(len(p), np.inf)
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        cosang = np.sum(a * b, axis=1) / np.maximum(den, 1e-300)
        out = np.minimum(out, np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    return out


def _boundary_chain(vertex_map: np.ndarray, side_nodes) -> np.ndarray:
    """Chain edges (a, b, side) in polygon order: side i runs from
    ``vertex_map[i]`` through the nodes ``side_nodes[i]`` to the next vertex."""
    n = len(vertex_map)
    rows = []
    for i in range(n):
        chain = [vertex_map[i], *side_nodes[i], vertex_map[(i + 1) % n]]
        rows += [(int(a), int(b), i) for a, b in zip(chain[:-1], chain[1:])]
    return np.asarray(rows, dtype=int)


def _check_conforming(mesh: Mesh):
    """Boundary edges of the triangulation must be exactly the polygon chain.

    ``boundary_edges`` is that chain in order: grouped by side in polygon
    order, each side starting at its ``vertex_map`` node, and each edge
    starting where the previous one ends.
    """
    P = mesh.polygon
    be = mesh.boundary_edges
    sid = be[:, 2]
    starts = np.flatnonzero(np.diff(sid, prepend=-1))
    if not (np.array_equal(sid[starts], np.arange(P.n))
            and np.array_equal(be[starts, 0], mesh.vertex_map)
            and np.array_equal(be[:, 0], np.roll(be[:, 1], 1))):
        raise MeshingError("boundary edges are not one chain in polygon order")
    n = mesh.n_nodes
    keys, counts = np.unique(_edge_keys(mesh.triangles, n), return_counts=True)
    tri_boundary = keys[counts == 1]
    declared = np.unique(np.minimum(be[:, 0], be[:, 1]) * n + np.maximum(be[:, 0], be[:, 1]))
    if not np.array_equal(tri_boundary, declared):
        missing = np.setdiff1d(declared, tri_boundary)
        extra = np.setdiff1d(tri_boundary, declared)
        raise MeshingError(f"non-conforming mesh: {len(missing)} chain edges missing, "
                           f"{len(extra)} stray boundary edges")
    # boundary nodes must sit on their assigned side: point-to-segment
    # distances of both ends of every chain edge, in row order
    nid, sid = be[:, :2].ravel(), np.repeat(be[:, 2], 2)
    a, sv = P.vertices[sid], P.side_vectors[sid]
    d = mesh.nodes[nid] - a
    s = np.clip(np.sum(d * sv, axis=1) / np.sum(sv * sv, axis=1), 0.0, 1.0)
    off = np.nonzero(np.linalg.norm(d - s[:, None] * sv, axis=1) > 1e-12 * P.diameter)[0]
    if len(off):
        k = off[0]
        raise MeshingError(f"boundary node {nid[k]} off side {sid[k]}")


def refine(mesh: Mesh) -> Mesh:
    """Regular 4-way refinement; exact on straight sides, quality preserved.

    ``h`` halves with each level, as ``h_at`` does.

    Edge midpoints are numbered in the order the triangles first reach them:
    edges (a,b), (b,c), (c,a) of each triangle in turn.
    """
    nodes = mesh.nodes
    t = mesh.triangles
    n, m = len(nodes), len(t)
    keys = _edge_keys(t, n).reshape(3, m).T.ravel()      # triangle-major
    uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)                            # first encounter
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mids = (n + rank[inv]).reshape(m, 3)
    a, b = np.divmod(uniq[order], n)
    all_nodes = np.vstack([nodes, 0.5 * (nodes[a] + nodes[b])])

    # columns a, b, c, mab, mbc, mca -> (a,mab,mca), (b,mbc,mab), (c,mca,mbc), (mab,mbc,mca)
    corners = np.column_stack([t, mids])
    new_tris = corners[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3)

    be = mesh.boundary_edges
    bkeys = np.minimum(be[:, 0], be[:, 1]) * n + np.maximum(be[:, 0], be[:, 1])
    bmid = n + rank[np.searchsorted(uniq, bkeys)]
    # snap the boundary midpoints exactly onto their polygon sides (a stacked
    # matmul takes each dot product as np.dot does, to the last bit)
    va, sv = mesh.polygon.vertices[be[:, 2]], mesh.polygon.side_vectors[be[:, 2]]
    s = ((all_nodes[bmid] - va)[:, None] @ sv[:, :, None]) / (sv[:, None] @ sv[:, :, None])
    all_nodes[bmid] = va + s[:, 0] * sv
    new_bedges = np.column_stack([be[:, 0], bmid, be[:, 2],
                                  bmid, be[:, 1], be[:, 2]]).reshape(-1, 3)

    return Mesh(nodes=all_nodes, triangles=new_tris, boundary_edges=new_bedges,
                vertex_map=mesh.vertex_map.copy(), polygon=mesh.polygon,
                size_fn=mesh.size_fn, level=mesh.level + 1, origin=mesh.origin, fallback=mesh.fallback)
