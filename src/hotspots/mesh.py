"""Conforming graded triangulation of polygons.

The algorithm is a force-equilibrium relaxation over a Delaunay
triangulation (distmesh flavor): boundary nodes are placed exactly on the
polygon sides with spacing that follows a size function graded toward
selected vertices, interior nodes start on a hexagonal lattice and relax
under repulsive edge springs.  The contract is the mesh quality bound and
the grading, not the particular algorithm.  No random numbers are drawn: a
mesh is a pure function of the polygon, h and the grading.

Between relaxation steps the nodes move little, so ``relax`` follows the
displacement rule of distmesh (Persson & Strang, *A Simple Mesh Generator in
MATLAB*, SIAM Review 2004): it keeps the carved triangles until some node has
moved more than 0.1 of its own target size since the last triangulation,
and only then triangulates afresh.  Kept triangles only steer the spring
forces: the repair loop and the final mesh triangulate afresh.

Along a deformation path the polygons of neighbouring samples barely differ,
so ``triangulate(P, h, warm_start=mesh)`` carries a mesh of a nearby polygon
over to P instead of meshing afresh.  The warm mesh keeps its triangles,
boundary edges and vertex map; only its nodes move.  Polygon vertices go to
the new vertices, each boundary node keeps its fraction along its side, and
interior nodes follow the harmonic extension of that boundary move (one
sparse solve with the mesh's graph Laplacian over the interior nodes).
``triangulate`` meshes afresh, exactly as without a warm start, when the
vertex count or the grading differs, when a side of the warm mesh has a node
count a fresh mesh of P at h could not round to (it holds the number of
target-size segments that fit along the side; the count must be one of the
two whole numbers next to it), when a triangle turns over, or when the
minimum angle falls below the bound a fresh mesh must meet.  The count rule
keeps the density that h asks for: a polygon scaled at constant h, a coarser
warm mesh or a refined one all mesh afresh.
``Mesh.origin`` records which route built the mesh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay

from .config import DEFAULTS
from .geometry import Polygon


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


def _unique_edges(triangles: np.ndarray, n_nodes: int, *, return_inverse: bool = False,
                  return_counts: bool = False):
    """Unique edges (a < b) of a triangle list as an (E, 2) array.

    The rows come out in lexicographic order, since that is the order of the
    integer keys.  Optionally also returns, as ``np.unique`` does, the row of
    each edge in ``_edge_keys`` order and the number of triangles per edge.
    """
    out = np.unique(_edge_keys(triangles, n_nodes), return_inverse=return_inverse,
                    return_counts=return_counts)
    if not (return_inverse or return_counts):
        return np.column_stack(np.divmod(out, n_nodes))
    return (np.column_stack(np.divmod(out[0], n_nodes)),) + out[1:]


def default_grading(P: Polygon) -> np.ndarray:
    """Grading exponent per vertex: 0 for beta <= pi, 1 - pi/beta for reflex.

    Matches the r^(pi/beta) leading behavior of the eigenfunction gradient:
    only reflex corners need local refinement.
    """
    ang = P.angles
    return np.where(ang > math.pi + 1e-12, 1.0 - math.pi / ang, 0.0)


class _SizeFunction:
    """Target edge length field h * min_v clamp((r_v / diam)^g_v, floor, 1);
    ``h0``, the finest size a node gets, is the size 0.1 h off the most
    strongly graded vertex (exactly h when none is)."""

    def __init__(self, P: Polygon, h: float, grade: np.ndarray):
        self.P = P
        self.h = float(h)
        self.grade = np.asarray(grade, dtype=float)
        self.diam = P.diameter
        self.floor = 0.2
        self._graded = np.nonzero(self.grade > 1e-12)[0]
        g = self.grade[self._graded].max(initial=0.0)
        self.h0 = self.h * max(self.floor, (0.1 * self.h / self.diam) ** g)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s = np.full(len(pts), self.h)
        for i in self._graded:
            r = np.linalg.norm(pts - self.P.vertices[i], axis=1)
            fac = np.clip((r / self.diam) ** self.grade[i], self.floor, 1.0)
            s = np.minimum(s, self.h * fac)
        return s


@dataclass
class Mesh:
    nodes: np.ndarray                 # (N, 2)
    triangles: np.ndarray             # (M, 3) positive orientation
    boundary_edges: np.ndarray        # (B, 3): node a, node b, polygon side id
    vertex_map: np.ndarray            # polygon vertex -> node index
    polygon: Polygon
    h: float
    grade: np.ndarray
    size_fn: _SizeFunction = field(repr=False)
    level: int = 0                    # refinement level
    origin: str = "fresh"             # "fresh" (meshed) or "warm" (transported)

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
        return float(self.triangle_min_angles().min())

    def triangle_min_angles(self) -> np.ndarray:
        return _min_angles(self.nodes, self.triangles)

    def edges(self) -> np.ndarray:
        return _unique_edges(self.triangles, self.n_nodes)

    def edge_lengths(self) -> np.ndarray:
        e = self.edges()
        return np.linalg.norm(self.nodes[e[:, 0]] - self.nodes[e[:, 1]], axis=1)

    def h_at(self, points) -> np.ndarray:
        """Local target size at the given points (scaled by refinement level)."""
        return self.size_fn(points) / (2 ** self.level)

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
    side's node count is that number rounded)."""
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
        totals[i] = total
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


def triangulate(P: Polygon, h: float, grade=None, *, warm_start: Mesh | None = None) -> Mesh:
    """Graded conforming triangulation with a minimum-angle quality bound.

    With ``warm_start``, the nodes of that mesh (of a nearby polygon, meshed
    at a comparable h) are carried onto P and its connectivity is kept; the
    module docstring gives the transport and the cases that mesh afresh
    instead.  ``h``, ``grade`` and the size function are set as without a
    warm start, and the quality bound is the same.
    """
    if h <= 0:
        raise MeshingError("h must be positive")
    if grade is None:
        grade = default_grading(P)
    grade = np.asarray(grade, dtype=float)
    if grade.shape != (P.n,):
        raise MeshingError("grade must give one exponent per polygon vertex")
    # corner elements cannot beat the polygon's own sharpest angle; thin-wedge
    # ladders realize a fixed fraction of it
    min_angle = min(DEFAULTS.mesh_quality_min_angle, 0.9 * math.degrees(float(P.angles.min())))

    h = min(h, 0.9 * float(P.side_lengths.min()))
    size = _SizeFunction(P, h, grade)
    stations, segments = _boundary_stations(P, size)
    if warm_start is not None:
        mesh = _transported(warm_start, P, h, grade, size, segments, min_angle)
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
            force = np.zeros_like(pts)
            np.add.at(force, e[:, 0], Fvec)
            np.add.at(force, e[:, 1], -Fvec)
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

    boundary_edges = _boundary_chain(P, side_station_idx, remap)
    mesh = Mesh(nodes=pts, triangles=t, boundary_edges=boundary_edges,
                vertex_map=remap[np.arange(P.n)], polygon=P, h=h, grade=grade,
                size_fn=size)
    _check_conforming(mesh)
    return mesh


def _transported(warm: Mesh, P: Polygon, h: float, grade: np.ndarray,
                 size: _SizeFunction, segments: np.ndarray,
                 min_angle: float) -> Mesh | None:
    """``warm`` with its nodes carried onto P, or None when the transport does
    not apply or breaks the quality bound.

    ``segments[i]`` is the number of target-size segments that fit along side
    i of P; a fresh mesh gives the side that number rounded.  The transport
    applies only when each side of ``warm`` has one of the two whole numbers
    next to it, so the carried mesh keeps the node density ``h`` asks for.
    """
    if warm.polygon.n != P.n or not np.array_equal(warm.grade, grade):
        return None
    if np.any(np.abs(np.bincount(warm.boundary_edges[:, 2], minlength=P.n) - segments) >= 1):
        return None
    W, t = warm.polygon, warm.triangles
    # every boundary node starts exactly one chain edge
    bnd, sid = warm.boundary_edges[:, 0], warm.boundary_edges[:, 2]
    sv = W.side_vectors[sid]
    frac = np.sum((warm.nodes[bnd] - W.vertices[sid]) * sv, axis=1) / np.sum(sv * sv, axis=1)
    nodes = warm.nodes.copy()
    nodes[bnd] = P.vertices[sid] + frac[:, None] * P.side_vectors[sid]
    nodes[warm.vertex_map] = P.vertices
    inner = np.ones(len(nodes), dtype=bool)
    inner[bnd] = False
    if inner.any():
        n = len(nodes)
        e = warm.edges()
        adj = sp.csr_matrix((np.ones(2 * len(e)), (e.T.ravel(), e[:, ::-1].T.ravel())),
                            shape=(n, n))
        lap = (sp.diags(np.bincount(e.ravel(), minlength=n).astype(float)) - adj).tocsr()
        inner_ids = np.nonzero(inner)[0]
        rhs = -(lap[inner_ids][:, bnd] @ (nodes[bnd] - warm.nodes[bnd]))
        nodes[inner_ids] += splu(lap[inner_ids][:, inner_ids].tocsc()).solve(rhs)
    p = nodes[t]
    if (np.any(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) <= 0)
            or _min_angles(nodes, t).min() < min_angle):
        return None
    mesh = Mesh(nodes=nodes, triangles=t.copy(), boundary_edges=warm.boundary_edges.copy(),
                vertex_map=warm.vertex_map.copy(), polygon=P, h=h, grade=grade,
                size_fn=size, origin="warm")
    _check_conforming(mesh)
    return mesh


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


def _boundary_chain(P: Polygon, side_station_idx, remap) -> np.ndarray:
    rows = []
    for i in range(P.n):
        chain = [i] + list(side_station_idx[i]) + [(i + 1) % P.n]
        chain = [int(remap[c]) for c in chain]
        for a, b in zip(chain[:-1], chain[1:]):
            rows.append((a, b, i))
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


def structured_triangle_mesh(T: Polygon, k: int) -> Mesh:
    """Uniform barycentric k^2-subdivision of a triangle.

    The node lattice is invariant under any symmetry of the triangle, so for
    an isosceles triangle the discrete problem inherits the reflection
    exactly.  Sub-triangles are similar to T: quality equals the triangle's
    own minimum angle.
    """
    if T.n != 3:
        raise MeshingError("structured mesh requires a triangle")
    if k < 1:
        raise MeshingError("k must be >= 1")
    v0, v1, v2 = T.vertices

    index = {}
    nodes = []
    for i in range(k + 1):          # lambda1 = i/k
        for j in range(k + 1 - i):  # lambda2 = j/k
            index[(i, j)] = len(nodes)
            lam0 = (k - i - j) / k
            nodes.append(lam0 * v0 + (i / k) * v1 + (j / k) * v2)
    nodes = np.asarray(nodes)

    tris = []
    for i in range(k):
        for j in range(k - i):
            a, b, c = index[(i, j)], index[(i + 1, j)], index[(i, j + 1)]
            tris.append((a, b, c))
            if i + j < k - 1:
                d = index[(i + 1, j + 1)]
                tris.append((b, d, c))
    tris = np.asarray(tris, dtype=int)
    p = nodes[tris]
    areas = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = areas < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    bedges = []
    for s, chain in enumerate((
            [index[(i, 0)] for i in range(k + 1)],                       # v0 -> v1
            [index[(k - j, j)] for j in range(k + 1)],                   # v1 -> v2
            [index[(0, k - i)] for i in range(k + 1)])):                 # v2 -> v0
        for a, b in zip(chain[:-1], chain[1:]):
            bedges.append((a, b, s))
    h = float(T.side_lengths.max()) / k
    mesh = Mesh(nodes=nodes, triangles=tris,
                boundary_edges=np.asarray(bedges, dtype=int),
                vertex_map=np.array([index[(0, 0)], index[(k, 0)], index[(0, k)]]),
                polygon=T, h=h, grade=np.zeros(3),
                size_fn=_SizeFunction(T, h, np.zeros(3)))
    _check_conforming(mesh)
    return mesh


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
                h=mesh.h / 2, grade=mesh.grade, size_fn=mesh.size_fn,
                level=mesh.level + 1, origin=mesh.origin)
