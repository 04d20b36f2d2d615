"""Planar polygon model: angles, sides, Lip-1 classification, deformation paths.

All polygons are simple closed chains stored counterclockwise.  Vertices with
interior angle exactly pi are legal and are kept in the data model (they arise
as the endpoints of breaking families and as collapsed corners of reduction
paths).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .config import DEFAULTS

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    pass


class NotLip1Error(GeometryError):
    pass


class OrthogonalSidesError(GeometryError):
    pass


class ReductionFailure(GeometryError):
    """No collapsible same-class vertex pair could be found."""


def _as_points(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise GeometryError(f"expected an (n,2) vertex array with n >= 3, got {v.shape}")
    return v


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def arc_points(center, radii, phis) -> np.ndarray:
    """Points center + r (cos phi, sin phi), radius-major: the arc of
    radii[0] first, each arc in the order of ``phis``."""
    ray = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    r = np.asarray(radii, dtype=float)[:, None, None]
    return (np.asarray(center, dtype=float) + r * ray).reshape(-1, 2)


def _signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


class Polygon:
    """Simple counterclockwise polygon with derived side and angle data."""

    def __init__(self, vertices):
        v = _as_points(vertices)
        if _signed_area(v) < 0:
            v = v[::-1].copy()
        self._v = v
        self._v.setflags(write=False)
        self._validate()

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {"vertices": [[float(x), float(y)] for x, y in self._v]}

    # -- basic quantities ------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        return self._v

    @property
    def n(self) -> int:
        return len(self._v)

    @property
    def area(self) -> float:
        return _signed_area(self._v)

    @cached_property
    def diameter(self) -> float:
        v = self._v
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return math.sqrt(float(d2.max()))

    @property
    def centroid(self) -> np.ndarray:
        return self._v.mean(axis=0)

    # side and angle data are computed once per polygon and handed out read-only
    @cached_property
    def side_vectors(self) -> np.ndarray:
        return _read_only(np.roll(self._v, -1, axis=0) - self._v)

    @cached_property
    def side_lengths(self) -> np.ndarray:
        return _read_only(np.linalg.norm(self.side_vectors, axis=1))

    @cached_property
    def side_tangents(self) -> np.ndarray:
        return _read_only(self.side_vectors / self.side_lengths[:, None])

    @cached_property
    def _side_lengths_sq(self) -> np.ndarray:
        sv = self.side_vectors
        return _read_only(np.sum(sv * sv, axis=1))

    @cached_property
    def side_normals(self) -> np.ndarray:
        # outward for a CCW polygon
        t = self.side_tangents
        return _read_only(np.column_stack([t[:, 1], -t[:, 0]]))

    @cached_property
    def angles(self) -> np.ndarray:
        """Interior angle at each vertex, in (0, 2*pi)."""
        v = self._v
        a = np.roll(v, 1, axis=0) - v    # toward previous vertex
        b = np.roll(v, -1, axis=0) - v   # toward next vertex
        cross = b[:, 0] * a[:, 1] - b[:, 1] * a[:, 0]
        dot = np.sum(a * b, axis=1)
        ang = np.arctan2(cross, dot)
        return _read_only(np.where(ang <= 0, ang + TWO_PI, ang))

    def vertex_frame(self, i: int) -> tuple[np.ndarray, float, float]:
        """Local polar frame at vertex i.

        Returns (apex, alpha, beta): theta=0 points along the side toward the
        next vertex (world direction alpha), theta=beta along the side toward
        the previous vertex; the interior occupies 0 < theta < beta.
        """
        v = self._v
        j = i % self.n
        d = v[(j + 1) % self.n] - v[j]
        alpha = math.atan2(d[1], d[0])
        return v[j].copy(), alpha, float(self.angles[j])

    # -- predicates ------------------------------------------------------------
    def _validate(self):
        v = self._v
        n = self.n
        diam = self.diameter
        if diam == 0:
            raise GeometryError("degenerate polygon: zero diameter")
        seps = self.side_lengths
        if np.any(seps < DEFAULTS.eps_geom * diam):
            raise GeometryError("degenerate polygon: coincident consecutive vertices")
        ang = self.angles
        if np.any(~np.isfinite(ang)) or np.any(ang <= 0) or np.any(ang >= TWO_PI):
            raise GeometryError("invalid interior angle")
        turn = float(np.sum(math.pi - ang))
        if abs(turn - TWO_PI) > 1e-9:
            raise GeometryError(f"turning-number identity violated: sum(pi - beta) = {turn}")
        for i in range(n):
            p1, p2 = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                q1, q2 = v[j], v[(j + 1) % n]
                if _segments_properly_intersect(p1, p2, q1, q2):
                    raise GeometryError(f"self-intersecting chain: sides {i} and {j} cross")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Whether each of the (n, 2) points lies inside, by the vectorized
        crossing number; a point on the boundary may read either way."""
        v = self._v
        n = self.n
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        for i in range(n):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % n]
            crosses = (y0 > y) != (y1 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = (x1 - x0) * (y - y0) / (y1 - y0) + x0
            inside ^= crosses & (x < xint)
        return inside

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Unsigned distance from each of the (n, 2) points to the boundary."""
        v = self._v
        sv = self.side_vectors
        d = pts[:, None, :] - v[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", d, sv) / self._side_lengths_sq[None, :], 0.0, 1.0)
        proj = v[None, :, :] + t[:, :, None] * sv[None, :, :]
        dist = np.linalg.norm(pts[:, None, :] - proj, axis=2)
        return dist.min(axis=1)

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        """Negative inside, positive outside, for each of the (n, 2) points."""
        return np.where(self.contains(pts), -1.0, 1.0) * self.boundary_distance(pts)

    # -- side geometry ----------------------------------------------------------
    def side_point(self, i: int, s: float) -> np.ndarray:
        """Point at arclength fraction s in [0,1] along side i."""
        v = self._v
        return v[i % self.n] + s * (v[(i + 1) % self.n] - v[i % self.n])

    def distance_to_side(self, point, i: int) -> float:
        p = np.asarray(point, dtype=float)
        a = self._v[i % self.n]
        sv = self.side_vectors[i % self.n]
        t = np.clip(np.dot(p - a, sv) / np.dot(sv, sv), 0.0, 1.0)
        return float(np.linalg.norm(p - (a + t * sv)))

    @cached_property
    def vertex_clearance(self) -> np.ndarray:
        """Each vertex's distance to the nearest side not adjacent to it,
        capped by the two adjacent side lengths (vertex fits and probes)."""
        L, n = self.side_lengths, self.n
        return _read_only(np.array([
            min(L[i], L[i - 1], *(self.distance_to_side(v, j) for j in range(i + 1, i + n - 1)))
            for i, v in enumerate(self._v)]))

    def effective_sides(self) -> list[list[int]]:
        """Maximal runs of sides separated only by angle-pi vertices.

        Returns lists of side indices; each run is a straight portion of the
        boundary bounded by genuine (angle != pi) vertices.
        """
        ang = self.angles
        n = self.n
        genuine = [i for i in range(n) if abs(ang[i] - math.pi) > DEFAULTS.angle_tol]
        if not genuine:
            raise GeometryError("all angles equal pi")
        runs = []
        for k, i in enumerate(genuine):
            j = genuine[(k + 1) % len(genuine)]
            run = []
            s = i
            while True:
                run.append(s)
                s = (s + 1) % n
                if s == j:
                    break
            runs.append(run)
        return runs

    def __repr__(self):
        return f"Polygon(n={self.n}, area={self.area:.6g})"


class DeformationPath:
    """Family t -> Polygon on [0,1] with a fixed vertex correspondence."""

    def __init__(self, kind: str, vertex_fn: Callable[[float], np.ndarray], *,
                 breakpoints: tuple[np.ndarray, list[np.ndarray]] | None = None,
                 params: dict | None = None):
        self.kind = kind
        self._fn = vertex_fn
        self.breakpoints = breakpoints
        self.params = params or {}
        self.n_vertices = len(vertex_fn(0.0))

    @staticmethod
    def from_breakpoints(kind: str, ts, vertex_arrays, params=None) -> "DeformationPath":
        ts = np.asarray(ts, dtype=float)
        vs = [np.asarray(V, dtype=float) for V in vertex_arrays]
        if len(ts) != len(vs) or len(ts) < 2:
            raise GeometryError("need matching ts / vertex arrays with at least 2 breakpoints")
        if any(V.shape != vs[0].shape for V in vs):
            raise GeometryError("vertex count must be fixed along a path")

        def fn(t: float) -> np.ndarray:
            t = min(max(float(t), ts[0]), ts[-1])
            k = int(np.searchsorted(ts, t, side="right") - 1)
            k = min(k, len(ts) - 2)
            s = (t - ts[k]) / (ts[k + 1] - ts[k])
            return (1 - s) * vs[k] + s * vs[k + 1]

        return DeformationPath(kind, fn, breakpoints=(ts, vs), params=params)

    @staticmethod
    def constant(P: Polygon, kind: str = "vertex-lerp") -> "DeformationPath":
        V = P.vertices.copy()
        return DeformationPath.from_breakpoints(kind, [0.0, 1.0], [V, V])

    def polygon_at(self, t: float) -> Polygon:
        return Polygon(self._fn(t))

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "n_vertices": self.n_vertices, "params": dict(self.params)}
        if self.breakpoints is not None:
            ts, vs = self.breakpoints
            d["breakpoints"] = {"t": [float(t) for t in ts],
                                "vertices": [[[float(x), float(y)] for x, y in V] for V in vs]}
        return d


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Lip1Result:
    is_lip1: bool
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None
    partition_count: int = 0


def lip1_classify(P: Polygon) -> Lip1Result:
    """Decide whether P is isometric to a Lip-1 domain.

    Searches every contiguous bipartition of the cyclic side list for one
    where outward normals satisfy n.n' >= 0 within a class and <= 0 across
    classes.  The partition witness is the first one found in side order;
    the criterion does not single out a unique partition, so the number of
    valid bipartitions is reported as well.  Each class of a bipartition is
    a contiguous arc, so the search meets every bipartition twice, once from
    each class.  The sign tests allow a slack of ``DEFAULTS.lip1_tol``.
    """
    tol = DEFAULTS.lip1_tol
    N = P.side_normals
    n = P.n
    D = N @ N.T
    first = None
    count = 0
    for start in range(n):
        for length in range(1, n):
            a = tuple(sorted((start + k) % n for k in range(length)))
            b = tuple(i for i in range(n) if i not in a)
            ia, ib = np.array(a), np.array(b)
            ok = (np.all(D[np.ix_(ia, ia)] >= -tol)
                  and np.all(D[np.ix_(ib, ib)] >= -tol)
                  and np.all(D[np.ix_(ia, ib)] <= tol))
            if ok:
                count += 1
                if first is None:
                    first = (a, b)
    return Lip1Result(first is not None, first, count // 2)


def orthogonal_side_pairs(P: Polygon) -> list[tuple[int, int]]:
    """Pairs of sides whose normals are orthogonal within ``DEFAULTS.tau_orth``."""
    N = P.side_normals
    D = N @ N.T
    out = []
    for i in range(P.n):
        for j in range(i + 1, P.n):
            if abs(D[i, j]) <= DEFAULTS.tau_orth:
                out.append((i, j))
    return out


def _runs_with_normals(P: Polygon):
    runs = P.effective_sides()
    normals = np.array([P.side_normals[r[0]] for r in runs])
    return runs, normals


def lip1_reduction_path(P: Polygon) -> DeformationPath:
    """Path from P to an obtuse triangle through Lip-1 polygons.

    Repeatedly picks two adjacent same-class effective sides with distinct
    normals and moves their shared vertex to the midpoint of the segment
    joining their far endpoints, which straightens the corner into an
    angle-pi vertex.  Angle-pi vertices created earlier ride along their
    straight runs so the vertex count stays fixed.  Nine evenly spaced
    polygons of every leg are re-checked for the Lip-1 property and for
    absence of orthogonal sides.
    """
    res = lip1_classify(P)
    if not res.is_lip1:
        raise NotLip1Error("polygon is not Lip-1")
    if orthogonal_side_pairs(P):
        raise OrthogonalSidesError("polygon has two orthogonal sides")

    ts = [0.0]
    breaks = [P.vertices.copy()]
    work = P
    guard = 0
    while len(work.effective_sides()) > 3:
        guard += 1
        if guard > work.n + 4:
            raise ReductionFailure("reduction did not terminate")
        runs, normals = _runs_with_normals(work)
        cls = lip1_classify(work)
        if not cls.is_lip1:
            raise ReductionFailure("intermediate polygon lost the Lip-1 property")
        # map side classes to effective runs (every side in a run shares a normal)
        side_class = {}
        ga, gb = cls.partition
        for s in ga:
            side_class[s] = 0
        for s in gb:
            side_class[s] = 1
        m = len(runs)
        pick = None
        for k in range(m):
            k2 = (k + 1) % m
            if side_class[runs[k][0]] != side_class[runs[k2][0]]:
                continue
            if abs(float(np.dot(normals[k], normals[k2]))) > 1.0 - 1e-12:
                continue  # identical normals: nothing to collapse
            pick = (k, k2)
            break
        if pick is None:
            raise ReductionFailure("no adjacent same-class side pair with distinct normals")
        k, k2 = pick
        n = work.n
        # far endpoints of the two runs; shared genuine vertex between them
        a_idx = runs[k][0]                      # run k spans sides runs[k]
        shared_idx = (runs[k][-1] + 1) % n      # genuine vertex between the runs
        b_idx = (runs[k2][-1] + 1) % n
        V0 = work.vertices.copy()
        a, b = V0[a_idx], V0[b_idx]
        target = 0.5 * (a + b)

        # fractions of intermediate (angle-pi) vertices along each moving run
        def chain(run):
            return [(run[j] + 1) % n for j in range(len(run) - 1)]

        chain1, chain2 = chain(runs[k]), chain(runs[k2])
        v0 = V0[shared_idx]
        f1 = [np.linalg.norm(V0[c] - a) / np.linalg.norm(v0 - a) for c in chain1]
        f2 = [np.linalg.norm(V0[c] - v0) / np.linalg.norm(b - v0) for c in chain2]

        V1 = V0.copy()
        V1[shared_idx] = target
        for c, s in zip(chain1, f1):
            V1[c] = a + s * (target - a)
        for c, s in zip(chain2, f2):
            V1[c] = target + s * (b - target)

        leg = DeformationPath.from_breakpoints("vertex-lerp", [0.0, 1.0], [V0, V1])
        for t in np.linspace(0.0, 1.0, 9):
            Q = leg.polygon_at(t)
            if not lip1_classify(Q).is_lip1:
                raise ReductionFailure(f"Lip-1 lost at leg parameter {t}")
            if orthogonal_side_pairs(Q):
                raise ReductionFailure(f"orthogonal sides at leg parameter {t}")
        ts.append(float(len(ts)))
        breaks.append(V1)
        work = Polygon(V1)

    if len(breaks) == 1:
        # already a triangle: constant path of length-0 reduction
        breaks.append(breaks[0].copy())
        ts.append(1.0)
    ts = np.asarray(ts)
    if ts[-1] > 0:
        ts = ts / ts[-1]
    path = DeformationPath.from_breakpoints("lip1-reduction", ts, breaks,
                                            params={"n_legs": len(breaks) - 1})
    return path


def break_triangle(T: Polygon, e: int, w, eps: float) -> Polygon:
    """Quadrilateral from displacing an interior point of side e outward by eps.

    The result is the convex hull of the three triangle vertices and the
    displaced point; eps = 0 yields the triangle itself carrying an angle-pi
    vertex at w.
    """
    if T.n != 3:
        raise GeometryError("break_triangle expects a triangle")
    if eps < 0:
        raise GeometryError("eps must be nonnegative")
    e = e % 3
    w = np.asarray(w, dtype=float)
    a, b = T.vertices[e], T.vertices[(e + 1) % 3]
    sv = b - a
    t = float(np.dot(w - a, sv) / np.dot(sv, sv))
    if T.distance_to_side(w, e) > 1e-9 * T.diameter:
        raise GeometryError("w must lie on side e")
    lo = 1e-9
    if not (lo < t < 1 - lo):
        raise GeometryError("w must lie strictly inside side e")
    n_w = T.side_normals[e]
    w_eps = w + eps * n_w
    V = np.insert(T.vertices, e + 1, w_eps, axis=0)
    Q = Polygon(V)
    if np.any(Q.angles > math.pi + DEFAULTS.angle_tol):
        raise GeometryError("eps too large: hull description loses convexity")
    return Q


def breaking_family(T: Polygon, e: int, w_path, eps: float) -> DeformationPath:
    """Family t -> Q(T, w_t, eps*sin(pi t)) of broken triangles.

    ``w_path`` is either a callable t -> point on side e or a pair (w0, w1)
    interpolated linearly along the side.  Endpoints are the triangle itself,
    represented as a quadrilateral with an angle-pi vertex.
    """
    if T.n != 3:
        raise GeometryError("breaking_family expects a triangle")
    e = e % 3
    if callable(w_path):
        wfn = w_path
    else:
        w0 = np.asarray(w_path[0], dtype=float)
        w1 = np.asarray(w_path[1], dtype=float)
        wfn = lambda t: (1 - t) * w0 + t * w1

    a = T.vertices[e]
    sv = T.side_vectors[e]
    ll = float(np.dot(sv, sv))

    def vertex_fn(t: float) -> np.ndarray:
        w = np.asarray(wfn(t), dtype=float)
        s = float(np.dot(w - a, sv) / ll)
        if not (1e-9 < s < 1 - 1e-9):
            raise GeometryError(f"w path leaves the interior of side {e} at t={t}")
        w = a + s * sv  # snap to the side exactly
        eps_t = eps * math.sin(math.pi * t)
        return np.insert(T.vertices, e + 1, w + eps_t * T.side_normals[e], axis=0)

    return DeformationPath("breaking", vertex_fn,
                           params={"eps": float(eps), "side": int(e)})


# ---------------------------------------------------------------------------
# canonical shapes
# ---------------------------------------------------------------------------

def regular_polygon(n: int) -> Polygon:
    th = np.linspace(0, TWO_PI, n, endpoint=False)
    return Polygon(np.column_stack([np.cos(th), np.sin(th)]))


def unit_square() -> Polygon:
    return Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])


def rectangle(a: float, b: float) -> Polygon:
    return Polygon([[0, 0], [a, 0], [a, b], [0, b]])


def equilateral_triangle() -> Polygon:
    return Polygon([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])


def isosceles_triangle(apex_angle: float) -> Polygon:
    """Isosceles triangle with the given apex angle and base [0, 1] on the x-axis."""
    if not (0 < apex_angle < math.pi):
        raise GeometryError("apex angle must lie in (0, pi)")
    height = 0.5 / math.tan(apex_angle / 2)
    return Polygon([[0, 0], [1, 0], [0.5, height]])


def triangle_from_angles(alpha: float, beta: float) -> Polygon:
    """Triangle with angles alpha at (0,0) and beta at (1,0)."""
    gamma = math.pi - alpha - beta
    if min(alpha, beta, gamma) <= 0:
        raise GeometryError("angles must sum to less than pi")
    x = math.tan(beta) / (math.tan(alpha) + math.tan(beta))
    y = x * math.tan(alpha)
    return Polygon([[0, 0], [1, 0], [x, y]])
