"""Test oracles: closed-form fields and meshes, reference entries and inputs.

None of this is part of the pipeline.  ``AnalyticSolution`` lets a test hand
the critical-point, nodal and vertex-fit code a field whose structure is
known exactly; ``structured_triangle_mesh`` gives a mesh whose lattice
carries a triangle's symmetry, so the discrete eigenproblem inherits it.
``fit_sector_coefficients`` fits a closed-form sector and
``classify_vertex`` classifies one vertex by itself, each from the
pipeline's own private steps.  The rest are inputs and measures: random and
regular polygons, a constant path, and a mesh's areas and edge lengths.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from hotspots import bessel
from hotspots.critical import _probe_count, _probe_points, _probe_radii, _vertex_entry
from hotspots.eigensolver import EigenSolution, P2Space
from hotspots.geometry import (TWO_PI, DeformationPath, GeometryError, Polygon, arc_points,
                               triangle_from_angles)
from hotspots.mesh import (Mesh, MeshingError, _SizeFunction, _check_conforming,
                           _cross2, _unique_edges, refine, triangulate)


class AnalyticSolution(EigenSolution):
    """A closed-form field f with gradient grad_f on a polygon, as a solution.

    Its P2 part interpolates f on a uniform mesh at ``h_nominal``
    (``triangulate`` at 8 h_nominal refined three times): ``coef`` is f at
    the dof points and the recovered gradient is grad_f there.  Point
    evaluation reads f and grad_f exactly, so probes and vertex fits see
    the closed form; critical points and traces are found on the P2 part.
    ``mu`` is an eigenvalue-like scale; there is no spectral gap.
    """

    def __init__(self, polygon: Polygon, mu: float, f, grad_f, *, h_nominal: float | None = None):
        if h_nominal is None:
            h_nominal = polygon.diameter / 64
        mesh = triangulate(polygon, 8 * h_nominal)
        for _ in range(3):
            mesh = refine(mesh)
        space = P2Space(mesh)
        self._f = f
        self._grad = grad_f
        super().__init__(space, float(mu), self.eval(space.dof_points()), np.inf, 0.0)

    def eval(self, pts):
        return np.asarray(self._f(pts), dtype=float)

    def eval_grad(self, pts):
        return np.asarray(self._grad(pts), dtype=float)

    @cached_property
    def _recovered(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self.eval_grad(self.space.dof_points()).T)


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
                polygon=T, size_fn=_SizeFunction(T, h))
    _check_conforming(mesh)
    return mesh


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed area of each triangle of the mesh."""
    p = mesh.nodes[mesh.triangles]
    return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def edge_lengths(mesh: Mesh) -> np.ndarray:
    """Length of each edge of the mesh, every edge once."""
    e = _unique_edges(mesh.triangles, mesh.n_nodes)
    return np.linalg.norm(mesh.nodes[e[:, 0]] - mesh.nodes[e[:, 1]], axis=1)


def regular_polygon(n: int) -> Polygon:
    """Regular n-gon of unit circumradius, its first vertex at (1, 0)."""
    th = np.linspace(0, TWO_PI, n, endpoint=False)
    return Polygon(np.column_stack([np.cos(th), np.sin(th)]))


def constant_path(P: Polygon, kind: str = "vertex-lerp") -> DeformationPath:
    """The path that stays at P for every t."""
    V = P.vertices.copy()
    return DeformationPath.from_breakpoints(kind, [0.0, 1.0], [V, V])


def random_triangle(rng: np.random.Generator) -> Polygon:
    """Triangle with vertices uniform in [-1, 1]^2 and every angle at least
    0.12 rad (400 tries)."""
    for _ in range(400):
        verts = rng.uniform(-1, 1, (3, 2))
        try:
            T = Polygon(verts)
        except GeometryError:
            continue
        if T.angles.min() >= 0.12:
            return T
    raise RuntimeError("no valid triangle found")


def random_obtuse_triangle(rng: np.random.Generator) -> Polygon:
    """Obtuse triangle with the obtuse angle in [1.66, 2.6) and both acute
    angles at least 0.26 (radians)."""
    while True:
        gamma = rng.uniform(1.66, 2.6)
        rest = math.pi - gamma
        alpha = rng.uniform(0.26, rest - 0.26)
        beta = rest - alpha
        if min(alpha, beta) < 0.26:
            continue
        # place the obtuse vertex opposite the base
        return triangle_from_angles(alpha, beta)


def fit_sector_coefficients(u_eval, mu: float, apex, alpha: float, beta: float,
                            r_in: float, r_out: float) -> bessel.BesselExpansion:
    """Least-squares Fourier-Bessel fit of c_0..c_K (K = ``bessel_K``) over a
    polar grid in a vertex frame, by the fit ``fit_coefficients`` makes.

    ``u_eval`` maps an (n,2) array of points to values; ``alpha`` is the world
    angle of the theta=0 ray.  The grid (``fit_n_radii`` radii by
    ``fit_n_theta`` angles, from ``arc_points``) takes one ``u_eval`` call.
    The expansion's ``vertex`` is -1: the sector belongs to no polygon.
    """
    radii, thetas = bessel._polar_grid(beta, r_in, r_out)
    U = u_eval(arc_points(apex, radii, alpha + thetas))
    return bessel._fit_on_grid(U, mu, beta, radii, thetas, -1)


def classify_vertex(sol, vid: int, *, absorbed=(), nearest=math.inf) -> dict:
    """One vertex's table entry, evaluated by itself: the reference for the
    entries ``find_critical_points`` builds from its one batched query.

    The fit and the probe each take one ``eval``.  ``absorbed`` (distances
    of roots absorbed into the vertex) and ``nearest`` (distance to the
    nearest side or interior critical point) size the probe through
    ``_probe_radii``, as in the search.
    """
    P = sol.polygon
    vid = vid % P.n
    expansion = bessel.fit_coefficients(sol, vid)
    locus = ("vertex", vid)
    radii = _probe_radii(sol, P.vertices[vid], locus, absorbed, nearest)
    probe = _probe_count(sol.eval(_probe_points(P, P.vertices[vid], locus, radii)), locus, radii)
    return _vertex_entry(vid, expansion, probe, absorbed)
