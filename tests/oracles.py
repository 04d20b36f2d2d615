"""Test oracles: a closed-form field posing as a solution, and a uniform mesh.

Neither is part of the pipeline.  ``AnalyticSolution`` lets a test hand the
critical-point, nodal and vertex-fit code a field whose structure is known
exactly; ``structured_triangle_mesh`` gives a mesh whose lattice carries a
triangle's symmetry, so the discrete eigenproblem inherits it.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from hotspots.eigensolver import EigenSolution, P2Space
from hotspots.geometry import Polygon
from hotspots.mesh import (Mesh, MeshingError, _SizeFunction, _check_conforming,
                           _cross2, refine, triangulate)


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
