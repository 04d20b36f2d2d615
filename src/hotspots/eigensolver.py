"""Neumann Laplacian eigenpairs on a triangulated polygon.

Quadratic Lagrange elements (so gradients are affine inside each triangle),
assembled from reference-element tensors; generalized eigensolve via
shift-invert Lanczos with the constant mode deflated; batched point
evaluation of u and grad u with a kd-tree locator.

The locator is exact.  Every element's centroid lies within ``_reach`` (the
largest centroid-to-corner distance of the mesh) of any point the element
holds, so a point is tested against its nearest centroid first, then its
nearest 8 and eightfold more, until one element holds it or the next
centroid lies out of reach.  A point that no element holds is off the mesh:
``eval`` and ``eval_grad`` give NaN there, and callers test for it with
``np.isfinite``.

The shift-invert operator is a factor of A = K - sigma M with sigma =
-mu_scale / 4 < 0.  K is positive semidefinite and M positive definite, so
A is symmetric positive definite and needs no pivoting.  It takes one of two
routes, by the dof count alone:

- a mesh of at most ``_BAND_MAX_DOFS`` dofs is factored as a band: A in
  reverse Cuthill-McKee order (Cuthill & McKee 1969; George & Liu 1981) by
  LAPACK's banded Cholesky, ``pbtrf``, and each application is one
  ``pbtrs``;
- a larger mesh is factored by SuperLU with its diagonal pivots taken as
  they come, in a nested-dissection order of the mesh (George 1973): k-d
  tree bisection of the elements, each separator's dofs after both halves
  it separates.  On a planar mesh this keeps the factor near O(n log n); at
  83k dofs it holds about 56 % of the fill of SciPy's default column order
  and factors in about a third of the time.

``_BAND_MAX_DOFS`` = 3000 is the crossover of a sweep over fresh meshes of
four polygons (two graded: an L and a reflex pentagon), each row the median
of 15 runs of one factor and 15 solves, band against SuperLU, with the
order already built (single-threaded BLAS, 2-core x86-64, SciPy 1.17.1):

    dofs   polygon   band ms   SuperLU ms
     525   L           0.79       1.88
     910   isosceles   1.45       2.78
    1923   reflex      4.03       5.55
    2361   L           5.82       8.66
    2931   isosceles   8.06       9.49
    3221   L          12.06      12.35
    3972   reflex     12.34      13.20
    4851   L          21.39      19.68
    6147   reflex     33.98      24.51

With each route's order built afresh in every run, as a fresh mesh pays it,
the band wins by the same margins below 3000 dofs and ties near 3200.

What depends on the mesh's connectivity alone is kept in a ``_P2Structure``
on its connectivity record (``mesh``), which a plain carry shares with its
warm mesh: the edge and dof map, the band layout (the reverse Cuthill-McKee
order and the place of each of K's lower-triangle entries in the band) or
the dissection order (computed from the geometry of the mesh that made the
record, so it does not depend on which mesh of a chain is solved first)
and, once the record is shared, the CSR pattern of K and M with the order
and slot in which SciPy's COO to CSR conversion sums each element entry.  A
mesh whose record no other mesh shares (every mesh of ``fine`` and
``corpus``) converts from COO, because at 113k dofs the pattern costs 118
ms and its scatter 78 ms against 105 ms for two conversions; the shared
pattern gives K and M bit for bit, so the route never changes a result and
``solve_second(mesh)`` depends on the mesh and its record alone.

The eigensolve is a plain shift-invert Lanczos loop (Ericsson & Ruhe 1980)
on OP = A^-1 M, which is self-adjoint in the M inner product; its largest
eigenvalues theta = 1 / (mu - sigma) belong to the smallest mu, found from
the tridiagonal projection by LAPACK's ``stevd``.  The
constant mode is projected out of the start vector and of every
application, and each new vector is M-orthogonalized against the whole basis
twice (classical Gram-Schmidt), so the Ritz values stay clean of spurious
copies.  The loop stops as soon as mu_2 and mu_3 have converged and the
residual the solution reports meets ``solver_tol``: about 14 applications at 83k
dofs, where ARPACK's default 20-vector basis took 21.  M V is kept beside
the basis V (80 vectors at most), so each application costs one solve and
one product with M; at 83k dofs the two blocks do not raise the peak
resident size, which the factorization sets.  Without convergence a mesh of
at most 4000 dofs falls back to a dense generalized eigensolve.

The recovered gradient (the L2 projection of grad u_h onto the P2 space)
solves M g = b by conjugate gradients preconditioned with diag(M), to a
relative residual of 1e-13 within 200 iterations, and raises SolverError
otherwise.  No factorization is needed: each element mass matrix is
detJ times one reference matrix, so diag(M)^-1 M has a spectrum bounded
by constants of the reference element whatever the mesh size or grading
(Wathen 1987), and the iteration count does not grow under refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial import cKDTree

from .config import DEFAULTS
from .geometry import Polygon, _read_only
from .mesh import Mesh, _unique_edges


class SolverError(RuntimeError):
    pass


# quadrature on the reference triangle (0,0)-(1,0)-(0,1); weights sum to 1/2
_QP3 = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_QW3 = np.array([1 / 6, 1 / 6, 1 / 6])

_a1, _b1 = 0.059715871789770, 0.470142064105115
_a2, _b2 = 0.797426985353087, 0.101286507323456
_QP7 = np.array([
    [1 / 3, 1 / 3],
    [_b1, _b1], [_a1, _b1], [_b1, _a1],
    [_b2, _b2], [_a2, _b2], [_b2, _a2],
])
_QW7 = 0.5 * np.array([9 / 40,
                       0.132394152788506, 0.132394152788506, 0.132394152788506,
                       0.125939180544827, 0.125939180544827, 0.125939180544827])


def _p2_values(x, y):
    """Shape functions at reference coordinates; returns (..., 6)."""
    l0 = 1.0 - x - y
    return np.stack([
        l0 * (2 * l0 - 1), x * (2 * x - 1), y * (2 * y - 1),
        4 * l0 * x, 4 * x * y, 4 * y * l0,
    ], axis=-1)


def _p2_grads(x, y):
    """Reference gradients; returns (..., 6, 2)."""
    l0 = 1.0 - x - y
    z = np.zeros_like(x)
    gx = np.stack([1 - 4 * l0, 4 * x - 1, z, 4 * (l0 - x), 4 * y, -4 * y], axis=-1)
    gy = np.stack([1 - 4 * l0, z, 4 * y - 1, -4 * x, 4 * x, 4 * (l0 - y)], axis=-1)
    return np.stack([gx, gy], axis=-1)


# Reference-element tensors.  The 3-point edge-midpoint rule is exact for the
# quadratic products of P2 gradients, the 7-point rule for mass (quartic) and
# gradient-recovery (cubic) integrands.
_GREF = _p2_grads(_QP3[:, 0], _QP3[:, 1])                              # (3,6,2)
_V7 = _p2_values(_QP7[:, 0], _QP7[:, 1])                               # (7,6)
# stiffness: S[(a,b),(i,j)] = sum_q w_q dphi_i/dxi_a dphi_j/dxi_b
_S_REF = np.einsum("q,qia,qjb->abij", _QW3, _GREF, _GREF).reshape(4, 36)
_M_REF = np.einsum("q,qi,qj->ij", _QW7, _V7, _V7)                      # (6,6)
# recovery moments: int phi_i (1, xi_0, xi_1) over the reference triangle
_W = np.einsum("q,qi,qk->ki", _QW7, _V7, np.column_stack([np.ones(7), _QP7]))   # (3,6)
# reference gradient r0 + A xi of u_h = sum_i c_i phi_i, as c @ _G_AFFINE:
# columns (r0_a, A_a0, A_a1) for a = 0, 1, read off the three corners
_G_CORNERS = _p2_grads(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))   # (3,6,2)
_G_AFFINE = np.stack([_G_CORNERS[0], *(_G_CORNERS[1:] - _G_CORNERS[0])], axis=-1).reshape(6, 6)


class P2Space:
    """Quadratic Lagrange space on a mesh: dof map, assembly, point evaluation."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        record = mesh._connectivity
        if record.p2 is None:
            record.p2 = _P2Structure(record.nodes, record.triangles)
        self._structure = record.p2
        self.edge_nodes, self.dof = self._structure.edge_nodes, self._structure.dof
        self.ndof = mesh.n_nodes + len(self.edge_nodes)
        p = mesh.nodes[mesh.triangles]
        self.J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (m,2,2)
        self.detJ = self.J[:, 0, 0] * self.J[:, 1, 1] - self.J[:, 0, 1] * self.J[:, 1, 0]
        self.Jinv = np.empty_like(self.J)
        self.Jinv[:, 0, 0] = self.J[:, 1, 1]
        self.Jinv[:, 0, 1] = -self.J[:, 0, 1]
        self.Jinv[:, 1, 0] = -self.J[:, 1, 0]
        self.Jinv[:, 1, 1] = self.J[:, 0, 0]
        self.Jinv /= self.detJ[:, None, None]
        cent = p.mean(axis=1)
        self._tree = cKDTree(cent)
        self._p0 = p[:, 0]
        # the centroid of an element that holds a point lies within _reach
        # of it: the largest centroid-to-corner distance, padded for slack
        d = p - cent[:, None]
        self._reach = (1 + 1e-6) * math.sqrt(np.einsum("mka,mka->mk", d, d).max())

    def dof_points(self) -> np.ndarray:
        nodes = self.mesh.nodes
        mids = 0.5 * (nodes[self.edge_nodes[:, 0]] + nodes[self.edge_nodes[:, 1]])
        return np.vstack([nodes, mids])

    # -- assembly ---------------------------------------------------------------
    def assemble(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """K and M on one CSR pattern, from SciPy's COO to CSR conversion.
        On a connectivity record that a chain shares, the element entries
        are summed into the record's copy of that conversion instead
        (``_P2Structure.pattern``), with the same result bit for bit."""
        Jinv, detJ = self.Jinv, self.detJ
        # Ke = sum_ab C_ab S_ab with C = detJ Jinv Jinv^T; Me = detJ M_ref
        C = detJ[:, None, None] * (Jinv @ Jinv.transpose(0, 2, 1))
        Ke = C.reshape(-1, 4) @ _S_REF                                 # (m,36)
        Me = detJ[:, None] * _M_REF.ravel()                            # (m,36)
        shape = (self.ndof, self.ndof)
        if not self.mesh._connectivity.shared:
            rows, cols = _element_rows_cols(self.dof)
            return (sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=shape).tocsr(),
                    sp.coo_matrix((Me.ravel(), (rows, cols)), shape=shape).tocsr())
        order, slots, indices, indptr = self._structure.pattern
        return tuple(sp.csr_matrix((np.bincount(slots, E.ravel()[order], len(indices)),
                                    indices, indptr), shape=shape) for E in (Ke, Me))

    @cached_property
    def matrices(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        return self.assemble()

    def project_gradient(self, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L2 projection of grad u_h onto the P2 space (continuous recovery).

        The right-hand side is exact: on each element detJ Jinv^T (r0 + A xi)
        is affine, so its moments against the shape functions are the
        reference moments of (1, xi_0, xi_1) applied to detJ Jinv^T (r0 | A):
        one (2m, 3) by (3, 6) matrix product.  Each component of M g = b is
        solved by conjugate gradients preconditioned with 1/diag(M), to a
        relative residual of 1e-13 within 200 iterations (24 to 29 from 57 to
        83k dofs, graded or not: see the module docstring); SolverError is
        raised when CG stops short.
        """
        rA = self._reference_gradients(coef)                 # (r0 | A), (m,2,3)
        DJ = self.detJ[:, None, None] * self.Jinv
        pq = DJ.transpose(0, 2, 1) @ rA                     # detJ Jinv^T (r0 | A)
        be = (pq.reshape(-1, 3) @ _W).reshape(-1, 2, 6)     # moments, (m,2,6)
        _, M = self.matrices
        jacobi = sp.diags(1.0 / M.diagonal())
        out = []
        for a in range(2):
            b = np.bincount(self.dof.ravel(), weights=be[:, a].ravel(),
                            minlength=self.ndof)
            g, info = spla.cg(M, b, rtol=1e-13, atol=0.0, maxiter=200, M=jacobi)
            if info != 0:
                raise SolverError(f"gradient recovery: CG stopped with info={info} "
                                  f"on {self.ndof} dofs")
            out.append(g)
        return tuple(out)

    def affine_gradients(self, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each element's gradient of u_h in reference coordinates.

        On P2 elements it is affine: grad_xi u(xi) = r0 + A xi, with r0 (m,2)
        and A (m,2,2); the physical gradient is Jinv^T (r0 + A xi).
        """
        g = self._reference_gradients(coef)
        return g[:, :, 0], g[:, :, 1:]

    def _reference_gradients(self, coef: np.ndarray) -> np.ndarray:
        """(r0 | A) of ``affine_gradients`` as one (m,2,3) array."""
        return (np.take(coef, self.dof) @ _G_AFFINE).reshape(-1, 2, 3)

    @cached_property
    def boundary_mid_dofs(self) -> np.ndarray:
        """Mid-edge dof of each row of ``mesh.boundary_edges``."""
        n = self.mesh.n_nodes
        be = self.mesh.boundary_edges[:, :2]
        keys = self.edge_nodes[:, 0] * n + self.edge_nodes[:, 1]
        return n + np.searchsorted(keys, be.min(axis=1) * n + be.max(axis=1))

    # -- point location ---------------------------------------------------------
    def locate(self, pts: np.ndarray):
        """Triangle index and reference coordinates for each of the (n, 2)
        points.

        A point goes to the first of its nearest-centroid elements, in k-d
        tree order, that holds it (barycentric slack 1e-9), tested for all
        pending points at once at depth 1, then 8 and eightfold deeper while
        the deepest centroid lies within ``_reach``; -1 off the mesh.  Most
        points lie in their nearest centroid's element, so the first query
        asks for that one alone.
        """
        npts, m = len(pts), len(self._p0)
        tri = np.full(npts, -1, dtype=int)
        xi = np.zeros((npts, 2))
        pend = np.arange(npts)
        k = 1
        while len(pend):
            dist, c = self._tree.query(pts[pend], k=min(k, m))
            dist, c = dist.reshape(len(pend), -1), c.reshape(len(pend), -1)
            loc = np.einsum("pcab,pcb->pca", self.Jinv[c], pts[pend, None] - self._p0[c])
            lam0 = 1.0 - loc[..., 0] - loc[..., 1]
            holds = (loc[..., 0] >= -1e-9) & (loc[..., 1] >= -1e-9) & (lam0 >= -1e-9)
            first = holds.argmax(axis=1)
            rows = np.arange(len(pend))
            ok = holds[rows, first]
            tri[pend[ok]] = c[rows, first][ok]
            xi[pend[ok]] = np.clip(loc[rows, first][ok], 0.0, 1.0)
            if k >= m:
                break
            pend = pend[~ok][dist[~ok, -1] <= self._reach]
            k *= 8
        return tri, xi

    def eval(self, coef: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """u_h at each of the (n, 2) points; NaN at a point off the mesh."""
        tri, xi = self.locate(pts)
        V = _p2_values(xi[:, 0], xi[:, 1])
        out = np.einsum("pi,pi->p", coef[self.dof[tri]], V)
        out[tri < 0] = np.nan
        return out

    def eval_grad(self, coef: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """grad u_h at each of the (n, 2) points, one row each; NaN at a
        point off the mesh."""
        tri, xi = self.locate(pts)
        G = _p2_grads(xi[:, 0], xi[:, 1])                  # (p,6,2)
        Gphys = np.einsum("pba,pib->pia", self.Jinv[tri], G)
        out = np.einsum("pi,pia->pa", coef[self.dof[tri]], Gphys)
        out[tri < 0] = np.nan
        return out


class _P2Structure:
    """What the P2 spaces on one connectivity record (``mesh._Connectivity``)
    share: it depends on the triangles alone, so a chain of plain carries
    builds it once.  ``nodes`` and ``triangles`` are those of the mesh that
    made the record.  Built when the first space is made: the edges (a < b,
    lexicographic) and the (m, 6) dof map, corners then the midpoints of
    edges (0,1), (1,2), (2,0), numbered n + edge row.  Computed on first
    use: the dissection ``order`` or the ``band`` layout (``solve_second``,
    by the dof count) and, on a shared record only, the assembly
    ``pattern``.  Every array is read-only.
    """

    def __init__(self, nodes: np.ndarray, triangles: np.ndarray):
        self.nodes, self.triangles = nodes, triangles
        n = len(nodes)
        uniq, inv = _unique_edges(triangles, n, return_inverse=True)
        dof = np.empty((len(triangles), 6), dtype=int)
        dof[:, :3] = triangles
        dof[:, 3:] = n + inv.reshape(3, -1).T
        self.edge_nodes, self.dof = _read_only(uniq), _read_only(dof)

    @cached_property
    def order(self) -> np.ndarray:
        """The dof order in which SuperLU factors K - sigma M."""
        return _read_only(_nested_dissection(self))

    @cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """SciPy's COO to CSR conversion of the element entries, done once on
        their positions: the order in which it sums them, each one's slot in
        the result (ascending in that order), and the result's indices and
        indptr.  The conversion sorts the entries by row, keeping their order
        (a counting sort), then each row by column, and sums the runs of
        equal columns in turn; ``np.bincount`` over the slots in that order
        adds them in the same sequence."""
        rows, cols = _element_rows_cols(self.dof)
        n, ndof = len(rows), len(self.nodes) + len(self.edge_nodes)
        # CSR to CSC of one entry per row is the counting sort by ``rows``
        by_row = sp.csr_matrix((np.arange(n, dtype=float), rows, np.arange(n + 1)),
                               shape=(n, ndof)).tocsc()
        runs = sp.csr_matrix((by_row.indices.astype(float), cols[by_row.indices], by_row.indptr),
                             shape=(ndof, ndof))
        runs.has_sorted_indices = False
        runs.sort_indices()                    # SciPy's sort of each row by column
        start = np.ones(n, dtype=bool)
        start[1:] = runs.indices[1:] != runs.indices[:-1]
        start[runs.indptr[:-1][np.diff(runs.indptr) > 0]] = True
        count = np.concatenate([[0], np.cumsum(start)])       # slots before each entry
        indptr = count[runs.indptr].astype(runs.indptr.dtype)
        return (_read_only(runs.data.astype(np.intp)), _read_only(count[1:] - 1),
                _read_only(runs.indices[start]), _read_only(indptr))

    @cached_property
    def band(self) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
        """Where K - sigma M goes in LAPACK's banded Cholesky: the reverse
        Cuthill-McKee order p of the dofs and its inverse ip, the
        half-bandwidth kd of K in that order, and for each entry of K's CSR
        pattern that order puts on or below the diagonal its index in the
        data (``take``) and its place in the lower band storage, (kd + 1)
        rows by ndof columns in column-major order (``at``).  The pattern is
        SciPy's COO to CSR conversion of the element positions, which is the
        one ``P2Space.assemble`` gives on either route."""
        rows, cols = _element_rows_cols(self.dof)
        ndof = len(self.nodes) + len(self.edge_nodes)
        pattern = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(ndof, ndof)).tocsr()
        p = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        ip = np.empty(ndof, dtype=p.dtype)
        ip[p] = np.arange(ndof)
        r = ip[np.repeat(np.arange(ndof), np.diff(pattern.indptr))]
        c = ip[pattern.indices]
        take = np.flatnonzero(r >= c)
        kd = int((r - c)[take].max())
        return (_read_only(p), _read_only(ip), kd, _read_only(take),
                _read_only(c[take] * (kd + 1) + (r - c)[take]))


def _element_rows_cols(dof: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each element matrix entry, element-major."""
    return np.repeat(dof, 6, axis=1).ravel(), np.tile(dof, (1, 6)).ravel()


@dataclass
class EigenSolution:
    """Second Neumann eigenpair with point evaluation of u and grad u; the
    point queries (``eval``, ``eval_grad``, ``h_at``) take an (n, 2) array."""
    space: P2Space
    mu: float
    coef: np.ndarray
    gap: float
    residual: float
    neighbor_mu: float | None = None
    neighbor_coef: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def multiplicity_flag(self) -> bool:
        """The gap to mu3 is below ``DEFAULTS.degenerate_gap``, so u_3 is kept."""
        return self.neighbor_coef is not None

    @property
    def mesh(self) -> Mesh:
        return self.space.mesh

    @property
    def polygon(self) -> Polygon:
        return self.space.mesh.polygon

    def eval(self, pts):
        return self.space.eval(self.coef, pts)

    def eval_grad(self, pts):
        return self.space.eval_grad(self.coef, pts)

    @cached_property
    def _recovered(self) -> tuple[np.ndarray, np.ndarray]:
        return self.space.project_gradient(self.coef)

    def integral(self) -> float:
        _, M = self.space.matrices
        return float(np.ones(self.space.ndof) @ (M @ self.coef))

    def h_at(self, pts) -> np.ndarray:
        return self.mesh.h_at(pts)

    @property
    def scale(self) -> float:
        return float(np.abs(self.coef).max())

    def vertex_values(self) -> np.ndarray:
        return self.coef[self.mesh.vertex_map]

    def with_coef(self, coef: np.ndarray, mu: float | None = None) -> "EigenSolution":
        return EigenSolution(self.space, self.mu if mu is None else mu, coef,
                             self.gap, self.residual, self.neighbor_mu,
                             self.neighbor_coef, dict(self.diagnostics))

    def align_sign_with(self, other: "EigenSolution") -> "EigenSolution":
        """Flip sign so u agrees with another solution at the polygon vertices.

        Reads both solutions' vertex dofs, so ``other`` must live on a polygon
        with the same vertex correspondence, as along a path.
        """
        s = float(self.vertex_values() @ other.vertex_values())
        return self.with_coef(-self.coef) if s < 0 else self

    def select_from_pair(self, target_eval) -> "EigenSolution":
        """Combination of the near-degenerate pair closest to a target function.

        target_eval is a callable points -> values; the combination maximizes
        the mass-weighted overlap and is renormalized to max |u| = 1.  The
        overlaps run over the dof points where the target is finite (a
        target evaluated off its own domain is NaN there).
        """
        if self.neighbor_coef is None:
            return self
        _, M = self.space.matrices
        pts = self.space.dof_points()
        tvals = np.asarray(target_eval(pts), dtype=float)
        tvals = np.where(np.isfinite(tvals), tvals, 0.0)
        c1, c2 = self.coef, self.neighbor_coef
        a1 = float(tvals @ (M @ c1))
        a2 = float(tvals @ (M @ c2))
        comb = a1 * c1 + a2 * c2
        nrm = np.abs(comb).max()
        if nrm == 0:
            return self
        return self.with_coef(comb / nrm)


def _nested_dissection(structure: _P2Structure) -> np.ndarray:
    """Fill-reducing dof order for factoring K - sigma M (George 1973),
    from the dof map and the geometry of the mesh that made the connectivity
    record, so that every mesh sharing the record gets the same order.

    The elements are put in k-d tree order of their centroids: every segment
    of more than 8 elements is sorted along the longer axis of its bounding
    box and split at its middle, one level at a time.  Each level is one
    stable sort of all positions by s + f, where s is the segment's first
    position and f in [0, 1] the centroid's place between the segment's
    extremes on that axis (0 in a segment that is not split).  A split
    segment holds more than 8 positions, so its keys stay below the next
    segment's first position; equal keys keep their order.  A dof whose
    elements fall in both halves of a split belongs to that split's
    separator; every other dof to the leaf segment that holds it.  The dofs
    are ordered by their segment [s, e) in post-order, keyed by (e, e - s),
    so both halves come before their separator.  Any permutation gives the
    same operator; this one only keeps the factor sparse.
    """
    dof = structure.dof
    m, ndof = len(dof), len(structure.nodes) + len(structure.edge_nodes)
    cent = structure.nodes[structure.triangles].mean(axis=1)  # the record maker's centroids
    order = at = np.arange(m)                          # elements in tree order
    s, e = np.zeros(m, dtype=int), np.full(m, m)       # segment of each position
    while np.any(split := e - s > 8):
        heads = s == at
        starts = np.flatnonzero(heads)
        c = cent[order]
        lo = np.minimum.reduceat(c, starts)
        span = np.maximum.reduceat(c, starts) - lo
        seg = np.cumsum(heads) - 1                     # segment number of each position
        k = 2 * seg + np.argmax(span, axis=1)[seg]     # its longer axis, in c's flat index
        width = span.ravel()[k]
        with np.errstate(invalid="ignore"):            # a segment of one point: width 0
            frac = (c.ravel()[2 * at + k % 2] - lo.ravel()[k]) / width
        order = order[np.argsort(s + np.where(split & (width > 0), frac, 0.0), kind="stable")]
        mid = (s + e) // 2
        s, e = np.where(split & (at >= mid), mid, s), np.where(split & (at < mid), mid, e)
    pos = np.empty(m, dtype=int)
    pos[order] = at
    pos = np.repeat(pos, 6)                            # final position of each dof's element
    lo, hi = np.full(ndof, m), np.full(ndof, -1)
    np.minimum.at(lo, dof.ravel(), pos)
    np.maximum.at(hi, dof.ravel(), pos)
    # Later levels only permute inside a segment, so a dof's elements lie in
    # one segment of a level exactly when its first and last positions do.
    # The segments depend on m alone: descend them from the root while both
    # positions fall on one side of the split.
    s, e = np.zeros(ndof, dtype=int), np.full(ndof, m)
    while True:
        mid, split = (s + e) // 2, e - s > 8
        left, right = split & (hi < mid), split & (lo >= mid)
        if not np.any(left | right):
            return np.argsort(e * (m + 1) + (e - s), kind="stable")
        s, e = np.where(right, mid, s), np.where(left, mid, e)


def _shift_invert(space: P2Space, sigma: float):
    """(solve, factor, stored) for A = K - sigma M: ``solve(b)`` is A^-1 b,
    ``factor`` the route, "band" or "superlu", and ``stored`` the number of
    entries the factor keeps.  K and M share the pattern ``assemble``
    scatters them on, so A's data is one pass over theirs.

    A mesh of at most ``_BAND_MAX_DOFS`` dofs scatters the lower triangle of
    A, in its ``band`` order, into LAPACK's band storage and factors it by
    ``pbtrf``; each solve is one ``pbtrs``.  A larger mesh relabels A's
    columns, gathers its rows in the dissection ``order`` (the CSC transpose
    sorts each column's rows) and factors it by SuperLU with no pivoting.
    Either way a failed factorization raises SolverError.
    """
    K, M = space.matrices
    n = space.ndof
    data = K.data - sigma * M.data
    structure = space._structure
    if n <= _BAND_MAX_DOFS:
        p, ip, kd, take, at = structure.band
        ab = np.zeros((kd + 1) * n)
        ab[at] = data[take]
        c, info = _PBTRF(ab.reshape(n, kd + 1).T, lower=1, overwrite_ab=1)
        if info:
            raise SolverError(f"factorization of K - sigma M failed on {n} dofs: "
                              f"pbtrf info {info}")
        return (lambda b: _PBTRS(c, b[p], lower=1, overwrite_b=1)[0][ip]), "band", ab.size
    p = structure.order
    ip = np.empty(n, dtype=K.indices.dtype)            # relabelled indices keep K's width
    ip[p] = np.arange(n)
    try:
        lu = spla.splu(sp.csr_matrix((data, ip[K.indices], K.indptr), shape=K.shape)[p].tocsc(),
                       permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as err:       # SuperLU: "Factor is exactly singular"
        raise SolverError(f"factorization of K - sigma M failed on {n} dofs: {err}") from err
    # stored in L and U; lu.L, lu.U would copy them
    return (lambda b: lu.solve(b[p])[ip]), "superlu", int(lu.nnz)


_LANCZOS_CAP = 80       # Lanczos basis size at which solve_second gives up
_BAND_MAX_DOFS = 3000   # largest mesh factored as a band (module docstring)
# LAPACK's divide-and-conquer tridiagonal eigensolver, the driver
# eigh_tridiagonal picks for a full spectrum, and its banded Cholesky
# factor and solve, all called without their checks
_STEVD = la.get_lapack_funcs("stevd", (np.zeros(1),))
_PBTRF, _PBTRS = la.get_lapack_funcs(("pbtrf", "pbtrs"), (np.zeros(1),))


def _lanczos(solve, M, deflate, v0, tol, cap):
    """Shift-invert Lanczos on OP = A^-1 M, self-adjoint in the M inner product.

    ``solve(b)`` is A^-1 b.  The basis V starts from deflate(v0), normalized
    in M; each step applies OP to the newest basis vector, deflates the
    result w, forms M w, and orthogonalizes w against all of V by two
    classical Gram-Schmidt passes.  MV = M V is kept beside V, so each pass
    updates M w by the same combination of MV, and M is applied once per
    step (``cap`` + 1 products at most).  After the k-th application it
    yields the two largest Ritz values theta of the tridiagonal projection,
    largest first, and, when both Ritz estimates beta_k |s_k,i| are at most
    tol theta_i, their Ritz vectors as rows; else None (theta too is None
    after the first application).  It stops after ``cap`` applications or on
    an invariant Krylov space.

    V and MV start with 16 rows and double when full.  A block of ``cap``
    rows (53 MB at 83k dofs) would be mapped afresh from the system, while a
    small one reuses memory the factorization freed.  At 83k dofs a solve's
    peak resident size is 257.8 MB with MV and 258.0 MB without it (three
    runs each): the factorization sets the peak.
    """
    V = np.empty((min(cap, 16), len(v0)))
    MV = np.empty_like(V)
    alpha, beta = np.zeros(cap), np.zeros(cap)
    w = deflate(v0)
    Mw = M @ w
    b = math.sqrt(float(w @ Mw))
    for k in range(cap):
        if not b > 0:
            return
        if k == len(V):
            grow = np.empty((min(cap, 2 * k) - k, len(v0)))
            V, MV = np.concatenate([V, grow]), np.concatenate([MV, grow])
        V[k], MV[k] = w / b, Mw / b
        w = deflate(solve(MV[k]))
        Mw = M @ w
        for _ in range(2):
            h = V[:k + 1] @ Mw
            w -= h @ V[:k + 1]
            Mw -= h @ MV[:k + 1]
            alpha[k] += h[k]
        b = beta[k] = math.sqrt(float(w @ Mw))
        if k == 0:
            yield None, None
            continue
        theta, S, info = _STEVD(alpha[:k + 1], beta[:k])
        if info:
            raise la.LinAlgError(f"stevd failed to converge (info {info})")
        theta, S = theta[:-3:-1], S[:, :-3:-1]           # the two largest, largest first
        converged = np.all(b * np.abs(S[-1]) <= tol * theta)
        yield theta, (S.T @ V[:k + 1] if converged else None)


def solve_second(mesh: Mesh) -> EigenSolution:
    """Eigenpair for the smallest nonzero Neumann eigenvalue.

    The constant mode is deflated by projection; the relative gap to the next
    eigenvalue is reported and, when it falls below the degeneracy threshold,
    the next eigenvector is attached so callers can work with the 2-dim
    eigenspace.

    Shift-invert Lanczos (``_lanczos``) at sigma = -mu_scale / 4 applies
    (K - sigma M)^-1 through one factor per call (``_shift_invert``).
    K - sigma M is symmetric positive definite (K >= 0, M > 0, sigma < 0),
    so neither route pivots: a mesh of at most ``_BAND_MAX_DOFS`` dofs takes
    LAPACK's banded Cholesky in reverse Cuthill-McKee order, a larger one
    SuperLU with the diagonal pivots as they come (``diag_pivot_thresh=0``)
    in the nested-dissection order of ``_nested_dissection``.  The orders
    only decide the fill.  A failed factorization raises SolverError.
    ``diagnostics["factor"]`` names the route, "band" or "superlu", and
    ``factor_nnz`` counts the entries the factor stores: the band's
    (kd + 1) ndof, or the nonzeros of SuperLU's L and U.

    The loop stops once the Ritz estimates of mu_2 and mu_3 are within tol =
    ``solver_tol`` and the reported residual ||K u - mu M u|| / (mu ||M u||)
    of u_2 is at most tol; so is that of u_3 when the pair is near-degenerate,
    since u_3 is then returned too.  tol therefore bounds the residual the
    solution reports.  Without convergence within ``_LANCZOS_CAP``
    applications, meshes of at most 4000 dofs take a dense generalized
    eigensolve (route ``dense-eigh``) and larger ones raise SolverError.
    """
    tol = DEFAULTS.solver_tol
    space = P2Space(mesh)
    K, M = space.matrices
    n = space.ndof
    mu_scale = (2 * math.pi / mesh.polygon.diameter) ** 2
    sigma = -0.25 * mu_scale
    solve, factor, factor_nnz = _shift_invert(space, sigma)

    ones = np.ones(n)
    m1 = M @ ones
    mass_total = float(ones @ m1)

    def deflate(x):                   # project out the constant mode
        return x - (float(m1 @ x) / mass_total) * ones

    def mode(mu, x):                  # normalized mode and its residual
        c = deflate(x)
        c /= np.abs(c).max()
        Mc = M @ c
        return c, float(np.linalg.norm(K @ c - mu * Mc) / (mu * np.linalg.norm(Mc)))

    def modes(mus, X):                # u_2, and u_3 when the pair is near-degenerate
        if mus[0] <= 1e-6 * mu_scale:
            raise SolverError(f"second zero mode: mu = {mus[0]:.3e} on {n} dofs")
        gap = float((mus[1] - mus[0]) / mus[0])
        return gap, [mode(mus[i], X[i]) for i in range(1 + (gap < DEFAULTS.degenerate_gap))]

    route, applications = "lanczos", 0
    ritz = _lanczos(solve, M, deflate,
                    np.cos(0.7 * np.arange(n)), tol, min(n - 1, _LANCZOS_CAP))
    for applications, (theta, X) in enumerate(ritz, 1):
        if X is not None:
            mus = sigma + 1.0 / theta
            gap, pairs = modes(mus, X)
            if max(r for _, r in pairs) <= tol:
                break
    else:
        if n > 4000:
            raise SolverError(f"Lanczos did not converge in {applications} applications "
                              f"on {n} dofs")
        route = "dense-eigh"
        mus, vecs = la.eigh(K.toarray(), M.toarray(), subset_by_index=[1, 2])
        gap, pairs = modes(mus, vecs.T)

    mu2, mu3 = float(mus[0]), float(mus[1])
    c2, residual = pairs[0]
    # static sign rule: first polygon vertex with |u| > 0.5 positive, else max u = +1
    vv = c2[mesh.vertex_map]
    big = np.nonzero(np.abs(vv) > 0.5)[0]
    if len(big):
        if vv[big[0]] < 0:
            c2 = -c2
    elif c2.max() < -c2.min():
        c2 = -c2

    diag = {"spectrum_head": [mu2, mu3],
            "ndof": n, "residual": residual, "gap": gap,
            "mass_total": mass_total, "route": route, "applications": applications,
            "factor": factor, "factor_nnz": factor_nnz}
    return EigenSolution(space, mu2, c2, gap, residual,
                         neighbor_mu=mu3, neighbor_coef=pairs[1][0] if len(pairs) > 1 else None,
                         diagnostics=diag)
