"""Neumann Laplacian eigenpairs on a triangulated polygon.

Quadratic Lagrange elements (so gradients are affine inside each triangle),
assembled from reference-element tensors; generalized eigensolve via
shift-invert Lanczos with the constant mode deflated; batched point
evaluation of u and grad u with a kd-tree locator.

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
from scipy.spatial import cKDTree

from .config import DEFAULTS
from .geometry import Polygon
from .mesh import Mesh, _unique_edges, refine, triangulate


class SolverError(RuntimeError):
    pass


class OutsideDomainError(ValueError):
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
# recovery moments: int phi_i and int phi_i xi over the reference triangle
_W0 = _QW7 @ _V7                                                       # (6,)
_W1 = np.einsum("q,qi,qc->ic", _QW7, _V7, _QP7)                        # (6,2)


class P2Space:
    """Quadratic Lagrange space on a mesh: dof map, assembly, point evaluation."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        t = mesh.triangles
        n = mesh.n_nodes
        uniq, inv = _unique_edges(t, n, return_inverse=True)
        self.edge_nodes = uniq
        m = len(t)
        self.ndof = n + len(uniq)
        self.dof = np.empty((m, 6), dtype=int)
        self.dof[:, :3] = t
        self.dof[:, 3] = n + inv[:m]
        self.dof[:, 4] = n + inv[m:2 * m]
        self.dof[:, 5] = n + inv[2 * m:]
        p = mesh.nodes[t]
        self.J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (m,2,2)
        self.detJ = self.J[:, 0, 0] * self.J[:, 1, 1] - self.J[:, 0, 1] * self.J[:, 1, 0]
        self.Jinv = np.empty_like(self.J)
        self.Jinv[:, 0, 0] = self.J[:, 1, 1]
        self.Jinv[:, 0, 1] = -self.J[:, 0, 1]
        self.Jinv[:, 1, 0] = -self.J[:, 1, 0]
        self.Jinv[:, 1, 1] = self.J[:, 0, 0]
        self.Jinv /= self.detJ[:, None, None]
        self._tree = cKDTree(p.mean(axis=1))
        self._p0 = p[:, 0]

    def dof_points(self) -> np.ndarray:
        nodes = self.mesh.nodes
        mids = 0.5 * (nodes[self.edge_nodes[:, 0]] + nodes[self.edge_nodes[:, 1]])
        return np.vstack([nodes, mids])

    # -- assembly ---------------------------------------------------------------
    def assemble(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        dof, Jinv, detJ = self.dof, self.Jinv, self.detJ
        # Ke = sum_ab C_ab S_ab with C = detJ Jinv Jinv^T; Me = detJ M_ref
        C = detJ[:, None, None] * np.einsum("eac,ebc->eab", Jinv, Jinv)
        Ke = C.reshape(-1, 4) @ _S_REF                                 # (m,36)
        Me = detJ[:, None] * _M_REF.ravel()                            # (m,36)

        rows = np.repeat(dof, 6, axis=1).ravel()
        cols = np.tile(dof, (1, 6)).ravel()
        K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(self.ndof, self.ndof)).tocsr()
        M = sp.coo_matrix((Me.ravel(), (rows, cols)), shape=(self.ndof, self.ndof)).tocsr()
        return K, M

    @cached_property
    def matrices(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        return self.assemble()

    def project_gradient(self, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L2 projection of grad u_h onto the P2 space (continuous recovery).

        The right-hand side is exact: on each element detJ Jinv^T (r0 + A xi)
        is affine, so its moments against the shape functions are the
        reference moments W0 and W1 applied to detJ Jinv^T r0 and
        detJ Jinv^T A.  Each component of M g = b is solved by conjugate
        gradients preconditioned with 1/diag(M), to a relative residual of
        1e-13 within 200 iterations (24 to 29 from 57 to 83k dofs, graded or
        not: see the module docstring); SolverError is raised when CG stops
        short.
        """
        r0, A = self.affine_gradients(coef)
        DJ = self.detJ[:, None, None] * self.Jinv
        p = np.einsum("eba,eb->ea", DJ, r0)                 # detJ Jinv^T r0, (m,2)
        q = np.einsum("eba,ebc->eac", DJ, A)                # detJ Jinv^T A, (m,2,2)
        be = _W0[None, :, None] * p[:, None, :] + np.einsum("ic,eac->eia", _W1, q)
        _, M = self.matrices
        jacobi = sp.diags(1.0 / M.diagonal())
        out = []
        for a in range(2):
            b = np.bincount(self.dof.ravel(), weights=be[:, :, a].ravel(),
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
        G = _p2_grads(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))  # (3,6,2)
        g = np.einsum("ei,qia->eqa", coef[self.dof], G)    # at the 3 corners
        return g[:, 0], np.stack([g[:, 1] - g[:, 0], g[:, 2] - g[:, 0]], axis=-1)

    @cached_property
    def boundary_mid_dofs(self) -> np.ndarray:
        """Mid-edge dof of each row of ``mesh.boundary_edges``."""
        n = self.mesh.n_nodes
        be = self.mesh.boundary_edges[:, :2]
        keys = self.edge_nodes[:, 0] * n + self.edge_nodes[:, 1]
        return n + np.searchsorted(keys, be.min(axis=1) * n + be.max(axis=1))

    # -- point location ---------------------------------------------------------
    def locate(self, pts: np.ndarray, *, strict: bool = True):
        """Triangle index and reference coordinates for each point."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        npts = len(pts)
        tri = np.full(npts, -1, dtype=int)
        xi = np.zeros((npts, 2))
        pend = np.arange(npts)
        for k in (8, 64):
            if len(pend) == 0:
                break
            kk = min(k, len(self._p0))
            _, cand = self._tree.query(pts[pend], k=kk)
            cand = np.atleast_2d(cand)
            for c in range(cand.shape[1]):
                if len(pend) == 0:
                    break
                ti = cand[:, c]
                loc = np.einsum("pab,pb->pa", self.Jinv[ti], pts[pend] - self._p0[ti])
                lam0 = 1.0 - loc[:, 0] - loc[:, 1]
                ok = (loc[:, 0] >= -1e-9) & (loc[:, 1] >= -1e-9) & (lam0 >= -1e-9)
                hit = pend[ok]
                tri[hit] = ti[ok]
                xi[hit] = np.clip(loc[ok], 0.0, 1.0)
                pend = pend[~ok]
                cand = cand[~ok]
        if len(pend) and strict:
            inside = self.mesh.polygon.contains(pts[pend])
            if np.any(~inside):
                raise OutsideDomainError(f"{int(np.sum(~inside))} evaluation points "
                                         "outside the domain")
            # inside but unlocated: loosen the barycentric tolerance
            for idx in pend:
                loc = np.einsum("pab,b->pa", self.Jinv, pts[idx] - self._p0)
                lam0 = 1.0 - loc[:, 0] - loc[:, 1]
                score = np.minimum(np.minimum(loc[:, 0], loc[:, 1]), lam0)
                best = int(np.argmax(score))
                tri[idx] = best
                xi[idx] = np.clip(loc[best], 0.0, 1.0)
        return tri, xi

    def eval(self, coef: np.ndarray, pts, *, strict: bool = True) -> np.ndarray:
        pts_arr = np.atleast_2d(np.asarray(pts, dtype=float))
        tri, xi = self.locate(pts_arr, strict=strict)
        V = _p2_values(xi[:, 0], xi[:, 1])
        out = np.einsum("pi,pi->p", coef[self.dof[tri]], V)
        out[tri < 0] = np.nan
        return out if np.asarray(pts).ndim == 2 else float(out[0])

    def eval_grad(self, coef: np.ndarray, pts, *, strict: bool = True) -> np.ndarray:
        pts_arr = np.atleast_2d(np.asarray(pts, dtype=float))
        tri, xi = self.locate(pts_arr, strict=strict)
        G = _p2_grads(xi[:, 0], xi[:, 1])                  # (p,6,2)
        Gphys = np.einsum("pba,pib->pia", self.Jinv[tri], G)
        out = np.einsum("pi,pia->pa", coef[self.dof[tri]], Gphys)
        out[tri < 0] = np.nan
        return out if np.asarray(pts).ndim == 2 else out[0]


def assemble(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Stiffness and mass matrices of the Neumann Laplacian (quadratic elements)."""
    return P2Space(mesh).assemble()


@dataclass
class EigenSolution:
    """Second Neumann eigenpair with point evaluation of u and grad u."""
    space: P2Space
    mu: float
    coef: np.ndarray
    gap: float
    residual: float
    neighbor_mu: float | None = None
    neighbor_coef: np.ndarray | None = None
    multiplicity_flag: bool = False
    diagnostics: dict = field(default_factory=dict)

    @property
    def mesh(self) -> Mesh:
        return self.space.mesh

    @property
    def polygon(self) -> Polygon:
        return self.space.mesh.polygon

    def eval(self, pts, *, strict: bool = True):
        return self.space.eval(self.coef, pts, strict=strict)

    def eval_grad(self, pts, *, strict: bool = True):
        return self.space.eval_grad(self.coef, pts, strict=strict)

    @cached_property
    def _recovered(self) -> tuple[np.ndarray, np.ndarray]:
        return self.space.project_gradient(self.coef)

    def eval_grad_recovered(self, pts, *, strict: bool = True):
        gx, gy = self._recovered
        pts_arr = np.atleast_2d(np.asarray(pts, dtype=float))
        vx = self.space.eval(gx, pts_arr, strict=strict)
        vy = self.space.eval(gy, pts_arr, strict=strict)
        out = np.column_stack([vx, vy])
        return out if np.asarray(pts).ndim == 2 else out[0]

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
                             self.neighbor_coef, self.multiplicity_flag,
                             dict(self.diagnostics))

    def align_sign_with(self, other: "EigenSolution") -> "EigenSolution":
        """Flip sign so u agrees with another solution at the polygon vertices."""
        a = self.vertex_values()
        b = other.eval(self.polygon.vertices, strict=False)
        s = float(np.nansum(a * b))
        if s == 0.0:
            probe = 0.5 * (self.polygon.vertices + self.polygon.centroid)
            s = float(np.nansum(self.eval(probe) * other.eval(probe, strict=False)))
        return self.with_coef(-self.coef) if s < 0 else self

    def basis(self) -> list["EigenSolution"]:
        """Orthogonal basis of the (near-)eigenspace: [u] or [u, u_next]."""
        out = [self]
        if self.neighbor_coef is not None:
            out.append(self.with_coef(self.neighbor_coef, mu=self.neighbor_mu))
        return out

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


class AnalyticSolution:
    """Closed-form stand-in with the EigenSolution evaluation interface.

    Used for manufactured fields in tests and wedge probes: any callable u
    with gradient on a polygon, tagged with an eigenvalue-like scale mu.
    """

    def __init__(self, polygon: Polygon, mu: float, f, grad_f, *, h_nominal: float | None = None):
        self.polygon = polygon
        self.mu = float(mu)
        self._f = f
        self._grad = grad_f
        self.h_nominal = h_nominal if h_nominal is not None else polygon.diameter / 64
        self.gap = np.inf
        self.residual = 0.0
        self.neighbor_coef = None
        self.multiplicity_flag = False
        self.mesh = None

    def eval(self, pts, *, strict: bool = True):
        pts_arr = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.asarray(self._f(pts_arr), dtype=float)
        return out if np.asarray(pts).ndim == 2 else float(out[0])

    def eval_grad(self, pts, *, strict: bool = True):
        pts_arr = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.asarray(self._grad(pts_arr), dtype=float)
        return out if np.asarray(pts).ndim == 2 else out[0]

    def eval_grad_recovered(self, pts, *, strict: bool = True):
        return self.eval_grad(pts, strict=strict)

    def h_at(self, pts) -> np.ndarray:
        pts_arr = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.full(len(pts_arr), self.h_nominal)

    @cached_property
    def interpolant(self) -> EigenSolution:
        """P2 interpolant on a mesh at ``h_nominal`` (coefficients = u at the
        dof points), built once.  The mesh is ``triangulate`` at 8 h_nominal
        refined three times: uniform, as ``h_at`` is."""
        mesh = triangulate(self.polygon, 8 * self.h_nominal)
        for _ in range(3):
            mesh = refine(mesh)
        space = P2Space(mesh)
        return EigenSolution(space, self.mu, self.eval(space.dof_points()), self.gap,
                             self.residual)

    @property
    def scale(self) -> float:
        rng = np.random.default_rng(7)
        v = self.polygon.vertices
        w = rng.dirichlet(np.ones(len(v)), size=512)
        pts = w @ v
        pts = pts[self.polygon.contains(pts)]
        vals = self.eval(pts)
        return float(np.nanmax(np.abs(vals))) if len(pts) else 1.0


def p2_field(sol) -> EigenSolution:
    """The P2 field behind a solution: ``sol`` itself, or the interpolant of
    an AnalyticSolution."""
    return sol.interpolant if isinstance(sol, AnalyticSolution) else sol


def solve_second(mesh: Mesh, tol: float | None = None) -> EigenSolution:
    """Eigenpair for the smallest nonzero Neumann eigenvalue.

    The constant mode is deflated by projection; the relative gap to the next
    eigenvalue is reported and, when it falls below the degeneracy threshold,
    the next eigenvector is attached so callers can work with the 2-dim
    eigenspace.
    """
    if tol is None:
        tol = DEFAULTS.solver_tol
    space = P2Space(mesh)
    K, M = space.matrices
    n = space.ndof
    mu_scale = (2 * math.pi / mesh.polygon.diameter) ** 2
    sigma = -0.25 * mu_scale
    v0 = np.cos(0.7 * np.arange(n))
    k = 4                             # constant mode, mu_2 and two neighbours
    route = "eigsh"
    try:
        vals, vecs = spla.eigsh(K, k=k, M=M, sigma=sigma, which="LM",
                                v0=v0, maxiter=DEFAULTS.solver_maxiter, tol=tol)
    except spla.ArpackError as err:   # ArpackNoConvergence included
        if n > 4000:
            raise SolverError("eigensolver failed to converge") from err
        route = "dense-eigh"
        vals, vecs = la.eigh(K.toarray(), M.toarray(), subset_by_index=[0, k - 1])
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    if abs(vals[0]) > 1e-6 * max(vals[1], mu_scale):
        raise SolverError(f"constant mode not found: spectrum head {vals[:3]}")

    ones = np.ones(n)
    mass_total = float(ones @ (M @ ones))

    def deflate(x):
        x = x - (float(ones @ (M @ x)) / mass_total) * ones
        return x / np.abs(x).max()

    mu2 = float(vals[1])
    c2 = deflate(vecs[:, 1])
    mu3 = float(vals[2])
    gap = (mu3 - mu2) / mu2

    # static sign rule: first polygon vertex with |u| > 0.5 positive, else max u = +1
    vv = c2[mesh.vertex_map]
    big = np.nonzero(np.abs(vv) > 0.5)[0]
    if len(big):
        if vv[big[0]] < 0:
            c2 = -c2
    elif c2.max() < -c2.min():
        c2 = -c2

    r = K @ c2 - mu2 * (M @ c2)
    residual = float(np.linalg.norm(r) / (mu2 * np.linalg.norm(M @ c2)))

    multiple = gap < DEFAULTS.degenerate_gap
    neighbor_coef = deflate(vecs[:, 2]) if multiple else None
    diag = {"spectrum_head": [float(v) for v in vals],
            "ndof": n, "residual": residual, "gap": gap,
            "mass_total": mass_total, "route": route}
    return EigenSolution(space, mu2, c2, gap, residual,
                         neighbor_mu=mu3, neighbor_coef=neighbor_coef,
                         multiplicity_flag=bool(multiple), diagnostics=diag)
