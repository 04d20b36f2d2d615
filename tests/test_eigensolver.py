import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hotspots.eigensolver as eigensolver
from hotspots.config import DEFAULTS

from hotspots.geometry import (Polygon, unit_square, rectangle, equilateral_triangle,
                               isosceles_triangle, triangle_from_angles)
from hotspots.mesh import triangulate, refine, structured_triangle_mesh
from hotspots.eigensolver import (P2Space, assemble, solve_second,
                                  AnalyticSolution, OutsideDomainError, SolverError)

PI2 = math.pi ** 2
L_SHAPE = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])


def _scatter(space, Ae):
    rows = np.repeat(space.dof, 6, axis=1).ravel()
    cols = np.tile(space.dof, (1, 6)).ravel()
    return sp.coo_matrix((Ae.ravel(), (rows, cols)), shape=(space.ndof,) * 2).tocsr()


def _matrices_by_quadrature_points(space):
    """Stiffness and mass summed point by point over the quadrature rules:
    the oracle for the reference-tensor assembly."""
    qp3, qp7 = eigensolver._QP3, eigensolver._QP7
    Gref = eigensolver._p2_grads(qp3[:, 0], qp3[:, 1])              # (3,6,2)
    Gphys = np.einsum("eba,qib->eqia", space.Jinv, Gref)
    Ke = np.einsum("q,eqia,eqja,e->eij", eigensolver._QW3, Gphys, Gphys, space.detJ)
    V = eigensolver._p2_values(qp7[:, 0], qp7[:, 1])                # (7,6)
    Me = np.einsum("q,qi,qj,e->eij", eigensolver._QW7, V, V, space.detJ)
    return _scatter(space, Ke), _scatter(space, Me)


def _gradient_rhs_by_quadrature_points(space, coef):
    """Right-hand side of the gradient recovery, point by point over the
    7-point rule and scattered with np.add.at: the oracle for the
    reference-moment form."""
    qp7 = eigensolver._QP7
    V = eigensolver._p2_values(qp7[:, 0], qp7[:, 1])
    r0, A = space.affine_gradients(coef)
    gref = r0[:, None, :] + np.einsum("eab,qb->eqa", A, qp7)
    gq = np.einsum("eba,eqb->eqa", space.Jinv, gref)
    be = np.einsum("q,qi,eqa,e->eia", eigensolver._QW7, V, gq, space.detJ)
    b = np.zeros((space.ndof, 2))
    np.add.at(b, space.dof.ravel(), be.reshape(-1, 2))
    return b


@pytest.fixture(scope="module")
def square_sol(solve_cached):
    return solve_cached(unit_square(), 0.06)


class TestAssemble:
    def test_matrix_structure(self):
        m = triangulate(unit_square(), 0.15)
        K, M = assemble(m)
        assert abs(K - K.T).max() < 1e-14
        assert abs(M - M.T).max() < 1e-14
        # constants in the stiffness kernel
        assert np.abs(K @ np.ones(K.shape[0])).max() < 1e-10
        # partition of unity: total mass = area
        assert abs(M.sum() - 1.0) < 1e-10

    def test_mass_total_on_triangle(self):
        T = triangle_from_angles(math.radians(35), math.radians(40))
        m = triangulate(T, 0.1)
        _, M = assemble(m)
        assert abs(M.sum() - T.area) < 1e-10 * T.area

    @pytest.mark.parametrize("P, h", [
        (triangle_from_angles(math.radians(30), math.radians(35)), 0.1),
        (L_SHAPE, 0.2),                       # graded at the reflex corner
    ], ids=["obtuse", "graded-L"])
    def test_reference_tensors_match_quadrature_points(self, P, h):
        space = P2Space(triangulate(P, h))
        K, M = space.assemble()
        K_ref, M_ref = _matrices_by_quadrature_points(space)
        assert abs(K - K_ref).max() <= 1e-13 * abs(K_ref).max()
        assert abs(M - M_ref).max() <= 1e-13 * abs(M_ref).max()


class TestSolveSecond:
    def test_square_mu2(self, square_sol):
        assert abs(square_sol.mu - PI2) / PI2 < 1e-4
        assert square_sol.multiplicity_flag          # cos(pi x), cos(pi y)
        assert square_sol.residual < 1e-8

    def test_rectangle_simple(self, solve_cached):
        sol = solve_cached(rectangle(2.0, 1.0), 0.07)
        exact = PI2 / 4
        assert abs(sol.mu - exact) / exact < 1e-4
        assert not sol.multiplicity_flag
        assert sol.gap > 1.0

    def test_equilateral_multiplicity_two(self, solve_cached):
        sol = solve_cached(equilateral_triangle(), 0.04)
        exact = 16 * PI2 / 9
        assert abs(sol.mu - exact) / exact < 1e-3
        assert sol.multiplicity_flag

    def test_mean_zero(self, square_sol):
        assert abs(square_sol.integral()) < 1e-10

    def test_normalization(self, square_sol):
        assert abs(np.abs(square_sol.coef).max() - 1.0) < 1e-14

    def test_monotone_decrease_and_order(self):
        # refinement decreases mu (to tolerance) and converges at order >= 2
        m0 = triangulate(unit_square(), 0.2, seed=1)
        sols = [solve_second(m0)]
        m = m0
        for _ in range(2):
            m = refine(m)
            sols.append(solve_second(m))
        mus = [s.mu for s in sols]
        assert mus[1] <= mus[0] + 1e-10
        assert mus[2] <= mus[1] + 1e-10
        e = [abs(mu - PI2) for mu in mus]
        order = math.log2(e[0] / e[1])
        assert order >= 2.0

    def test_isosceles_symmetry(self):
        # symmetric lattice: the discrete eigenvector inherits the reflection
        T = isosceles_triangle(math.radians(50))
        m = structured_triangle_mesh(T, 40)
        sol = solve_second(m)
        rng = np.random.default_rng(0)
        w = rng.dirichlet(np.ones(3), 400)
        pts = w @ T.vertices
        mirrored = pts.copy()
        mirrored[:, 0] = 1.0 - mirrored[:, 0]
        du = np.abs(sol.eval(pts) - sol.eval(mirrored))
        assert du.max() <= 1e-6 * np.abs(sol.coef).max()


class TestSolverRoute:
    def test_eigsh_route_recorded(self, square_sol):
        assert square_sol.diagnostics["route"] == "eigsh"

    def test_arpack_failure_takes_dense_route(self, monkeypatch):
        mesh = triangulate(triangle_from_angles(math.radians(30), math.radians(35)), 0.2)
        ref = solve_second(mesh)

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(eigensolver.spla, "eigsh", no_convergence)
        sol = solve_second(mesh)
        assert sol.diagnostics["route"] == "dense-eigh"
        assert abs(sol.mu - ref.mu) < 1e-8 * ref.mu

    def test_other_errors_are_not_swallowed(self, monkeypatch):
        mesh = triangulate(unit_square(), 0.3)

        def broken(*args, **kwargs):
            raise ValueError("not an ARPACK failure")

        monkeypatch.setattr(eigensolver.spla, "eigsh", broken)
        with pytest.raises(ValueError):
            solve_second(mesh)


class TestSolverTol:
    # Shift-invert Lanczos meets any tolerance within its first factorization
    # on small meshes, so the residual cannot show tol there; check that the
    # value reaches eigsh instead.
    @pytest.mark.parametrize("tol, want", [(None, DEFAULTS.solver_tol), (1e-3, 1e-3)])
    def test_tol_reaches_eigsh(self, monkeypatch, tol, want):
        seen = []
        eigsh = spla.eigsh

        def recording(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(eigensolver.spla, "eigsh", recording)
        solve_second(triangulate(unit_square(), 0.3), tol=tol)
        assert seen == [want]


class TestEval:
    def test_eval_at_nodes_matches_coef(self, square_sol):
        space = square_sol.space
        nodes = space.mesh.nodes[:25]
        vals = square_sol.eval(nodes)
        assert np.allclose(vals, square_sol.coef[:25], atol=1e-11)

    def test_gradient_structure_of_pure_mode(self, square_sol):
        # rotate the degenerate pair onto cos(pi x): grad = (-pi sin(pi x), 0)
        sol = square_sol.select_from_pair(lambda p: np.cos(math.pi * p[:, 0]))
        pts = np.column_stack([np.full(9, 0.5), np.linspace(0.1, 0.9, 9)])
        g = sol.eval_grad(pts)
        assert np.abs(g[:, 1]).max() < 5e-3          # y-component vanishes
        assert np.abs(g[:, 0] + math.pi).max() < 5e-2

    def test_recovered_gradient_is_continuous_estimate(self, square_sol):
        pts = np.random.default_rng(1).random((50, 2)) * 0.8 + 0.1
        raw = square_sol.eval_grad(pts)
        rec = square_sol.eval_grad_recovered(pts)
        assert np.abs(raw - rec).max() < 5e-2

    @staticmethod
    def _check_recovery_exact_on_quadratics(refines):
        # the P2 interpolant of a quadratic has an affine gradient, which lies
        # in the P2 space, so its L2 projection must return it at every dof
        T = triangle_from_angles(math.radians(30), math.radians(35))
        mesh = triangulate(T, T.diameter / 12)
        for _ in range(refines):
            mesh = refine(mesh)
        space = P2Space(mesh)
        x, y = space.dof_points().T
        coef = 1 + 2 * x - y + 0.5 * x * x + 0.3 * x * y - 0.7 * y * y
        gx, gy = space.project_gradient(coef)
        ex, ey = 2 + x + 0.3 * y, -1 + 0.3 * x - 1.4 * y
        err = max(np.abs(gx - ex).max(), np.abs(gy - ey).max())
        assert err <= 1e-10 * max(np.abs(ex).max(), np.abs(ey).max())

    def test_recovery_exact_on_quadratics(self):
        self._check_recovery_exact_on_quadratics(0)

    def test_recovery_exact_on_quadratics_refined(self):
        self._check_recovery_exact_on_quadratics(2)

    def test_recovery_matches_direct_solve(self):
        T = triangle_from_angles(math.radians(30), math.radians(35))
        sol = solve_second(refine(refine(triangulate(T, T.diameter / 12))))
        space = sol.space
        _, M = space.matrices
        b = _gradient_rhs_by_quadrature_points(space, sol.coef)
        for g, bc in zip(space.project_gradient(sol.coef), b.T):
            ref = spla.spsolve(M.tocsc(), bc)
            assert np.abs(g - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_recovery_raises_when_cg_stops_short(self, monkeypatch):
        space = P2Space(triangulate(unit_square(), 0.3))
        x, y = space.dof_points().T

        def stalled(A, b, **kwargs):
            return np.zeros_like(b), kwargs["maxiter"]

        monkeypatch.setattr(eigensolver.spla, "cg", stalled)
        with pytest.raises(SolverError):
            space.project_gradient(x * y)

    def test_outside_point_raises(self, square_sol):
        with pytest.raises(OutsideDomainError):
            square_sol.eval(np.array([[2.0, 2.0]]))

    def test_quadrature_mean_zero(self, square_sol):
        # restating the integral invariant through the mass matrix
        _, M = square_sol.space.matrices
        assert abs(np.ones(square_sol.space.ndof) @ (M @ square_sol.coef)) < 1e-10


class TestPairSelection:
    def test_select_from_pair_square(self, square_sol):
        assert square_sol.neighbor_coef is not None
        solx = square_sol.select_from_pair(lambda p: np.cos(math.pi * p[:, 0]))
        pts = np.random.default_rng(2).random((200, 2))
        err = np.abs(solx.eval(pts) - np.cos(math.pi * pts[:, 0])).max()
        assert err < 1e-3

    def test_select_from_pair_target_off_domain(self, solve_cached):
        # the target lives on a smaller square, so it is NaN at the dof
        # points outside it; the overlaps use the points where it is finite
        sol = solve_cached(unit_square(), 0.08)
        assert sol.gap < DEFAULTS.gap_floor
        small = solve_cached(Polygon(0.99 * unit_square().vertices), 0.08)
        sel = sol.select_from_pair(lambda p: small.eval(p, strict=False))
        assert np.all(np.isfinite(sel.coef))
        pts = np.random.default_rng(3).random((200, 2)) * 0.9 + 0.02
        assert np.abs(sel.eval(pts) - small.eval(pts)).max() < 0.05

    def test_align_sign(self, square_sol):
        flipped = square_sol.with_coef(-square_sol.coef)
        fixed = flipped.align_sign_with(square_sol)
        assert float(fixed.coef @ square_sol.coef) > 0


class TestAnalyticSolution:
    def test_interface(self):
        P = unit_square()
        sol = AnalyticSolution(P, PI2, lambda p: np.cos(math.pi * p[:, 0]),
                               lambda p: np.column_stack([-math.pi * np.sin(math.pi * p[:, 0]),
                                                          np.zeros(len(p))]))
        assert abs(sol.eval(np.array([[0.25, 0.5]]))[0] - math.cos(math.pi / 4)) < 1e-15
        g = sol.eval_grad(np.array([[0.25, 0.5]]))[0]
        assert abs(g[0] + math.pi * math.sin(math.pi / 4)) < 1e-15
        assert sol.scale <= 1.0 + 1e-12

    def test_interpolant_built_once(self, monkeypatch):
        from hotspots.critical import find_critical_points
        from hotspots.nodal import ScalarField, trace
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return triangulate(*args, **kw)

        monkeypatch.setattr(eigensolver, "triangulate", counting)
        sol = AnalyticSolution(unit_square(), PI2, lambda p: np.cos(math.pi * p[:, 0]),
                               lambda p: np.column_stack([-math.pi * np.sin(math.pi * p[:, 0]),
                                                          np.zeros(len(p))]),
                               h_nominal=0.1)
        find_critical_points(sol)
        find_critical_points(sol)
        trace(ScalarField.u(sol))
        assert len(calls) == 1
