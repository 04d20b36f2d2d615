import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

import hotspots.eigensolver as eigensolver
from hotspots.config import DEFAULTS

from hotspots.geometry import (Polygon, unit_square, rectangle, equilateral_triangle,
                               isosceles_triangle, triangle_from_angles)
from hotspots.mesh import Mesh, triangulate, refine
from hotspots.eigensolver import P2Space, solve_second, SolverError

import oracles
from oracles import AnalyticSolution, structured_triangle_mesh

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
        K, M = P2Space(m).assemble()
        assert abs(K - K.T).max() < 1e-14
        assert abs(M - M.T).max() < 1e-14
        # constants in the stiffness kernel
        assert np.abs(K @ np.ones(K.shape[0])).max() < 1e-10
        # partition of unity: total mass = area
        assert abs(M.sum() - 1.0) < 1e-10

    def test_mass_total_on_triangle(self):
        T = triangle_from_angles(math.radians(35), math.radians(40))
        m = triangulate(T, 0.1)
        _, M = P2Space(m).assemble()
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

    def test_stiffness_and_mass_share_one_pattern(self):
        # solve_second forms K - sigma M on the shared pattern, from the data
        K, M = P2Space(triangulate(L_SHAPE, 0.2)).matrices
        assert K.has_canonical_format and M.has_canonical_format
        assert np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)

    def test_affine_gradients_match_eval_grad_at_corners(self, monkeypatch):
        # eval_grad evaluates the shape-function gradients at a point; pin
        # its locate to each element in turn, at one corner at a time
        space = P2Space(triangulate(L_SHAPE, 0.2))                # graded
        coef = np.random.default_rng(4).standard_normal(space.ndof)
        r0, A = space.affine_gradients(coef)
        m = len(space.dof)
        corners = space.mesh.nodes[space.mesh.triangles]           # (m,3,2)
        for k, xi in enumerate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])):
            pinned = (np.arange(m), np.tile(xi, (m, 1)))
            monkeypatch.setattr(space, "locate", lambda pts, pinned=pinned: pinned)
            ref = space.eval_grad(coef, corners[:, k])
            got = np.einsum("eba,eb->ea", space.Jinv, r0 + A @ xi)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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
        _, M = square_sol.space.matrices
        assert abs(np.ones(square_sol.space.ndof) @ (M @ square_sol.coef)) < 1e-10

    def test_normalization(self, square_sol):
        assert abs(np.abs(square_sol.coef).max() - 1.0) < 1e-14

    def test_monotone_decrease_and_order(self):
        # refinement decreases mu (to tolerance) and converges at order >= 2
        m0 = triangulate(unit_square(), 0.2)
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


def _obtuse_refined_twice():
    T = triangle_from_angles(math.radians(30), math.radians(35))
    return refine(refine(triangulate(T, T.diameter / 21)))      # 5305 dofs


def _residual(sol, mu, c):
    K, M = sol.space.matrices
    return np.linalg.norm(K @ c - mu * (M @ c)) / (mu * np.linalg.norm(M @ c))


class _CountingFactor:
    """A SuperLU factor that records its solves."""

    def __init__(self, lu, solves):
        self.lu, self.nnz, self.solves = lu, lu.nnz, solves

    def solve(self, b):
        self.solves.append(len(b))
        return self.lu.solve(b)


class TestSolverRoute:
    def test_lanczos_route_recorded(self, square_sol):
        assert square_sol.diagnostics["route"] == "lanczos"
        assert 2 <= square_sol.diagnostics["applications"] <= eigensolver._LANCZOS_CAP

    def test_no_convergence_takes_dense_route(self, monkeypatch):
        mesh = triangulate(triangle_from_angles(math.radians(30), math.radians(35)), 0.2)
        ref = solve_second(mesh)
        monkeypatch.setattr(eigensolver, "_LANCZOS_CAP", 2)
        sol = solve_second(mesh)
        assert sol.diagnostics["route"] == "dense-eigh"
        assert sol.diagnostics["applications"] == 2
        assert abs(sol.mu - ref.mu) < 1e-8 * ref.mu
        assert sol.residual <= DEFAULTS.solver_tol

    def test_no_convergence_raises_above_4000_dofs(self, monkeypatch):
        mesh = _obtuse_refined_twice()
        monkeypatch.setattr(eigensolver, "_LANCZOS_CAP", 2)
        with pytest.raises(SolverError, match="5305 dofs"):
            solve_second(mesh)

    # The four SuperLU tests below run on meshes above ``_BAND_MAX_DOFS``
    # (5305 and 5859 dofs); ``TestBandRoute`` checks the same on the band.
    def test_other_errors_are_not_swallowed(self, monkeypatch):
        mesh = _obtuse_refined_twice()

        class Broken:
            nnz = 0

            def solve(self, b):
                raise ValueError("not a convergence failure")

        monkeypatch.setattr(eigensolver.spla, "splu", lambda *args, **kwargs: Broken())
        with pytest.raises(ValueError, match="not a convergence failure"):
            solve_second(mesh)

    def test_one_unpivoted_factorization_per_solve(self, monkeypatch):
        factored, solves = [], []
        splu = spla.splu

        def recording_splu(A, **kwargs):
            factored.append((kwargs["permc_spec"], kwargs["diag_pivot_thresh"]))
            return _CountingFactor(splu(A, **kwargs), solves)

        monkeypatch.setattr(eigensolver.spla, "splu", recording_splu)
        sol = solve_second(_obtuse_refined_twice())
        assert factored == [("NATURAL", 0.0)]
        assert len(solves) == sol.diagnostics["applications"]
        assert sol.diagnostics["factor"] == "superlu"

    def test_failed_factorization_raises_solver_error(self, monkeypatch):
        mesh = _obtuse_refined_twice()

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(eigensolver.spla, "splu", singular)
        with pytest.raises(SolverError, match=f"{P2Space(mesh).ndof} dofs"):
            solve_second(mesh)

    def test_second_zero_mode_raises(self):
        # two disjoint copies of one mesh: a second constant mode, at mu = 0
        m = triangulate(unit_square(), 0.3)
        two = dataclasses.replace(m, nodes=np.vstack([m.nodes, m.nodes + [2.0, 0.0]]),
                                  triangles=np.vstack([m.triangles, m.triangles + m.n_nodes]))
        with pytest.raises(SolverError, match="second zero mode"):
            solve_second(two)

    def test_one_mass_product_per_application(self, monkeypatch):
        # M V is kept beside V, so the Gram-Schmidt passes update M w
        # instead of forming it again
        products = []
        lanczos = eigensolver._lanczos

        class CountingMass:
            def __init__(self, M):
                self.M = M

            def __matmul__(self, x):
                products.append(len(x))
                return self.M @ x

        def counting(solve, M, deflate, v0, tol, cap):
            return lanczos(solve, CountingMass(M), deflate, v0, tol, cap)

        monkeypatch.setattr(eigensolver, "_lanczos", counting)
        sol = solve_second(_obtuse_refined_twice())
        assert len(products) == sol.diagnostics["applications"] + 1
        # what the loop gave with M @ w formed afresh in each pass: 14
        # applications, mu and the reported residual (at rounding level, so
        # to a factor of 2)
        assert sol.diagnostics["applications"] == 14
        assert abs(sol.mu - 21.0744221445779) <= 1e-12 * sol.mu
        assert 0.5 <= sol.residual / 2.5565413525053135e-12 <= 2.0

    def test_basis_grows_past_its_first_block(self):
        # the loop stops only at the cap, so all 40 applications run and V
        # and MV grow from 16 rows to 32 and then to 40
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        A = Q @ np.diag(np.arange(1.0, 61.0)) @ Q.T
        M = np.diag(rng.uniform(1.0, 2.0, 60))
        steps = list(eigensolver._lanczos(lambda b: np.linalg.solve(A, b), M, lambda x: x,
                                          rng.standard_normal(60), 0.0, 40))
        assert len(steps) == 40
        want = 1.0 / scipy.linalg.eigh(A, M, eigvals_only=True)[:2]
        assert steps[-1][0] == pytest.approx(want, rel=1e-10)

    def test_factored_operator_is_the_permuted_shift(self, monkeypatch):
        seen = []
        splu = spla.splu

        def recording_splu(A, **kwargs):
            seen.append(A)
            return splu(A, **kwargs)

        monkeypatch.setattr(eigensolver.spla, "splu", recording_splu)
        sol = solve_second(triangulate(L_SHAPE, 0.08))              # graded, 5859 dofs
        K, M = sol.space.matrices
        sigma = -0.25 * (2 * math.pi / L_SHAPE.diameter) ** 2
        p = eigensolver._nested_dissection(sol.space._structure)
        ref = (K - sigma * M)[p][:, p].tocsc()
        (A,) = seen
        assert A.format == "csc"
        for got, want in ((A.indptr, ref.indptr), (A.indices, ref.indices), (A.data, ref.data)):
            assert np.array_equal(got, want)

    def test_application_count_guard(self):
        # 14 applications; ARPACK's default 20-vector basis took 21
        sol = solve_second(_obtuse_refined_twice())
        assert sol.diagnostics["applications"] <= 16
        assert sol.residual <= DEFAULTS.solver_tol

    def test_exact_double_eigenvalue(self):
        # the symmetric lattice keeps the equilateral triangle's double mu_2
        # to rounding; Lanczos must find both copies from one start vector
        sol = solve_second(structured_triangle_mesh(equilateral_triangle(), 16))
        assert sol.multiplicity_flag and sol.gap < 1e-12
        c2, c3 = sol.coef, sol.neighbor_coef
        assert sol.residual <= DEFAULTS.solver_tol
        assert _residual(sol, sol.mu, c2) <= DEFAULTS.solver_tol
        assert _residual(sol, sol.neighbor_mu, c3) <= DEFAULTS.solver_tol
        _, M = sol.space.matrices
        assert abs(c2 @ (M @ c3)) <= 1e-10 * math.sqrt((c2 @ (M @ c2)) * (c3 @ (M @ c3)))
        assert sol.diagnostics["spectrum_head"] == [sol.mu, sol.neighbor_mu]


class TestBandRoute:
    """A mesh of at most ``_BAND_MAX_DOFS`` dofs factors K - sigma M as a
    band in reverse Cuthill-McKee order, by LAPACK's pbtrf and pbtrs."""

    @staticmethod
    def record(monkeypatch):
        """Wrap pbtrf and pbtrs: the bands factored (copied before pbtrf
        overwrites them) and the length of each right-hand side solved."""
        factored, solves = [], []
        pbtrf, pbtrs = eigensolver._PBTRF, eigensolver._PBTRS

        def recording_pbtrf(ab, **kwargs):
            factored.append(np.array(ab))
            return pbtrf(ab, **kwargs)

        def recording_pbtrs(c, b, **kwargs):
            solves.append(len(b))
            return pbtrs(c, b, **kwargs)

        monkeypatch.setattr(eigensolver, "_PBTRF", recording_pbtrf)
        monkeypatch.setattr(eigensolver, "_PBTRS", recording_pbtrs)
        return factored, solves

    def test_one_factorization_per_solve(self, monkeypatch):
        factored, solves = self.record(monkeypatch)
        splu = []
        monkeypatch.setattr(eigensolver.spla, "splu", lambda *a, **k: splu.append(a))
        sol = solve_second(triangulate(unit_square(), 0.3))
        assert len(factored) == 1 and splu == []
        assert solves == [sol.space.ndof] * sol.diagnostics["applications"]
        assert sol.diagnostics["factor"] == "band"
        assert sol.diagnostics["factor_nnz"] == factored[0].size

    def test_failed_factorization_raises_solver_error(self, monkeypatch):
        mesh = triangulate(unit_square(), 0.3)
        monkeypatch.setattr(eigensolver, "_PBTRF", lambda ab, **kwargs: (ab, 3))
        with pytest.raises(SolverError, match=f"{P2Space(mesh).ndof} dofs"):
            solve_second(mesh)

    def test_other_errors_are_not_swallowed(self, monkeypatch):
        def broken(c, b, **kwargs):
            raise ValueError("not a convergence failure")

        monkeypatch.setattr(eigensolver, "_PBTRS", broken)
        with pytest.raises(ValueError, match="not a convergence failure"):
            solve_second(triangulate(unit_square(), 0.3))

    def test_factored_band_is_the_permuted_shift(self, monkeypatch):
        factored, _ = self.record(monkeypatch)
        sol = solve_second(triangulate(L_SHAPE, 0.2))              # graded
        K, M = sol.space.matrices
        sigma = -0.25 * (2 * math.pi / L_SHAPE.diameter) ** 2
        p = reverse_cuthill_mckee(K, symmetric_mode=True)
        A = (K - sigma * M)[p][:, p].toarray()
        (ab,) = factored
        kd, n = ab.shape[0] - 1, len(A)
        assert kd == max(i - j for i, j in zip(*np.nonzero(A)))
        want = np.zeros_like(ab)
        for d in range(kd + 1):
            want[d, :n - d] = np.diagonal(A, -d)
        assert ab.tobytes() == want.tobytes()

    def test_matches_dense_eigh(self):
        T = triangle_from_angles(math.radians(30), math.radians(35))
        sol = solve_second(triangulate(T, T.diameter / 12))
        assert sol.diagnostics["factor"] == "band"
        K, M = sol.space.matrices
        mus, V = scipy.linalg.eigh(K.toarray(), M.toarray(), subset_by_index=[1, 2])
        u = V[:, 0] / np.abs(V[:, 0]).max()
        u *= np.sign(u @ sol.coef)
        assert abs(sol.mu - mus[0]) <= 1e-12 * mus[0]
        assert np.abs(sol.coef - u).max() <= 1e-12

    def test_dof_count_picks_the_route(self, monkeypatch):
        mesh = triangulate(unit_square(), 0.3)
        n = P2Space(mesh).ndof
        monkeypatch.setattr(eigensolver, "_BAND_MAX_DOFS", n)
        band = solve_second(mesh)
        monkeypatch.setattr(eigensolver, "_BAND_MAX_DOFS", n - 1)
        superlu = solve_second(mesh)
        assert (band.diagnostics["factor"], superlu.diagnostics["factor"]) == ("band", "superlu")
        assert abs(band.mu - superlu.mu) <= 1e-12 * band.mu


class TestNestedDissection:
    @pytest.mark.parametrize("mesh", [
        lambda: triangulate(unit_square(), 0.1),
        lambda: triangulate(L_SHAPE, 0.2),                       # graded
        lambda: structured_triangle_mesh(isosceles_triangle(math.radians(50)), 20),
        lambda: structured_triangle_mesh(equilateral_triangle(), 2),   # 4 elements
    ], ids=["square", "graded-L", "structured", "tiny"])
    def test_is_a_deterministic_permutation(self, mesh):
        space = P2Space(mesh())
        p = eigensolver._nested_dissection(space._structure)
        assert np.array_equal(np.sort(p), np.arange(space.ndof))
        assert np.array_equal(p, eigensolver._nested_dissection(P2Space(space.mesh)._structure))

    def test_cuts_fill_and_keeps_mu(self):
        T = triangle_from_angles(math.radians(30), math.radians(35))
        mesh = triangulate(T, T.diameter / 21)
        for _ in range(2):
            mesh = refine(mesh)
        space = P2Space(mesh)
        K, M = space.matrices
        sigma = -0.25 * (2 * math.pi / T.diameter) ** 2
        lu = spla.splu((K - sigma * M).tocsc())
        sol = solve_second(mesh)
        assert sol.diagnostics["factor_nnz"] < 0.9 * lu.nnz
        # within 1 % of the fill of the order that sorted each level by the
        # two keys (segment, coordinate) with lexsort
        assert sol.diagnostics["factor_nnz"] <= 1.01 * 331_030
        vals = np.sort(spla.eigsh(K, k=4, M=M, sigma=sigma)[0])
        assert abs(sol.mu - vals[1]) <= 1e-10 * vals[1]


class TestSolverTol:
    # solver_tol bounds the residual the solution reports, and a looser one
    # stops the Lanczos loop sooner
    def test_loose_tol_takes_fewer_applications(self, monkeypatch):
        mesh = _obtuse_refined_twice()
        tight = solve_second(mesh)
        monkeypatch.setattr(eigensolver, "DEFAULTS", dataclasses.replace(DEFAULTS, solver_tol=1e-3))
        loose = solve_second(mesh)
        assert tight.residual <= DEFAULTS.solver_tol
        assert loose.residual <= 1e-3
        assert loose.diagnostics["applications"] < tight.diagnostics["applications"]

    # The Lanczos stopping test compares Ritz estimates with the tol it is
    # handed; check that solver_tol, as it stands or replaced (tol), is what
    # it gets.  (The name is kept from the ARPACK solver.)
    @pytest.mark.parametrize("tol, want", [(None, DEFAULTS.solver_tol), (1e-3, 1e-3)])
    def test_tol_reaches_eigsh(self, monkeypatch, tol, want):
        if tol is not None:
            monkeypatch.setattr(eigensolver, "DEFAULTS",
                                dataclasses.replace(DEFAULTS, solver_tol=tol))
        seen = []
        lanczos = eigensolver._lanczos

        def recording(solve, M, deflate, v0, tol, cap):
            seen.append(tol)
            return lanczos(solve, M, deflate, v0, tol, cap)

        monkeypatch.setattr(eigensolver, "_lanczos", recording)
        sol = solve_second(triangulate(unit_square(), 0.3))
        assert seen == [want]
        assert sol.residual <= want


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
        from hotspots.nodal import ScalarField
        pts = np.random.default_rng(1).random((50, 2)) * 0.8 + 0.1
        raw = square_sol.eval_grad(pts)
        rec = np.column_stack([ScalarField.directional(square_sol, psi).eval(pts)
                               for psi in (0.0, math.pi / 2)])
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

    def test_outside_point_is_nan(self, square_sol):
        pts = np.array([[2.0, 2.0], [0.5, -1e-3], [0.5, 0.5]])
        assert np.array_equal(np.isnan(square_sol.eval(pts)), [True, True, False])
        g = square_sol.eval_grad(pts)
        assert np.isnan(g[:2]).all() and np.isfinite(g[2]).all()
        assert math.isnan(square_sol.eval(np.array([[2.0, 2.0]]))[0])

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
        sel = sol.select_from_pair(small.eval)
        assert np.all(np.isfinite(sel.coef))
        pts = np.random.default_rng(3).random((200, 2)) * 0.9 + 0.02
        assert np.abs(sel.eval(pts) - small.eval(pts)).max() < 0.05

    def test_align_sign(self, square_sol):
        flipped = square_sol.with_coef(-square_sol.coef)
        fixed = flipped.align_sign_with(square_sol)
        assert float(fixed.coef @ square_sol.coef) > 0

    def test_align_sign_on_nearby_triangles(self, solve_cached):
        # the vertex dofs of two nearby polygons correspond, so the sign
        # follows from them; the two fields then agree near the 30 deg vertex
        T0 = triangle_from_angles(math.radians(30), math.radians(35))
        T1 = triangle_from_angles(math.radians(31), math.radians(35))
        a, b = solve_cached(T0, 0.1), solve_cached(T1, 0.1)
        probe = np.array([[0.1, 0.02]])
        for c in (b, b.with_coef(-b.coef)):
            fixed = c.align_sign_with(a)
            assert float(fixed.vertex_values() @ a.vertex_values()) > 0
            assert fixed.eval(probe)[0] * a.eval(probe)[0] > 0


class TestAnalyticSolution:
    def test_interface(self):
        P = unit_square()
        sol = AnalyticSolution(P, PI2, lambda p: np.cos(math.pi * p[:, 0]),
                               lambda p: np.column_stack([-math.pi * np.sin(math.pi * p[:, 0]),
                                                          np.zeros(len(p))]))
        assert abs(sol.eval(np.array([[0.25, 0.5]]))[0] - math.cos(math.pi / 4)) < 1e-15
        g = sol.eval_grad(np.array([[0.25, 0.5]]))[0]
        assert abs(g[0] + math.pi * math.sin(math.pi / 4)) < 1e-15
        assert isinstance(sol, eigensolver.EigenSolution)
        assert sol.gap == np.inf and sol.residual == 0.0
        # the P2 part interpolates f: coef is f at the dof points
        x = sol.space.dof_points()[:, 0]
        assert np.array_equal(sol.coef, np.cos(math.pi * x))
        assert sol.scale == 1.0                      # max |f| over the dof points
        # the recovered gradient is grad f at the dof points
        gx, gy = sol._recovered
        assert np.allclose(gx, -math.pi * np.sin(math.pi * x)) and not gy.any()
        # h_at reads the mesh, at the nominal size on this ungraded square
        assert np.allclose(sol.h_at(sol.mesh.nodes), unit_square().diameter / 64)

    def test_interpolant_built_once(self, monkeypatch):
        from hotspots.critical import find_critical_points
        from hotspots.nodal import ScalarField, trace
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return triangulate(*args, **kw)

        monkeypatch.setattr(oracles, "triangulate", counting)
        sol = AnalyticSolution(unit_square(), PI2, lambda p: np.cos(math.pi * p[:, 0]),
                               lambda p: np.column_stack([-math.pi * np.sin(math.pi * p[:, 0]),
                                                          np.zeros(len(p))]),
                               h_nominal=0.1)
        find_critical_points(sol)
        find_critical_points(sol)
        trace(ScalarField.u(sol))
        assert len(calls) == 1


class TestLocate:
    """``P2Space.locate`` against a brute-force barycentric scan over every
    element, computed from the mesh nodes alone."""

    @staticmethod
    def holders(mesh, pts, slack=1e-9):
        p = mesh.nodes[mesh.triangles]                                  # (m,3,2)
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)   # (m,2,2)
        lam = np.linalg.solve(J[None], (pts[:, None, :] - p[None, :, 0])[..., None])[..., 0]
        bary = np.concatenate([1 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)
        return (bary >= -slack).all(axis=-1), lam                       # (n,m), (n,m,2)

    @pytest.mark.parametrize("P, h", [(L_SHAPE, 0.25), (triangle_from_angles(0.5, 0.6), 0.08)])
    def test_matches_brute_force_scan(self, P, h):
        mesh = triangulate(P, h)
        space = P2Space(mesh)
        rng = np.random.default_rng(3)
        lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
        pts = np.vstack([rng.uniform(lo - 0.2, hi + 0.2, (400, 2)),   # inside and outside
                         space.dof_points()])                         # nodes and edge midpoints
        held, lam = self.holders(mesh, pts)
        tri, xi = space.locate(pts)
        found = held.any(axis=1)
        assert np.array_equal(tri >= 0, found)
        assert found[:400].sum() > 40 and (~found[:400]).sum() > 40
        k = np.nonzero(found)[0]
        assert held[k, tri[k]].all()
        assert np.allclose(xi[k], np.clip(lam[k, tri[k]], 0, 1), atol=1e-12)
        single = held.sum(axis=1) == 1                  # strictly inside one element
        assert np.array_equal(tri[single], held[single].argmax(axis=1))
        # every node and interior edge midpoint lies in several elements;
        # any of them gives the dof's value
        assert (held[400:].sum(axis=1) >= 2).sum() > space.ndof // 2
        coef = rng.standard_normal(space.ndof)
        assert np.allclose(space.eval(coef, space.dof_points()), coef, atol=1e-12)
        assert np.isnan(space.eval(coef, pts[:400][~found[:400]])).all()

    def test_point_behind_many_nearer_centroids(self):
        """A large element beside a fan of 100 small ones around its corner
        O: near O, more than 64 fan centroids lie nearer than the large
        element's, so the search must grow past depth 64 to place the point,
        and a point off the mesh near O is -1 only once every centroid
        within reach was tested."""
        rim = 0.1 * np.array([[math.cos(a), math.sin(a)]
                              for a in np.linspace(0.5 * math.pi, 2 * math.pi, 101)])
        nodes = np.vstack([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], rim])
        fan = [(0, 3 + j, 4 + j) for j in range(100)]
        # locate reads only the nodes and triangles; the fan hangs on the
        # large element's sides, which no conformity check sees here
        mesh = Mesh(nodes=nodes, triangles=np.array([(0, 1, 2)] + fan), boundary_edges=None,
                    vertex_map=None, polygon=None, size_fn=None)
        space = P2Space(mesh)
        pts = np.array([[0.01, 0.01], [0.02, 0.005],        # in the large element
                        [-0.05, 0.01], [0.03, -0.04],       # in the fan
                        [0.2, -0.2], [-0.01, 0.5], [5.0, 5.0]])  # off the mesh
        cent = nodes[mesh.triangles].mean(axis=1)
        nearer = np.linalg.norm(cent[1:] - pts[0], axis=1) < np.linalg.norm(cent[0] - pts[0])
        assert nearer.sum() > 64
        held, lam = self.holders(mesh, pts)
        tri, xi = space.locate(pts)
        assert list(tri[:2]) == [0, 0] and (tri[2:4] > 0).all() and (tri[4:] == -1).all()
        assert np.array_equal(tri >= 0, held.any(axis=1))
        k = np.nonzero(tri >= 0)[0]
        assert held[k, tri[k]].all()
        assert np.allclose(xi[k], np.clip(lam[k, tri[k]], 0, 1), atol=1e-12)


class TestSharedConnectivity:
    """A chain of plain carries assembles into, and factors in, its record's
    shared pattern and order; each solve is a pure function of its mesh."""

    @staticmethod
    def chain(k=20):
        """Three plain carries at h = diameter / k: 1069 dofs at k = 20,
        3697 dofs (above ``_BAND_MAX_DOFS``) at k = 45."""
        T = [isosceles_triangle(math.radians(a)) for a in (50, 50.02, 50.04)]
        h = T[0].diameter / k
        meshes = [triangulate(T[0], h)]
        for P in T[1:]:
            meshes.append(triangulate(P, h, warm_start=meshes[-1]))
        assert [m.origin for m in meshes] == ["fresh", "warm", "warm"]
        assert all(m._connectivity is meshes[0]._connectivity for m in meshes)
        return meshes

    def test_carried_assembly_is_scipys(self):
        mesh = self.chain()[-1]
        space = P2Space(mesh)
        assert space.dof is P2Space(mesh).dof and not space.dof.flags.writeable
        own = P2Space(dataclasses.replace(mesh))          # its own record: SciPy's COO -> CSR
        assert np.array_equal(space.dof, own.dof)
        for got, want in zip(space.matrices, own.matrices):
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert "pattern" in vars(space._structure)

    def test_unshared_record_builds_no_pattern(self):
        sol = solve_second(triangulate(L_SHAPE, 0.2))
        structure = sol.space._structure
        assert not sol.mesh._connectivity.shared
        assert "pattern" not in vars(structure)
        assert structure.order is not None

    def test_carried_operator_is_the_permuted_shift(self, monkeypatch):
        mesh = self.chain(45)[-1]
        seen = []
        splu = spla.splu
        monkeypatch.setattr(eigensolver.spla, "splu",
                            lambda A, **kwargs: seen.append(A) or splu(A, **kwargs))
        sol = solve_second(mesh)
        assert sol.diagnostics["factor"] == "superlu"
        K, M = sol.space.matrices
        sigma = -0.25 * (2 * math.pi / mesh.polygon.diameter) ** 2
        p = eigensolver._nested_dissection(sol.space._structure)
        ref = (K - sigma * M)[p][:, p].tocsc()
        (A,) = seen
        for got, want in ((A.indptr, ref.indptr), (A.indices, ref.indices), (A.data, ref.data)):
            assert np.array_equal(got, want)

    def test_band_layout_built_once_per_chain(self, monkeypatch):
        calls = []
        rcm = eigensolver.reverse_cuthill_mckee
        monkeypatch.setattr(eigensolver, "reverse_cuthill_mckee",
                            lambda *a, **k: calls.append(1) or rcm(*a, **k))
        sols = [solve_second(m) for m in self.chain()]
        assert len(calls) == 1
        assert {s.diagnostics["factor"] for s in sols} == {"band"}

    def test_dissection_order_is_the_owners(self):
        # a square's mesh carried onto a 35 deg rhombus, with no angle bound
        import hotspots.mesh as mesh_mod
        a = math.radians(35)
        R = Polygon([[0, 0], [1, 0], [1 + math.cos(a), math.sin(a)], [math.cos(a), math.sin(a)]])
        warm = triangulate(unit_square(), 0.2)
        size = mesh_mod._SizeFunction(R, 0.2)
        carried, reason = mesh_mod._transported(warm, size, *mesh_mod._boundary_stations(R, size),
                                                0.0)
        assert reason is None and carried._connectivity is warm._connectivity
        order = eigensolver._nested_dissection(P2Space(carried)._structure)
        assert np.array_equal(order, eigensolver._nested_dissection(P2Space(warm)._structure))
        # the rhombus's own centroids give another order
        own = eigensolver._nested_dissection(P2Space(dataclasses.replace(carried))._structure)
        assert not np.array_equal(order, own)

    def test_solves_do_not_depend_on_order(self):
        forward = [solve_second(m) for m in self.chain()]
        backward = [solve_second(m) for m in self.chain()[::-1]][::-1]
        again = solve_second(forward[-1].mesh)
        for a, b in zip(forward, backward):
            assert a.mu == b.mu and a.coef.tobytes() == b.coef.tobytes()
        assert again.mu == forward[-1].mu and again.coef.tobytes() == forward[-1].coef.tobytes()
