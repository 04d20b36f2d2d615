import math

import numpy as np
import pytest
from scipy.special import jv

from hotspots.geometry import Polygon, unit_square, isosceles_triangle, triangle_from_angles
from hotspots.corpus import random_simple_polygon
from hotspots.eigensolver import solve_second
from hotspots.mesh import triangulate
from hotspots.bessel import BesselExpansion
from hotspots.nodal import (ScalarField, trace, arc_ends_at_vertex,
                            wedge_probe, analytic_arc_verdict, GraphNode, NodalGraph)

from oracles import AnalyticSolution, fit_sector_coefficients


def cos_mode_solution():
    P = unit_square()
    f = lambda p: np.cos(math.pi * p[:, 0])
    gf = lambda p: np.column_stack([-math.pi * np.sin(math.pi * p[:, 0]),
                                    np.zeros(len(p))])
    return AnalyticSolution(P, math.pi ** 2, f, gf, h_nominal=0.02)


def sector_solution(beta, coeffs, mu=5.0, extent=1.0):
    """Manufactured Neumann sector data on a wedge-shaped triangle."""
    nu = math.pi / beta
    P = Polygon([[0, 0], [extent, 0], [extent * math.cos(beta), extent * math.sin(beta)]])

    def u(pts):
        r = np.linalg.norm(pts, axis=1)
        th = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.zeros(len(pts))
        for n, c in enumerate(coeffs):
            out += c * jv(n * nu, math.sqrt(mu) * r) * np.cos(n * nu * th)
        return out

    def gu(pts):
        d = 1e-7
        ex = np.array([d, 0.0])
        ey = np.array([0.0, d])
        gx = (u(pts + ex) - u(pts - ex)) / (2 * d)
        gy = (u(pts + ey) - u(pts - ey)) / (2 * d)
        return np.column_stack([gx, gy])

    return AnalyticSolution(P, mu, u, gu, h_nominal=0.01)


class TestTraceClosedForm:
    def test_square_nodal_line(self):
        g = trace(ScalarField.u(cos_mode_solution()))
        rep = g.simple_arc_report()
        assert rep["is_simple_arc"]
        assert rep["endpoint_sides"] == [0, 2]
        pts = g.polyline_points()
        assert np.abs(pts[:, 0] - 0.5).max() < 1e-6

    def test_square_derivative_field_boundary_only(self):
        # Z(d/dx u) = sides x=0 and x=1; interior part empty
        g = trace(ScalarField.directional(cos_mode_solution(), 0.0))
        assert sorted(g.zero_sides) == [1, 3]
        assert len(g.edges) == 0

    def test_sign_consistency_along_polyline(self):
        sol = cos_mode_solution()
        g = trace(ScalarField.u(sol))
        for _, _, pl in g.edges:
            mid = pl[len(pl) // 2]
            tangent = pl[len(pl) // 2 + 1] - pl[len(pl) // 2 - 1]
            n = np.array([-tangent[1], tangent[0]])
            n /= np.linalg.norm(n)
            d = 1e-3
            va = sol.eval((mid + d * n)[None, :])[0]
            vb = sol.eval((mid - d * n)[None, :])[0]
            assert va * vb < 0

    def test_empty_graph_has_no_degree_one_nodes(self):
        # strictly positive field: empty zero set
        P = unit_square()
        sol = AnalyticSolution(P, 1.0, lambda p: 1.0 + p[:, 0],
                               lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]))
        g = trace(ScalarField.u(sol))
        assert len(g.edges) == 0
        assert g.degree_one_nodes() == []


class TestTraceFEM:
    def test_obtuse_triangle_simple_arc(self, solve_cached):
        T = triangle_from_angles(math.radians(30), math.radians(35))
        sol = solve_cached(T, 0.035)
        g = trace(ScalarField.u(sol))
        rep = g.simple_arc_report()
        assert rep["is_simple_arc"]
        assert len(set(rep["endpoint_sides"])) == 2
        # no critical point on the nodal line: gradient stays above the floor
        pts = g.polyline_points()
        gn = np.linalg.norm(sol.eval_grad(pts), axis=1)
        gn = gn[np.isfinite(gn)]
        assert gn.min() > 1e-3 * math.sqrt(sol.mu) * np.abs(sol.coef).max()

    def test_isosceles_axis_arc(self, solve_cached):
        # u is symmetric, so d/dx u vanishes on the symmetry axis: the traced
        # graph contains an arc from the base midpoint to the apex vertex
        T = isosceles_triangle(math.radians(50))
        sol = solve_cached(T, 0.035)
        g = trace(ScalarField.directional(sol, 0.0))
        deg1 = g.degree_one_nodes()
        assert len(deg1) >= 2
        assert any(n.locus == ("vertex", 2) for n in deg1)       # apex, off the base
        pts = g.polyline_points()
        assert np.abs(pts[:, 0] - 0.5).max() < 0.02              # the axis


class TestTraceOracles:
    """Exactness of the mesh-native tracer on the obtuse 30/35 deg solution."""

    @pytest.fixture(scope="class")
    def sol(self, solve_cached):
        T = triangle_from_angles(math.radians(30), math.radians(35))
        return solve_cached(T, 0.035)

    def test_traced_points_are_zeros_of_u_h(self, sol):
        pts = trace(ScalarField.u(sol)).polyline_points()
        assert len(pts) > 0
        assert np.abs(sol.eval(pts)).max() <= 1e-10 * np.abs(sol.coef).max()

    def test_side_ends_lie_on_their_side(self, sol):
        P = sol.polygon
        for fld in (ScalarField.u(sol), ScalarField.rotational(sol, (0.3, 0.1)),
                    ScalarField.directional(sol, 0.4)):
            for n in trace(fld).degree_one_nodes():
                if isinstance(n.locus, tuple) and n.locus[0] == "side":
                    assert P.distance_to_side(n.point, n.locus[1]) <= 1e-12 * P.diameter

    def test_trace_is_deterministic(self, sol):
        for make in (ScalarField.u, lambda s: ScalarField.rotational(s, s.polygon.centroid)):
            g1, g2 = trace(make(sol)), trace(make(sol))
            assert [(n.locus, n.degree) for n in g1.nodes] == \
                [(n.locus, n.degree) for n in g2.nodes]
            assert np.array_equal(np.array([n.point for n in g1.nodes]),
                                  np.array([n.point for n in g2.nodes]))
            assert [(a, b) for a, b, _ in g1.edges] == [(a, b) for a, b, _ in g2.edges]
            assert all(np.array_equal(p1, p2) for (_, _, p1), (_, _, p2)
                       in zip(g1.edges, g2.edges))

    def test_corpus_end_near_a_small_vertex_value(self):
        # the tenth polygon drawn with seed 1 the way the corpus draws them:
        # u_h is small but nonzero at vertex 1, so Z(u) ends on side 1, not there
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(5, 8))
            P = random_simple_polygon(rng, n)
        sol = solve_second(triangulate(P, P.diameter / 26))
        rep = trace(ScalarField.u(sol)).simple_arc_report()
        assert rep["is_simple_arc"], rep
        assert rep["endpoint_sides"] == [1, 3]


class TestNodalGraph:
    def test_n_components(self):
        # a path 0-1-2, a loop 3-4 with a doubled edge, and node 5 alone
        nodes = [GraphNode(i, np.array([float(i), 0.0]), "interior") for i in range(6)]
        pl = np.zeros((2, 2))
        edges = [(0, 1, pl), (2, 1, pl), (3, 4, pl), (4, 3, pl)]
        g = NodalGraph(nodes=nodes, edges=edges, zero_sides=[], unresolved=[])
        assert g.n_components() == 3
        assert g.euler_data()["n_components"] == 3

    def test_empty_graph_has_no_components(self):
        g = NodalGraph(nodes=[], edges=[], zero_sides=[], unresolved=[])
        assert g.n_components() == 0
        assert g.simple_arc_report()["is_simple_arc"] is False


class TestArcAtVertex:
    def test_case_a_interval(self):
        # c0-dominant, beta = pi/3: arc iff psi in [pi/2, pi/2 + beta] mod pi
        beta = math.pi / 3
        sol = sector_solution(beta, [1.0, 0.0, 0.2])
        v_in = arc_ends_at_vertex(ScalarField.directional(sol, math.pi / 2 + beta / 2), 0)
        assert v_in.verdict is True and v_in.agree
        v_out = arc_ends_at_vertex(ScalarField.directional(sol, math.pi / 4), 0)
        assert v_out.verdict is False and v_out.agree

    def test_case_b_interval(self):
        # c1 != 0, beta = 2pi/3: arc iff psi in [beta - pi/2, pi/2] mod pi;
        # psi = 0 is outside [pi/6, pi/2]
        beta = 2 * math.pi / 3
        sol = sector_solution(beta, [0.6, 1.0])
        v = arc_ends_at_vertex(ScalarField.directional(sol, 0.0), 0)
        assert v.verdict is False and v.agree
        v2 = arc_ends_at_vertex(ScalarField.directional(sol, math.pi / 3), 0)
        assert v2.verdict is True and v2.agree

    def test_at_most_one_arc(self):
        beta = math.pi / 3
        sol = sector_solution(beta, [1.0, 0.0, 0.2])
        fld = ScalarField.directional(sol, math.pi / 2 + beta / 2)
        probe = wedge_probe(fld, 0)
        assert all(n <= 1 for n in [len(r) for r in probe.root_thetas])
        # the crossings equal a sample-by-sample loop over each arc
        apex, alpha, _ = sol.polygon.vertex_frame(0)
        th = np.linspace(1e-4 * beta, beta * (1 - 1e-4), 241)
        for rho, got in zip(probe.radii, probe.root_thetas):
            f = fld.eval(apex + rho * np.column_stack([np.cos(alpha + th), np.sin(alpha + th)]))
            roots = [th[k] + f[k] / (f[k] - f[k + 1]) * (th[k + 1] - th[k])
                     for k in range(240) if f[k] * f[k + 1] < 0]
            assert got == [r for r in roots if 0.04 * beta <= r <= beta - 0.04 * beta]
        assert [len(r) for r in probe.root_thetas] == [1, 1, 1]

    def test_rotational_field_extremum_criterion(self, solve_cached):
        # convex polygon, w interior: arc of Z(R_w u) ends at v iff v extremum
        T = triangle_from_angles(math.radians(30), math.radians(35))
        sol = solve_cached(T, 0.035)
        w = T.centroid
        fld = ScalarField.rotational(sol, w)
        v0 = arc_ends_at_vertex(fld, 0)      # acute vertex: extremum
        v2 = arc_ends_at_vertex(fld, 2)      # obtuse vertex: not an extremum
        assert v0.verdict is True
        assert v2.verdict is False

    def test_right_angle_falls_back_to_geometric(self):
        sol = cos_mode_solution()
        v = arc_ends_at_vertex(ScalarField.directional(sol, 0.3), 0)
        assert v.method == "geometric"
        assert "pi/2" in v.notes


class TestAnalyticVerdict:
    def test_reflex_interval(self):
        # beta > pi: interval [pi/2, beta - pi/2]
        beta = 4 * math.pi / 3
        sol = sector_solution(beta, [0.5, 1.0], extent=0.8)
        exp_fit = None
        exp_fit = fit_sector_coefficients(sol.eval, sol.mu, [0, 0], 0.0, beta,
                                          0.02, 0.2)
        v, margin, near, note = analytic_arc_verdict(exp_fit, psi_local=0.6 * math.pi)
        assert v is True
        v2, *_ = analytic_arc_verdict(exp_fit, psi_local=0.1)
        assert v2 is False

    def test_near_boundary_flagged(self):
        beta = math.pi / 3
        sol = sector_solution(beta, [1.0])
        exp_fit = fit_sector_coefficients(sol.eval, sol.mu, [0, 0], 0.0, beta,
                                          0.05, 0.4)
        v, margin, near, note = analytic_arc_verdict(exp_fit,
                                                     psi_local=math.pi / 2 + 0.01)
        assert near is True and abs(margin) <= 0.05


def expansion(beta, mags):
    """A vertex expansion whose mode magnitudes relative to the annulus
    scale are ``mags``."""
    mags = np.asarray(mags, dtype=float)
    return BesselExpansion(vertex=0, beta=beta, nu=math.pi / beta, mu=1.0, coeffs=mags,
                           r_in=0.05, r_out=0.4, residual=0.0, scale=1.0,
                           contributions=mags)


PI = math.pi


class TestAnalyticVerdictTable:
    """Every branch of ``analytic_arc_verdict`` on hand-built expansions:
    (beta, magnitudes, field parameter, verdict, note)."""

    @pytest.mark.parametrize("beta, mags, psi, verdict, note", [
        # straight vertex: the arc lies on the boundary, iff psi = pi/2 mod pi
        (PI, [1.0, 1.0], PI / 2, True, "straight vertex: boundary-lying arc"),
        (PI, [1.0, 1.0], 0.3, False, "straight vertex: boundary-lying arc"),
        # reflex: interval [pi/2, beta - pi/2], needs c1
        (4 * PI / 3, [1.0, 1.0], 0.6 * PI, True, ""),
        (4 * PI / 3, [1.0, 0.0, 1.0], 0.6 * PI, None, "reflex vertex with c1 = 0: not covered"),
        (PI / 3, [0.0, 0.0, 1.0], PI / 2, None, "c0 and c1 both vanish"),
        # c0-led: [pi/2, pi/2 + beta]
        (PI / 3, [1.0, 1.0], 0.6 * PI, True, ""),
        (PI / 3, [1.0, 1.0], 0.1, False, ""),
        (2 * PI / 3, [1.0, 0.0], 0.3 * PI, False, ""),
        # c1-led: [beta - pi/2, pi/2], also for beta < pi/2 once c0 vanishes
        (PI / 3, [0.0, 1.0], PI / 4, True, ""),
        (PI / 3, [0.0, 1.0], 0.6 * PI, False, ""),
        (2 * PI / 3, [1.0, 1.0], PI / 3, True, ""),
        (2 * PI / 3, [1.0, 1.0], 0.0, False, ""),
        (PI / 2, [1.0, 1.0], 0.3, None, "no applicable coefficient case"),
    ])
    def test_constant_field(self, beta, mags, psi, verdict, note):
        v, margin, near, got = analytic_arc_verdict(expansion(beta, mags), psi_local=psi)
        assert v is verdict and got == note
        assert (margin is None) == (verdict is None)
        if margin is not None:
            assert (margin > 0) == verdict or beta == PI

    @pytest.mark.parametrize("beta, mags, w, verdict, note", [
        (PI / 3, [1.0, 1.0], PI / 6, True, ""),            # c0-led: w in the sector
        (PI / 3, [1.0, 1.0], 2 * PI / 3, False, ""),
        (PI / 3, [0.0, 1.0], PI / 6, False, ""),           # c1-led: w outside it
        (PI / 3, [0.0, 1.0], 2 * PI / 3, True, ""),
        (PI / 3, [0.0, 0.0, 1.0], PI / 6, None, "c0 and c1 both vanish"),
        (2 * PI / 3, [1.0, 1.0], PI / 3, False, ""),       # c1-led for beta > pi/2
        (2 * PI / 3, [1.0, 0.0], PI / 3, True, ""),
        (2 * PI / 3, [0.0, 0.0, 1.0], PI / 3, None, "c0 and c1 both vanish"),
        (PI / 3, [1.0, 1.0], 0.01, True, "w on sector boundary"),
        (PI, [1.0, 1.0], 0.5, None, "rotational criterion needs beta < pi"),
        (4 * PI / 3, [1.0, 1.0], 0.5, None, "rotational criterion needs beta < pi"),
    ])
    def test_rotational_field(self, beta, mags, w, verdict, note):
        v, margin, near, got = analytic_arc_verdict(expansion(beta, mags), w_local_angle=w)
        assert v is verdict and got == note
        assert near == (note == "w on sector boundary")

    def test_no_field_parameter(self):
        assert analytic_arc_verdict(expansion(PI / 3, [1.0, 1.0])) == \
            (None, None, False, "no field parameter")


class TestWedgeProbeInconclusive:
    def test_field_vanishing_near_the_vertex(self):
        """u = (x - 1/2)^3 for x > 1/2 and 0 elsewhere on the unit square:
        it vanishes on every probe arc at vertex (0, 0), so that probe is
        inconclusive, while at vertex (1, 0) it is conclusive with no
        crossing."""
        f = lambda p: np.where(p[:, 0] > 0.5, (p[:, 0] - 0.5) ** 3, 0.0)
        gf = lambda p: np.column_stack([np.where(p[:, 0] > 0.5, 3 * (p[:, 0] - 0.5) ** 2, 0.0),
                                        np.zeros(len(p))])
        sol = AnalyticSolution(unit_square(), 1.0, f, gf, h_nominal=0.05)
        fld = ScalarField.u(sol)
        assert fld.scale > 0.1
        v0 = int(np.argmin(np.linalg.norm(sol.polygon.vertices - [0, 0], axis=1)))
        v1 = int(np.argmin(np.linalg.norm(sol.polygon.vertices - [1, 0], axis=1)))
        probe = wedge_probe(fld, v0)
        assert probe.ends_at_vertex is None
        assert probe.root_thetas == [[], [], []]
        other = wedge_probe(fld, v1)
        assert other.ends_at_vertex is False and [len(r) for r in other.root_thetas] == [0, 0, 0]
