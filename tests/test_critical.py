import math
from types import SimpleNamespace

import numpy as np
import pytest

from hotspots.geometry import (Polygon, unit_square, isosceles_triangle,
                               triangle_from_angles)
from hotspots.config import DEFAULTS
from hotspots.mesh import triangulate, refine
from hotspots.eigensolver import solve_second
from hotspots.bessel import BesselExpansion, FitError
from hotspots.critical import (find_critical_points, index_of, verify_index_formula,
                               cusp_diagnostic, classify_vertex, CriticalPoint, IndexResult,
                               estimate_hessian, _side_tangential_roots, _grad_scale,
                               _probe_radii, _count_sign_changes, _arc_index,
                               _expansion_index, _vertex_verdict)
from hotspots.nodal import ScalarField, trace
from hotspots.corpus import random_simple_polygon

from oracles import AnalyticSolution


@pytest.fixture(scope="module")
def obtuse_sol(solve_cached):
    return solve_cached(triangle_from_angles(math.radians(30), math.radians(35)), 0.035)


@pytest.fixture(scope="module")
def isosceles_sol(solve_cached):
    return solve_cached(isosceles_triangle(math.radians(50)), 0.035)


class TestIndexOf:
    def test_interior_local_max(self):
        P = unit_square()
        f = lambda p: 1.0 - (p[:, 0] - 0.5) ** 2 - (p[:, 1] - 0.5) ** 2
        gf = lambda p: np.column_stack([-2 * (p[:, 0] - 0.5), -2 * (p[:, 1] - 0.5)])
        sol = AnalyticSolution(P, 1.0, f, gf, h_nominal=0.02)
        res = index_of(sol, np.array([0.5, 0.5]), "interior")
        assert res.index == 1 and res.n_arcs == 0

    def test_interior_saddle(self):
        P = unit_square()
        f = lambda p: (p[:, 0] - 0.5) ** 2 - (p[:, 1] - 0.5) ** 2
        gf = lambda p: np.column_stack([2 * (p[:, 0] - 0.5), -2 * (p[:, 1] - 0.5)])
        sol = AnalyticSolution(P, 1.0, f, gf, h_nominal=0.02)
        res = index_of(sol, np.array([0.5, 0.5]), "interior")
        assert res.index == -1 and res.n_arcs == 4

    def test_isosceles_base_midpoint(self, isosceles_sol):
        res = index_of(isosceles_sol, np.array([0.5, 0.0]), ("side", 0))
        assert res.index == -1

    def test_acute_vertex_extremum(self, obtuse_sol):
        info = classify_vertex(obtuse_sol, 0)
        assert info["index"] == 1
        assert info["probe_index"] == 1 and info["agree"]


class TestFindCriticalPoints:
    def test_obtuse_triangle_exactly_two_acute_vertices(self, obtuse_sol):
        cs = find_critical_points(obtuse_sol)
        assert not cs.degenerate
        assert len(cs.points) == 2
        assert {p.locus for p in cs.points} == {("vertex", 0), ("vertex", 1)}
        assert all(p.index == 1 and p.is_extremum for p in cs.points)

    def test_isosceles_four_points(self, isosceles_sol):
        cs = find_critical_points(isosceles_sol)
        vertex_pts = cs.by_kind("vertex")
        side_pts = cs.by_kind("side")
        assert len(vertex_pts) == 3 and all(p.index == 1 for p in vertex_pts)
        assert len(side_pts) == 1
        saddle = side_pts[0]
        assert saddle.index == -1
        h = float(isosceles_sol.h_at(saddle.location[None, :])[0])
        assert np.linalg.norm(saddle.location - [0.5, 0.0]) < 2 * h
        assert len(cs.points) == 4

    def test_u_nonzero_on_base(self, isosceles_sol):
        s = np.linspace(0, 1, 300)
        base = np.column_stack([s, np.zeros_like(s)])
        vals = isosceles_sol.eval(base)
        assert np.nanmin(np.abs(vals)) > 0.05 * np.abs(isosceles_sol.coef).max()

    def test_rectangle_like_degenerate(self):
        P = unit_square()
        f = lambda p: np.cos(math.pi * p[:, 0])
        gf = lambda p: np.column_stack([-math.pi * np.sin(math.pi * p[:, 0]),
                                        np.zeros(len(p))])
        sol = AnalyticSolution(P, math.pi ** 2, f, gf, h_nominal=0.03)
        cs = find_critical_points(sol)
        assert cs.degenerate
        assert {d.description.split()[-1] for d in cs.degenerate_loci if d.kind == "side"} \
            == {"1", "3"}

    def test_nonvertex_indices_in_range(self, corpus_solutions):
        # second-eigenfunction nonvertex indices are 1, 0 or -1
        for sol in corpus_solutions[:5]:
            cs = find_critical_points(sol)
            for p in cs.points:
                if p.kind != "vertex" and p.index is not None:
                    assert p.index in (-1, 0, 1)

    def test_first_two_coefficients_not_both_zero(self, corpus_solutions):
        # simply connected: c0 and c1 cannot both vanish at a vertex
        from hotspots.bessel import fit_coefficients
        for sol in corpus_solutions[:5]:
            for vid in range(sol.polygon.n):
                mags = fit_coefficients(sol, vid).magnitudes()
                assert max(mags[0], mags[1]) > 1e-4


def _interpolant(solve_cached, P, h, f, mu):
    """P2 interpolant of f on the mesh of P, as an EigenSolution."""
    base = solve_cached(P, h)
    return base.with_coef(f(base.space.dof_points()), mu=mu)


_PI = math.pi
# (polygon, h, (a, b) for cos(a x) cos(b y), interior critical points, indices)
_INTERIOR_CASES = {
    "2pi_pi": (unit_square(), 0.05, (2 * _PI, _PI),
               [(0.25, 0.5), (0.75, 0.5)], [-1, -1]),
    "pi_2pi": (unit_square(), 0.05, (_PI, 2 * _PI),
               [(0.5, 0.25), (0.5, 0.75)], [-1, -1]),
    "2pi_2pi": (unit_square(), 0.05, (2 * _PI, 2 * _PI),
                [(0.25, 0.25), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (0.75, 0.75)],
                [-1, -1, 1, -1, -1]),
    "rect_3pi/2_pi": (Polygon([[0, 0], [2, 0], [2, 1], [0, 1]]), 0.08, (1.5 * _PI, _PI),
                      [(1 / 3, 0.5), (1.0, 0.5), (5 / 3, 0.5)], [-1, -1, -1]),
}


class TestInteriorOracle:
    """Positive oracle: P2 interpolants of separable cosine modes, whose
    interior critical points and indices are known in closed form."""

    @pytest.mark.parametrize("case", list(_INTERIOR_CASES))
    def test_interior_points_and_indices(self, solve_cached, case):
        P, h, (a, b), want, idx = _INTERIOR_CASES[case]
        sol = _interpolant(solve_cached, P, h,
                           lambda p: np.cos(a * p[:, 0]) * np.cos(b * p[:, 1]),
                           a * a + b * b)
        cs = find_critical_points(sol)
        assert not cs.degenerate
        got = cs.by_kind("interior")
        assert len(got) == len(want)
        for p in got:
            d = np.linalg.norm(np.array(want) - p.location, axis=1)
            k = int(np.argmin(d))
            assert d[k] < 0.25 * h
            assert p.index == idx[k]
        nearest = {int(np.argmin(np.linalg.norm(np.array(want) - p.location, axis=1)))
                   for p in got}
        assert nearest == set(range(len(want)))
        rep = verify_index_formula(sol, cs)
        assert rep.passed and rep.rhs == 2


class TestSideRoots:
    def test_root_at_boundary_node(self, solve_cached):
        # |x - x_k| is linear on every edge of side 0, with slope -1 left of
        # the node x_k and +1 right of it: the only root is the node itself
        base = solve_cached(unit_square(), 0.05)
        nodes = base.mesh.nodes
        on_side = np.nonzero((np.abs(nodes[:, 1]) < 1e-12)
                             & (nodes[:, 0] > 1e-9) & (nodes[:, 0] < 1 - 1e-9))[0]
        xk = float(nodes[on_side[np.argmin(np.abs(nodes[on_side, 0] - 0.5))], 0])
        sol = base.with_coef(np.abs(base.space.dof_points()[:, 0] - xk))
        (roots, pts), = _side_tangential_roots(sol, [0], zero_rtol=2e-2,
                                               gscale=_grad_scale(sol))
        assert roots == [pytest.approx(xk, abs=1e-14)]
        assert np.all(pts[:, 1] == 0) and np.all(np.diff(pts[:, 0]) > 0)


class TestIndexFormula:
    def test_obtuse(self, obtuse_sol):
        rep = verify_index_formula(obtuse_sol)
        assert rep.passed and rep.rhs == 2

    def test_isosceles(self, isosceles_sol):
        rep = verify_index_formula(isosceles_sol)
        assert rep.passed and rep.rhs == 2
        assert rep.terms["boundary_sum"] == 2

    def test_degenerate_inconclusive(self):
        P = unit_square()
        f = lambda p: np.cos(math.pi * p[:, 0])
        gf = lambda p: np.column_stack([-math.pi * np.sin(math.pi * p[:, 0]),
                                        np.zeros(len(p))])
        sol = AnalyticSolution(P, math.pi ** 2, f, gf, h_nominal=0.03)
        rep = verify_index_formula(sol)
        assert rep.passed is None and rep.degenerate


class TestLineLocus:
    """Positive oracle for the interior 'line' locus: cos(2 pi x) on the unit
    square is critical on the whole segment x = 1/2."""

    @pytest.mark.parametrize("h", [0.02, 0.03])
    def test_collinear_zeros_reported_as_line(self, h):
        f = lambda p: np.cos(2 * math.pi * p[:, 0])
        gf = lambda p: np.column_stack([-2 * math.pi * np.sin(2 * math.pi * p[:, 0]),
                                        np.zeros(len(p))])
        sol = AnalyticSolution(unit_square(), 4 * math.pi ** 2, f, gf, h_nominal=h)
        cs = find_critical_points(sol)
        lines = [d for d in cs.degenerate_loci if d.kind == "line"]
        assert len(lines) == 1
        pts = lines[0].points
        assert len(pts) >= DEFAULTS.degenerate_collinear_count
        assert np.abs(pts[:, 0] - 0.5).max() < 1e-4
        assert np.ptp(pts[:, 1]) > 0.5
        assert not cs.by_kind("interior")
        assert verify_index_formula(sol, cs).degenerate


    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="9 zeros survive the dedupe, below degenerate_collinear_count")
    def test_coarse_mesh_segment_reported_as_line(self):
        # the P2 interpolant of cos(2 pi x) on a coarse unstructured mesh:
        # today 9 isolated index-1 points on x = 1/2 and no line locus
        sol = solve_second(triangulate(unit_square(), 0.05))
        x = sol.space.dof_points()[:, 0]
        cs = find_critical_points(sol.with_coef(np.cos(2 * math.pi * x), mu=4 * math.pi ** 2))
        lines = [d for d in cs.degenerate_loci if d.kind == "line"]
        assert len(lines) == 1
        assert np.abs(lines[0].points[:, 0] - 0.5).max() < 1e-4
        assert not cs.by_kind("interior")


class TestProbeFallback:
    def test_radius_disagreement_is_noted(self, solve_cached):
        """The `corpus` benchmark workload, seed 2, polygon 7: reflex vertex 1
        (208.4 deg) absorbs the side-0 saddle, and its two probe radii count
        2 and 1 arcs.  The expansion index 0 stands, and the note says so."""
        P = Polygon([[0.03826164124624677, 1.2493933149116354],
                     [-0.41005887206307373, 0.8051275305344998],
                     [-0.9024722369882898, 0.6609802053708982],
                     [-1.0488636512419383, -0.1528883302744483],
                     [0.7181342205318183, -0.8259113568251462],
                     [0.6933198089347676, -0.4031338458114908]])
        assert abs(math.degrees(P.vertex_frame(1)[2]) - 208.4) < 0.05
        info = find_critical_points(solve_cached(P, P.diameter / 26)).vertex_table[1]
        assert info["absorbed_distances"]
        assert info["probe_index"] is None
        assert info["index"] == info["expansion_index"] == 0
        assert info["note"] == "probe radius disagreement (counts [2, 1]): expansion index 0 kept"

    def test_radius_collapse_is_noted(self, polygon_corpus, corpus_solutions):
        """Corpus polygon 18 (0-based): obtuse vertex 2 absorbs a side root,
        and both of its composite probe radii hit the cap of half the
        annulus reference, so the two probe circles are one.  The index
        stays the probe total; the note names the collapse and the radius."""
        P = polygon_corpus[18]
        info = find_critical_points(corpus_solutions[18]).vertex_table[2]
        r_cap = 0.5 * P.vertex_clearance[2]
        assert abs(r_cap - 0.15081) < 5e-6
        assert info["absorbed_distances"]
        assert (info["index"], info["expansion_index"], info["probe_index"]) == (1, 0, 1)
        assert info["note"].endswith(
            f"probe radii collapse to one circle at the annulus cap r = {r_cap:.5g}")


class TestProbeRadii:
    """The vertex rules of ``_probe_radii`` on the unit square, whose corner
    0 has annulus reference 1 (cap 0.5), with a uniform mesh size h."""

    @staticmethod
    def radii(h, **kw):
        sol = SimpleNamespace(polygon=unit_square(), h_at=lambda pts: np.full(len(pts), h))
        return _probe_radii(sol, np.zeros(2), ("vertex", 0), **kw)

    @pytest.mark.parametrize("h, kw, expected", [
        (0.01, {}, [0.03, 0.015]),                                    # 3 h and 1.5 h
        (0.2, {}, [0.5, 0.25]),                                       # 3 h capped, then halved
        (0.01, {"absorbed": [0.005, 0.012]}, [2.8 * 0.012, 2.2 * 0.012]),
        (0.01, {"absorbed": [0.005]}, [0.033, 0.025]),                # 3.3 h and 2.5 h
        (0.01, {"absorbed": [0.012], "nearest": 0.01}, [2.8 * 0.012, 2.2 * 0.012]),
        (0.01, {"nearest": 0.02}, [0.014, 0.007]),                    # 0.7 and 0.35 of it
        (0.01, {"nearest": 0.035}, [0.03, 0.015]),                    # not nearer than 3.5 h
        (0.2, {"absorbed": [0.2]}, [0.5, 0.5]),                       # both at the cap
        (0.5, {"nearest": 1.5}, [0.5, 0.5]),                          # both at the cap
    ])
    def test_vertex_rules(self, h, kw, expected):
        assert self.radii(h, **kw) == pytest.approx(expected, rel=1e-12)

    def test_vertex_probe_ignores_the_other_vertices(self, solve_cached, monkeypatch):
        """The `corpus` benchmark workload, seed 2, polygon 19: no side or
        interior point lies near vertex 5, so its probe is sized with
        ``nearest`` = inf.  Vertex 4 (index 1), reported before it, lies
        3.10 h away; counting it would size the probe by the vertex
        numbering."""
        from hotspots import critical
        rng = np.random.default_rng(2)
        for _ in range(20):
            P = random_simple_polygon(rng, int(rng.integers(5, 8)))
        nearest = {}
        probe_radii = critical._probe_radii

        def spy(sol, p, locus, absorbed=(), near=math.inf):
            if locus[0] == "vertex":
                nearest[locus[1]] = near
            return probe_radii(sol, p, locus, absorbed, near)

        monkeypatch.setattr(critical, "_probe_radii", spy)
        find_critical_points(solve_cached(P, P.diameter / 26))
        assert nearest[5] == math.inf


class TestCountSignChanges:
    def test_counts_runs(self):
        vals = np.array([1.0, -1, 1, -1, 1, -1, 1, -1])
        assert _count_sign_changes(vals, cyclic=False, band=0.1) == 7
        assert _count_sign_changes(vals, cyclic=True, band=0.1) == 8

    def test_fewer_than_eight_finite_values(self):
        vals = np.array([1.0, -1, 1, -1, 1, -1, 1, np.nan, np.nan])
        assert _count_sign_changes(vals, cyclic=False, band=0.1) is None

    def test_every_value_inside_the_band(self):
        vals = np.linspace(-0.05, 0.05, 20)
        assert _count_sign_changes(vals, cyclic=True, band=0.1) is None


class TestArcIndex:
    """``_arc_index`` from the counts on the two probe radii."""

    @pytest.mark.parametrize("counts, interior, expected", [
        ([None, 2], False, (None, None, "probe failed")),     # before the disagreement
        ([2, None], True, (None, None, "probe failed")),
        ([2, 1], False, (None, None, "radius disagreement")),
        ([2, 2], False, (-1, 2, "")),                         # side or vertex: 1 - n
        ([0, 0], False, (1, 0, "")),
        ([3, 3], True, (None, 3, "odd interior arc count")),
        ([4, 4], True, (-1, 4, "")),                          # interior: 1 - n/2
        ([0, 0], True, (1, 0, "")),
    ], ids=["failed-first", "failed-second", "disagree", "boundary-2", "boundary-0",
            "interior-odd", "interior-4", "interior-0"])
    def test_outcomes(self, counts, interior, expected):
        assert _arc_index(counts, interior) == expected


def _expansion(beta, coeffs, mu=4.0):
    """A hand-built vertex expansion whose relative contributions are |c_n|."""
    coeffs = np.asarray(coeffs, dtype=float)
    return BesselExpansion(vertex=0, beta=beta, nu=math.pi / beta, mu=mu, coeffs=coeffs,
                           r_in=0.1, r_out=0.2, residual=0.0, scale=1.0,
                           contributions=np.abs(coeffs))


class TestExpansionIndex:
    """``_expansion_index``: k is the first n >= 1 with |c_n| above the
    vanish threshold; at beta = pi/2 and k = 1, |a| = 2 |c0 / c1|."""

    @pytest.mark.parametrize("beta, coeffs, expected", [
        (math.pi / 3, [1, 0, 0, 0, 0], (1, None, None, "all c_k, k >= 1, vanish at threshold")),
        (math.pi / 3, [0, 0, 0, 0, 0], (None, None, None, "all coefficients vanish at threshold")),
        (math.pi / 3, [0, 0, 1, 0, 0], (-1, 2, None, "u(v) = 0")),
        (math.pi / 3, [1, 0, 1, 0, 0], (1, 2, None, "")),           # beta < k pi/2
        (4 * math.pi / 3, [1, 0, 1, 0, 0], (-1, 2, None, "")),      # beta > k pi/2
        (2 * math.pi / 3, [1, 1, 0, 0, 0], (0, 1, None, "")),       # beta > k pi/2
    ], ids=["c0-only", "all-vanish", "u-zero", "beta-below", "beta-above-k2",
            "beta-above-k1"])
    def test_rules_off_the_right_angle(self, beta, coeffs, expected):
        assert _expansion_index(_expansion(beta, coeffs)) == expected

    @pytest.mark.parametrize("c1, index, note", [
        (0.25, 1, ""),                                              # |a| = 8 above the band
        (4.0, 0, ""),                                               # |a| = 0.5 below it
        (2.0, None, "|a| = 1.0000 near 1: undecidable at truncation order"),
    ], ids=["above-band", "below-band", "inside-band"])
    def test_right_angle_decided_by_a(self, c1, index, note):
        idx, k, a, got = _expansion_index(_expansion(math.pi / 2, [1, c1, 0, 0, 0]))
        assert (idx, k, got) == (index, 1, note)
        assert abs(a) == pytest.approx(2 / c1, rel=1e-12)


class TestVertexVerdict:
    """``_vertex_verdict`` from an expansion index and a probe result."""
    resolved = IndexResult(-1, 2, [2, 2], [0.2, 0.1])
    failed = IndexResult(None, None, [2, 1], [0.2, 0.1], "radius disagreement")

    @pytest.mark.parametrize("idx, probe, composite, expected", [
        (None, resolved, False, (-1, "resolved by probe count")),
        (-1, resolved, True, (-1, "")),
        (0, resolved, True, (-1, "composite: probe total -1 absorbs sub-resolution "
                                 "structure (expansion index 0)")),
        (0, resolved, False, (-1, "probe total -1 overrides expansion index 0")),
        (None, failed, True, (None, "")),
        (0, failed, True, (0, "probe radius disagreement (counts [2, 1]): "
                              "expansion index 0 kept")),
    ], ids=["resolved-by-probe", "agree", "composite", "overrides", "both-unresolved",
            "expansion-kept"])
    def test_outcomes(self, idx, probe, composite, expected):
        assert _vertex_verdict(idx, probe, composite) == expected


class TestOneQuery:
    """``find_critical_points`` reads u_h in one ``eval`` (every probe and
    every vertex fit grid) and the side and interior points' gradients in
    one ``eval_grad``, with each value the one a query of its own gives."""

    @pytest.fixture(scope="class")
    def field(self):
        # a planted field with side, interior and vertex points
        T = triangle_from_angles(math.radians(30), math.radians(35))
        sol = solve_second(triangulate(T, T.diameter / 20))
        x, y = sol.space.dof_points().T
        return sol.with_coef(np.cos(8 * x + 0.4) * np.cos(8 * y + 0.3))

    def test_one_eval_and_one_eval_grad(self, field, monkeypatch):
        from hotspots import bessel
        from hotspots.eigensolver import P2Space
        calls = {"eval": 0, "eval_grad": 0, "vertex_fit_grid": 0}
        for owner, name in ((P2Space, "eval"), (P2Space, "eval_grad"),
                            (bessel, "vertex_fit_grid")):
            def counting(*args, _orig=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _orig(*args)
            monkeypatch.setattr(owner, name, counting)
        cs = find_critical_points(field)
        assert {p.kind for p in cs.points} == {"side", "interior", "vertex"}
        assert calls["eval"] == 1 and calls["eval_grad"] <= 1
        assert calls["vertex_fit_grid"] == field.polygon.n

    def test_points_match_their_own_queries(self, field):
        cs = find_critical_points(field)
        found = [cp for cp in cs.points if cp.kind != "vertex"]
        assert found
        for cp in found:
            own = index_of(field, cp.location, cp.locus)
            g = field.eval_grad(cp.location[None, :])[0]
            assert cp.diagnostics["counts"] == own.counts
            assert cp.diagnostics["radii"] == own.radii
            assert cp.diagnostics["grad_residual"] == float(np.linalg.norm(g))
            assert (cp.index, cp.diagnostics["n_arcs"]) == (own.index, own.n_arcs)
        for vid, entry in cs.vertex_table.items():
            vpt = field.polygon.vertices[vid]
            nearest = min(float(np.linalg.norm(cp.location - vpt)) for cp in found)
            own = classify_vertex(field, vid, absorbed=entry.get("absorbed_distances", ()),
                                  nearest=nearest)
            assert own.keys() == entry.keys()
            for key, value in own.items():
                if key == "expansion":
                    assert value.coeffs.tobytes() == entry[key].coeffs.tobytes()
                else:
                    assert value == entry[key], key


class TestFitFailure:
    def test_failed_fit_is_an_unresolved_vertex(self, monkeypatch, obtuse_sol):
        """A vertex whose fit raises FitError is reported with index None and
        its reason, and the index identity is then inconclusive."""
        import hotspots.bessel as bessel
        fit = bessel.fit_coefficients

        def failing_at_0(sol, vid, values=None, grid=None):
            if vid == 0:
                raise FitError("injected")
            return fit(sol, vid, values, grid)

        monkeypatch.setattr(bessel, "fit_coefficients", failing_at_0)
        cs = find_critical_points(obtuse_sol)
        info = cs.vertex_table[0]
        assert info["index"] is None and info["note"] == "fit failed: injected"
        assert all("unresolved" not in v for v in cs.vertex_table.values())
        (pt,) = [p for p in cs.points if p.locus == ("vertex", 0)]
        assert pt.index is None and not pt.is_extremum
        assert pt.to_dict()["diagnostics"] == {"note": "fit failed: injected"}
        rep = verify_index_formula(obtuse_sol, cs)
        assert rep.passed is None and rep.rhs is None and rep.unresolved == 1


class TestBreakingCuspErrors:
    """``breaking_experiment`` records a failed cusp fit as an index-zero
    event and lets any other error through.  One index-0 point is added
    to each sample's critical set so the diagnostic runs."""

    @staticmethod
    def run(monkeypatch, error):
        import hotspots.continuation as cont
        from hotspots.continuation import breaking_experiment
        track = cont.track

        def track_with_zero(*args, **kw):
            run = track(*args, **kw)
            for s in run.samples:
                q = s.polygon.vertices[0] + 0.5 * s.polygon.side_vectors[0]
                s.critical.points.append(CriticalPoint(q, ("side", 0), 0, False))
            return run

        def failing(sol, cp):
            raise error

        monkeypatch.setattr(cont, "track", track_with_zero)
        monkeypatch.setattr(cont, "cusp_diagnostic", failing)
        return breaking_experiment(isosceles_triangle(math.radians(50)), eps_rel=0.01,
                                   steps=1, h=lambda P: P.diameter / 18)

    def test_failed_fit_is_recorded(self, monkeypatch):
        rep = self.run(monkeypatch, np.linalg.LinAlgError("SVD did not converge"))
        assert rep.conditions
        assert all(c["index_zero_events"] == [{"error": "SVD did not converge"}]
                   for c in rep.conditions)

    def test_other_errors_propagate(self, monkeypatch):
        with pytest.raises(TypeError):
            self.run(monkeypatch, TypeError("a bug"))


class TestStability:
    def test_total_index_stable_under_refinement(self):
        T = isosceles_triangle(math.radians(50))
        m = triangulate(T, 0.06)
        sol1 = solve_second(m)
        sol2 = solve_second(refine(m))
        cs1 = find_critical_points(sol1)
        cs2 = find_critical_points(sol2)
        assert cs1.S == cs2.S
        idx1 = sorted(p.index for p in cs1.nonzero_index_points())
        idx2 = sorted(p.index for p in cs2.nonzero_index_points())
        assert idx1 == idx2

    def test_boundary_extrema_are_critical(self, isosceles_sol):
        # global extrema live on the boundary and are reported critical points
        cs = find_critical_points(isosceles_sol)
        coefs = isosceles_sol.coef
        pts = isosceles_sol.space.dof_points()
        torig = pts[np.argmax(coefs)]
        tmin = pts[np.argmin(coefs)]
        locs = np.array([p.location for p in cs.nonzero_index_points()])
        for q in (torig, tmin):
            assert np.min(np.linalg.norm(locs - q, axis=1)) < 3 * 0.035


class TestRotationalDegreeOne:
    def test_degree_one_nodes_are_nonzero_index_points(self, obtuse_sol):
        # convex polygon without right angles, w interior
        T = obtuse_sol.polygon
        fld = ScalarField.rotational(obtuse_sol, T.centroid)
        g = trace(fld)
        cs = find_critical_points(obtuse_sol)
        locs = np.array([p.location for p in cs.nonzero_index_points()])
        deg1 = g.degree_one_nodes()
        assert len(deg1) >= 2
        for n in deg1:
            h = float(obtuse_sol.h_at(n.point[None, :])[0])
            assert np.min(np.linalg.norm(locs - n.point, axis=1)) < 3 * h


class TestCusp:
    def _cusp_solution(self):
        P = unit_square()
        f = lambda p: p[:, 1] ** 2 - (p[:, 0] - 0.5) ** 3
        gf = lambda p: np.column_stack([-3 * (p[:, 0] - 0.5) ** 2, 2 * p[:, 1]])
        return AnalyticSolution(P, 1.0, f, gf, h_nominal=0.02)

    def test_manufactured_cusp(self):
        sol = self._cusp_solution()
        res = index_of(sol, np.array([0.5, 0.0]), ("side", 0))
        assert res.index == 0
        cp = CriticalPoint(np.array([0.5, 0.0]), ("side", 0), 0, False)
        d = cusp_diagnostic(sol, cp)
        assert d.tangent_cusp and d.k == 3
        assert abs(d.slope_estimate - 3.0) < 0.1

    def test_quintic_cusp(self):
        P = unit_square()
        f = lambda p: p[:, 1] ** 2 - (p[:, 0] - 0.5) ** 5
        gf = lambda p: np.column_stack([-5 * (p[:, 0] - 0.5) ** 4, 2 * p[:, 1]])
        sol = AnalyticSolution(P, 1.0, f, gf, h_nominal=0.01)
        cp = CriticalPoint(np.array([0.5, 0.0]), ("side", 0), 0, False)
        d = cusp_diagnostic(sol, cp)
        assert d.tangent_cusp and d.k == 5

    def test_saddle_rejected(self):
        P = unit_square()
        f = lambda p: p[:, 1] ** 2 - (p[:, 0] - 0.5) ** 2
        gf = lambda p: np.column_stack([-2 * (p[:, 0] - 0.5), 2 * p[:, 1]])
        sol = AnalyticSolution(P, 1.0, f, gf, h_nominal=0.02)
        res = index_of(sol, np.array([0.5, 0.0]), ("side", 0))
        assert res.index == -1
        with pytest.raises(ValueError):
            cusp_diagnostic(sol, CriticalPoint(np.array([0.5, 0.0]), ("side", 0),
                                               res.index, False))

    def test_interior_point_rejected(self):
        sol = self._cusp_solution()
        with pytest.raises(ValueError):
            cusp_diagnostic(sol, CriticalPoint(np.array([0.5, 0.5]), "interior", 0, False))


class TestHessian:
    def test_interior_quadratic(self):
        P = unit_square()
        f = lambda p: 2 * (p[:, 0] - 0.5) ** 2 - 3 * (p[:, 1] - 0.5) ** 2
        gf = lambda p: np.column_stack([4 * (p[:, 0] - 0.5), -6 * (p[:, 1] - 0.5)])
        sol = AnalyticSolution(P, 1.0, f, gf, h_nominal=0.02)
        H = estimate_hessian(sol, np.array([0.5, 0.5]))
        assert np.allclose(H, np.diag([4.0, -6.0]), atol=1e-6)

    def test_side_one_sided(self):
        P = unit_square()
        f = lambda p: 2 * (p[:, 0] - 0.5) ** 2 - 3 * p[:, 1] ** 2
        gf = lambda p: np.column_stack([4 * (p[:, 0] - 0.5), -6 * p[:, 1]])
        sol = AnalyticSolution(P, 1.0, f, gf, h_nominal=0.02)
        H = estimate_hessian(sol, np.array([0.5, 0.0]), side=0)
        assert np.allclose(H, np.diag([4.0, -6.0]), atol=1e-6)

    def test_interior_mixed_term(self):
        # the P2 interpolant of a quadratic is exact, so is its element Hessian
        P = unit_square()
        f = lambda p: 2 * p[:, 0] ** 2 + 1.5 * p[:, 0] * p[:, 1] - 3 * p[:, 1] ** 2
        gf = lambda p: np.column_stack([4 * p[:, 0] + 1.5 * p[:, 1],
                                        1.5 * p[:, 0] - 6 * p[:, 1]])
        sol = AnalyticSolution(P, 1.0, f, gf, h_nominal=0.02)
        H = estimate_hessian(sol, np.array([0.37, 0.61]))
        assert np.allclose(H, [[4.0, 1.5], [1.5, -6.0]], rtol=0, atol=1e-10)

    def test_off_the_mesh_raises(self, isosceles_sol):
        with pytest.raises(ValueError, match="off the mesh"):
            estimate_hessian(isosceles_sol, np.array([5.0, 5.0]))
