import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import jv

from hotspots.geometry import (Polygon, DeformationPath, GeometryError, NotLip1Error,
                               OrthogonalSidesError, unit_square, isosceles_triangle,
                               equilateral_triangle, triangle_from_angles)
from hotspots.bessel import fit_sector_coefficients, leading_coefficient_test
from hotspots.report import to_jsonable
from hotspots.critical import CriticalPoint, CriticalSet, find_critical_points
from hotspots.continuation import (track, lip1_no_hotspots, n_membership,
                                   breaking_experiment, PathEvent, PathSample,
                                   _sample_conditions, _breaking_verdict, _side_min_abs)


class TestNMembership:
    def test_subequilateral_isosceles_in_N(self):
        nm = n_membership(isosceles_triangle(math.radians(50)))
        assert nm.in_N
        assert nm.evidence["n_vertex_extrema"] == 3
        assert nm.evidence["n_nonvertex"] == 1
        assert nm.evidence["saddle_index"] == -1
        assert abs(nm.evidence["hessian_det"]) > 0
        assert np.linalg.norm(nm.saddle - [0.5, 0.0]) < 0.01

    def test_equilateral_not_in_N(self):
        nm = n_membership(equilateral_triangle())
        assert not nm.in_N
        assert "multiple" in nm.evidence["note"]

    def test_right_triangle_rejected(self):
        with pytest.raises(GeometryError):
            n_membership(Polygon([[0, 0], [1, 0], [0, 1]]))

    def test_obtuse_rejected(self):
        with pytest.raises(GeometryError):
            n_membership(triangle_from_angles(math.radians(30), math.radians(40)))


class TestSideMinimum:
    """min |u_h| on a side from its nodes and tangential-derivative roots."""

    @staticmethod
    def saddle_side(solve_cached, T):
        sol = solve_cached(T, T.diameter / 28)
        cset = find_critical_points(sol)
        (side,) = [p.locus[1] for p in cset.points if p.kind == "side"]
        return sol, side, cset.side_roots[side]

    @pytest.mark.parametrize("T", [isosceles_triangle(math.radians(50)),   # saddle at a node
                                   triangle_from_angles(math.radians(55), math.radians(65))],
                             ids=["isosceles-50", "scalene-55-65"])     # saddle inside an edge
    def test_matches_a_dense_sample(self, solve_cached, T):
        sol, side, roots = self.saddle_side(solve_cached, T)
        exact = _side_min_abs(sol, side, roots)
        s = np.linspace(0.0, 1.0, 20000)
        pts = T.vertices[side] + np.outer(s, T.side_vectors[side])
        sampled = float(np.min(np.abs(sol.eval(pts))))
        assert exact <= sampled
        assert sampled - exact <= 1e-7 * sampled

    def test_sign_change_gives_zero(self, solve_cached):
        T = isosceles_triangle(math.radians(50))
        sol, side, roots = self.saddle_side(solve_cached, T)
        be = sol.mesh.boundary_edges
        on_side = sol.coef[be[be[:, 2] == side, :2]]
        shifted = sol.with_coef(sol.coef - 0.5 * (on_side.min() + on_side.max()))
        assert _side_min_abs(sol, side, roots) > 0.3
        assert _side_min_abs(shifted, side, roots) == 0.0


def _break_sample(t, *, minus=None, extra=(), acute=(0, 2, 3), side_roots=None):
    """A PathSample of a hand-built quadrilateral whose break point is
    vertex 1 (break sides 0 and 1), with no mesh or solution: the acute
    vertices in ``acute`` are maxima, ``minus`` puts an index -1 point on
    that side, ``extra`` adds (locus, index) points."""
    Q = Polygon([[0.0, 0.0], [0.5, -0.05], [1.0, 0.0], [0.5, 0.6]])

    def at(locus):
        if locus == "interior":
            return Q.vertices.mean(axis=0)
        kind, i = locus
        return Q.vertices[i] + (0.5 * Q.side_vectors[i] if kind == "side" else 0.0)

    loci = [(("vertex", v), 1) for v in acute] + list(extra)
    if minus is not None:
        loci.append((("side", minus), -1))
    pts = [CriticalPoint(at(locus), locus, index, index == 1) for locus, index in loci]
    cset = CriticalSet(pts, {}, side_roots or [[] for _ in range(Q.n)])
    return PathSample(t=t, polygon=Q, mu=1.0, gap=1.0, S=len(cset.nonzero_index_points()),
                      V=0, critical=cset, leading_ratios={1: 0.5}, arc_vertices=[])


class TestSampleConditions:
    def test_blocking_sample(self):
        rec, off = _sample_conditions(_break_sample(0.5, minus=1), 1)
        assert not off
        assert rec == {"t": 0.5, "no_interior": True, "nonzero_on_break_sides": True,
                       "acute_extrema": True, "n_minus_one": 1, "minus_one_side": "right",
                       "saddle_to_vertex_dist": None, "index_zero_events": [],
                       "w_leading_ratio": 0.5}
        assert _sample_conditions(_break_sample(0.5, minus=0), 1)[0]["minus_one_side"] == "left"

    def test_saddle_distance_from_side_roots(self):
        # no -1 point: the nearest raw root on a break side (0 or 1) to vertex 1
        roots = [[0.5, 0.9], None, [0.01], [0.5]]
        rec, _ = _sample_conditions(_break_sample(0.3, side_roots=roots), 1)
        Q = _break_sample(0.3).polygon
        assert rec["n_minus_one"] == 0 and rec["minus_one_side"] is None
        assert rec["saddle_to_vertex_dist"] == pytest.approx(0.1 * Q.side_lengths[0], rel=1e-12)
        rec, _ = _sample_conditions(_break_sample(0.3, side_roots=[[], [], [0.5], []]), 1)
        assert rec["saddle_to_vertex_dist"] is None

    def test_nonzero_point_on_far_side_is_off_break(self):
        rec, off = _sample_conditions(_break_sample(0.5, minus=1, extra=[(("side", 2), 1)]), 1)
        assert off and not rec["nonzero_on_break_sides"]
        rec, off = _sample_conditions(_break_sample(0.5, minus=1, extra=[(("side", 0), 1)]), 1)
        assert not off and rec["nonzero_on_break_sides"]

    def test_minus_one_point_off_the_break_has_no_side(self):
        rec, off = _sample_conditions(_break_sample(0.5, minus=2), 1)
        assert off and rec["n_minus_one"] == 1 and rec["minus_one_side"] is None

    def test_acute_vertex_not_an_extremum(self):
        rec, _ = _sample_conditions(_break_sample(0.5, minus=1, acute=(0, 2)), 1)
        assert not rec["acute_extrema"]
        rec, _ = _sample_conditions(_break_sample(0.5, minus=1, acute=(0, 2),
                                                  extra=[(("vertex", 3), -1)]), 1)
        assert not rec["acute_extrema"]
        # the break vertex itself need not be an extremum
        rec, _ = _sample_conditions(_break_sample(0.5, minus=1, acute=(0, 2, 3)), 1)
        assert rec["acute_extrema"]


class TestBreakingVerdict:
    @staticmethod
    def records(samples):
        return [_sample_conditions(s, 1)[0] for s in samples]

    def test_interior_point_branch(self):
        recs = self.records([_break_sample(0.0, minus=1),
                             _break_sample(0.5, minus=1, extra=[("interior", 0)]),
                             _break_sample(1.0, minus=0)])
        assert not recs[1]["no_interior"] and recs[1]["nonzero_on_break_sides"]
        assert _breaking_verdict(recs, [])[0] == "interior-critical-point"
        assert _breaking_verdict(recs[::2], [])[0] == "blocking-instability"

    def test_window_from_a_side_flip(self):
        # right, left, right, none, left, left: the window runs from the last
        # right sample to the first left one after it
        sides = [(0.0, 1), (0.25, 0), (0.5, 1), (0.6, None), (0.75, 0), (1.0, 0)]
        recs = self.records([_break_sample(t, minus=m) for t, m in sides])
        events = [PathEvent(0.1, 0.2, "index-sum change")]
        assert _breaking_verdict(recs, events) == ("blocking-instability", (0.5, 0.75))

    def test_window_from_index_sum_events(self):
        recs = self.records([_break_sample(t, minus=1) for t in (0.0, 0.5, 1.0)])
        events = [PathEvent(0.2, 0.3, "index-sum change"),
                  PathEvent(0.5, 0.55, "critical point moved"),
                  PathEvent(0.6, 0.7, "index-sum change"),
                  PathEvent(0.9, 1.0, "vertex-approach")]
        assert _breaking_verdict(recs, events) == ("blocking-instability", (0.2, 0.7))
        # no -1 point at t = 0: no side to flip from
        recs = self.records([_break_sample(0.0), _break_sample(0.5, minus=1),
                             _break_sample(1.0, minus=0)])
        assert _breaking_verdict(recs, events)[1] == (0.2, 0.7)

    def test_no_flip_and_no_index_events(self):
        recs = self.records([_break_sample(t, minus=0) for t in (0.0, 0.5, 1.0)])
        events = [PathEvent(0.5, 0.55, "critical point moved")]
        assert _breaking_verdict(recs, events) == ("blocking-instability", None)


class TestBreakingRerun:
    """While a nonzero-index point sits on a side away from the break, eps is
    halved and the family rerun, at most three times."""

    @staticmethod
    def run(monkeypatch, off_break_attempts):
        import hotspots.continuation as cont
        track = cont.track
        calls = []

        def track_with_far_point(*args, **kw):
            run = track(*args, **kw)
            if len(calls) in off_break_attempts:
                for s in run.samples:
                    q = s.polygon.vertices[2] + 0.5 * s.polygon.side_vectors[2]
                    s.critical.points.append(CriticalPoint(q, ("side", 2), 1, True))
            calls.append(args[0])          # the family of this attempt
            return run

        monkeypatch.setattr(cont, "track", track_with_far_point)
        T = isosceles_triangle(math.radians(50))
        rep = breaking_experiment(T, eps_rel=0.01, steps=1, h=lambda P: P.diameter / 18)
        shrunk = [n for n in rep.notes if "eps shrunk" in n]
        eps0 = 0.01 * float(T.side_lengths[rep.membership.saddle_side])
        return rep, len(calls), len(shrunk), eps0

    def test_one_halving(self, monkeypatch):
        rep, calls, shrunk, eps0 = self.run(monkeypatch, {0})
        assert (calls, shrunk) == (2, 1)
        assert rep.eps == 0.5 * eps0
        assert all(c["nonzero_on_break_sides"] for c in rep.conditions)

    def test_at_most_three_halvings(self, monkeypatch):
        rep, calls, shrunk, eps0 = self.run(monkeypatch, range(4))
        assert (calls, shrunk) == (4, 3)
        assert rep.eps == eps0 / 8
        assert not any(c["nonzero_on_break_sides"] for c in rep.conditions)


class TestTrack:
    def test_constant_path(self):
        T = triangle_from_angles(math.radians(30), math.radians(35))
        path = DeformationPath.constant(T)
        run = track(path, steps=3, h=lambda P: P.diameter / 18)
        assert len(set(run.S_values())) == 1
        assert len(set(run.V_values())) == 1
        assert not run.events

    def test_obtuse_lerp_S2_V0(self):
        T0 = triangle_from_angles(math.radians(30), math.radians(35))
        T1 = triangle_from_angles(math.radians(42), math.radians(25))
        path = DeformationPath.from_breakpoints("vertex-lerp", [0, 1],
                                                [T0.vertices, T1.vertices])
        run = track(path, steps=6, h=lambda P: P.diameter / 20)
        assert all(s.S == 2 for s in run.samples)
        assert all(s.V == 0 for s in run.samples)
        assert not run.events

    def test_sign_alignment_continuity(self):
        T0 = triangle_from_angles(math.radians(30), math.radians(35))
        T1 = triangle_from_angles(math.radians(38), math.radians(30))
        path = DeformationPath.from_breakpoints("vertex-lerp", [0, 1],
                                                [T0.vertices, T1.vertices])
        run = track(path, steps=5, h=lambda P: P.diameter / 18)
        # u_t at a fixed probe point never flips sign between samples
        probe = np.array([[0.4, 0.1]])
        vals = [float(s.sol.eval(probe)[0]) for s in run.samples]
        assert all(np.isfinite(vals))
        assert all(a * b > 0 for a, b in zip(vals[:-1], vals[1:]))


class TestTrackFailedSample:
    def test_failed_samples_become_events(self, monkeypatch):
        import hotspots.continuation as cont
        from hotspots.eigensolver import SolverError

        solve = cont._solve_sample

        def flaky(path, t, *args, **kw):
            if 0.25 <= t <= 0.75:
                raise SolverError(f"injected failure at t={t}")
            return solve(path, t, *args, **kw)

        monkeypatch.setattr(cont, "_solve_sample", flaky)
        monkeypatch.setattr(cont, "DEFAULTS",
                            dataclasses.replace(cont.DEFAULTS, track_max_halvings=1))
        T = triangle_from_angles(math.radians(30), math.radians(35))
        run = track(DeformationPath.constant(T), steps=4, h=lambda P: P.diameter / 12)
        failed = run.events_of("sample failed")
        assert failed and all("SolverError" in e.detail for e in failed)
        assert all(not 0.25 <= s.t <= 0.75 for s in run.samples)
        assert run.samples[-1].t == 1.0


class TestTrackGapFloor:
    def test_pair_selected_below_the_floor(self, monkeypatch):
        """The square at diam/12 splits its double eigenvalue by less than
        ``gap_floor``: each later sample takes the combination of the pair
        closest to the previous u, and each step records a gap event."""
        import hotspots.continuation as cont
        from hotspots.eigensolver import EigenSolution
        monkeypatch.setattr(cont, "DEFAULTS",
                            dataclasses.replace(cont.DEFAULTS, track_max_halvings=0))
        selected = []
        select = EigenSolution.select_from_pair
        monkeypatch.setattr(EigenSolution, "select_from_pair",
                            lambda self, target: selected.append(target) or select(self, target))
        run = track(DeformationPath.constant(unit_square()), steps=2,
                    h=lambda P: P.diameter / 12)
        assert all(s.gap < cont.DEFAULTS.gap_floor for s in run.samples)
        assert selected == [s.sol.eval for s in run.samples[:-1]]
        gaps = run.events_of("eigenvalue gap below floor")
        assert [(e.t_lo, e.t_hi) for e in gaps] == [(0.0, 0.5), (0.5, 1.0)]
        assert all(e.detail.startswith("eigenvalue gap ") for e in gaps)

    def test_gap_already_below_the_floor_is_not_halved_on(self, monkeypatch):
        """At the default ``track_max_halvings``: the square's gap is below
        the floor at every sample, so halving cannot mend it; each step is
        taken once and records its gap event."""
        import hotspots.continuation as cont
        solves = []
        solve = cont.solve_second
        monkeypatch.setattr(cont, "solve_second", lambda m: solves.append(m) or solve(m))
        run = track(DeformationPath.constant(unit_square()), steps=2,
                    h=lambda P: P.diameter / 12)
        assert len(run.samples) == 3 and len(solves) == 3
        assert [(e.t_lo, e.t_hi, e.kind) for e in run.events] == [
            (0.0, 0.5, "eigenvalue gap below floor"), (0.5, 1.0, "eigenvalue gap below floor")]


class TestTrackUnresolved:
    def test_unresolved_points_become_events(self, monkeypatch):
        import hotspots.continuation as cont
        find = cont.find_critical_points

        def with_unresolved(sol):
            cs = find(sol)
            cs.points.append(CriticalPoint(sol.polygon.vertices[2].copy(), ("vertex", 2),
                                           None, False))
            return cs

        monkeypatch.setattr(cont, "find_critical_points", with_unresolved)
        monkeypatch.setattr(cont, "DEFAULTS",
                            dataclasses.replace(cont.DEFAULTS, track_max_halvings=0))
        T = triangle_from_angles(math.radians(30), math.radians(35))
        run = track(DeformationPath.constant(T), steps=2, h=lambda P: P.diameter / 12)
        events = run.events_of("unresolved critical points")
        assert [e.detail for e in events] == ["1 unresolved critical points"] * 2
        assert len(run.samples) == 3


class TestTrackEventKinds:
    def test_event_kind_is_a_fixed_string(self, monkeypatch):
        import hotspots.continuation as cont
        monkeypatch.setattr(cont, "_match_points", lambda a, b, radius_factor: ([], 99.0))
        monkeypatch.setattr(cont, "DEFAULTS",
                            dataclasses.replace(cont.DEFAULTS, track_max_halvings=0))
        T = triangle_from_angles(math.radians(30), math.radians(35))
        run = track(DeformationPath.constant(T), steps=3, h=lambda P: P.diameter / 12)
        moved = run.events_of("critical point moved")
        assert len(moved) == 3 == len(run.samples) - 1
        assert all(e.detail == "critical point moved 99.0 h" for e in moved)


class TestTrackRecord:
    def test_samples_record_mesh_h(self):
        T0 = triangle_from_angles(math.radians(30), math.radians(35))
        T1 = triangle_from_angles(math.radians(34), math.radians(32))
        path = DeformationPath.from_breakpoints("vertex-lerp", [0, 1],
                                                [T0.vertices, T1.vertices])
        run = track(path, steps=2, h=lambda P: P.diameter / 12)
        assert "h" not in run.config
        rec = run.to_dict()["samples"]
        assert len(rec) == len(run.samples) >= 3
        for s, d in zip(run.samples, rec):
            assert d["h"] == s.sol.mesh.h == s.polygon.diameter / 12


class TestTrackWarmStart:
    @pytest.fixture(scope="class")
    def path(self):
        T0 = triangle_from_angles(math.radians(30), math.radians(35))
        T1 = triangle_from_angles(math.radians(33), math.radians(33))
        return DeformationPath.from_breakpoints("vertex-lerp", [0, 1],
                                                [T0.vertices, T1.vertices])

    def test_samples_record_the_mesh_route(self, path):
        run = track(path, steps=3, h=lambda P: P.diameter / 14)
        routes = [d["mesh"] for d in run.to_dict()["samples"]]
        assert routes == [s.sol.mesh.origin for s in run.samples]
        assert routes[0] == "fresh" and "warm" in routes[1:]
        assert set(routes) <= {"fresh", "warm"}

    def test_runs_are_deterministic(self, path):
        runs = [track(path, steps=3, h=lambda P: P.diameter / 14) for _ in range(2)]
        a, b = (json.dumps(to_jsonable(r.to_dict()), sort_keys=True) for r in runs)
        assert a == b


class TestLip1NoHotspots:
    def test_obtuse_triangle_passes(self):
        T = triangle_from_angles(math.radians(30), math.radians(40))
        v = lip1_no_hotspots(T, steps=2, h=lambda P: P.diameter / 18)
        assert v.passed
        assert sorted(v.acute_vertices) == [0, 1]

    def test_square_precondition_error(self):
        with pytest.raises(OrthogonalSidesError, match="polygon has two orthogonal sides"):
            lip1_no_hotspots(unit_square())

    def test_acute_triangle_rejected(self):
        with pytest.raises(NotLip1Error, match="polygon is not Lip-1"):
            lip1_no_hotspots(equilateral_triangle())

    # two polygons of tests/lip1_sweep.py: sweep index 10 and sweep index 2
    _QUADRILATERAL = Polygon([[0.924732248971972, 0.7852534935521409],
                              [0.3825461142317432, 1.0649455037027722],
                              [-0.422901588624029, 0.7857056675330492],
                              [-0.8527649479706565, 0.5331397797112628]])
    _PENTAGON = Polygon([[0.7458201368212027, 0.41019676092233764],
                         [0.4965010139024717, 0.7226475734120851],
                         [-0.7180978583357045, -0.45507246983289135],
                         [-0.33564583366644274, -1.199680641118341],
                         [0.8771838263352081, -0.1689049652145235]])

    def test_quadrilateral_whose_acute_vertex_sharpens_passes(self):
        # along the reduction path the 22.4 degree vertex sharpens to 8.1
        # degrees; there J_{4 nu} underflows over the fit annulus, and the
        # fit pins c_4 to 0 instead of failing the vertex
        v = lip1_no_hotspots(self._QUADRILATERAL)
        assert v.passed and not v.run.events
        assert set(v.run.S_values()) == {2} and set(v.run.V_values()) == {0}
        assert min(math.degrees(s.polygon.angles.min()) for s in v.run.samples) < 12.0
        pinned = [e["expansion"].pinned for s in v.run.samples
                  for e in s.critical.vertex_table.values() if e.get("expansion")]
        assert (4,) in pinned and "pinned to 0" in " ".join(
            e["note"] for s in v.run.samples for e in s.critical.vertex_table.values())

    def test_pentagon_passes(self):
        v = lip1_no_hotspots(self._PENTAGON)
        assert v.passed and not v.run.events and sorted(v.acute_vertices) == [1, 3]
        assert set(v.run.S_values()) == {2} and set(v.run.V_values()) == {0}

    def test_one_sample_with_three_critical_points_fails(self, monkeypatch):
        import hotspots.continuation as cont
        real = cont.track

        def track(*args, **kwargs):
            run = real(*args, **kwargs)
            run.samples[-1] = dataclasses.replace(run.samples[-1], S=3)
            return run

        monkeypatch.setattr(cont, "track", track)
        T = triangle_from_angles(math.radians(30), math.radians(40))
        v = lip1_no_hotspots(T, steps=2, h=lambda P: P.diameter / 18)
        assert not v.passed and not v.S_ok
        assert v.V_ok and v.critical_at_acute_vertices and not v.run.events


class TestCoefficientDecayAtVertex:
    """Numerical mirror of the convergence-to-vertex statements: planting a
    boundary critical point at distance d from the vertex forces the leading
    coefficient ratio to shrink with d."""

    @staticmethod
    def _planted_family(beta, d, mu=4.0):
        # u = c0 J_0(s r) + J_nu(s r) cos(nu th) with dr u(d, 0) = 0
        nu = math.pi / beta
        s = math.sqrt(mu)
        eps = 1e-7

        def jp(order, x):
            return (jv(order, x + eps) - jv(order, x - eps)) / (2 * eps)

        c0 = -jp(nu, s * d) / jp(0, s * d)

        def u(pts):
            r = np.linalg.norm(pts, axis=1)
            th = np.arctan2(pts[:, 1], pts[:, 0])
            return c0 * jv(0, s * r) + jv(nu, s * r) * np.cos(nu * th)

        return u, mu, c0

    def test_acute_vertex_c0_to_zero(self):
        # the family keeps the global size of u fixed (c1 = 1), so the c0
        # contribution is measured against the global sup over the sector
        beta = math.pi / 3
        ratios = []
        for d in (0.4, 0.2, 0.1, 0.05, 0.02):
            u, mu, _ = self._planted_family(beta, d)
            rr = np.linspace(0.01, 1.0, 120)
            tt = np.linspace(0, beta, 60)
            R, T = np.meshgrid(rr, tt)
            pts = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
            global_scale = np.abs(u(pts)).max()
            exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, beta, 0.01, 0.08)
            assert exp.leading_index == 0
            ratios.append(float(exp.contributions[0]) / global_scale)
        assert all(a > b for a, b in zip(ratios[:-1], ratios[1:]))
        assert ratios[-1] < 0.05

    def test_obtuse_vertex_c1_to_zero(self):
        beta = 2 * math.pi / 3
        nu = math.pi / beta
        s = math.sqrt(4.0)
        eps = 1e-7

        def jp(order, x):
            return (jv(order, x + eps) - jv(order, x - eps)) / (2 * eps)

        ratios = []
        for d in (0.4, 0.2, 0.1, 0.05):
            c1 = -jp(0, s * d) / jp(nu, s * d)

            def u(pts, c1=c1):
                r = np.linalg.norm(pts, axis=1)
                th = np.arctan2(pts[:, 1], pts[:, 0])
                return jv(0, s * r) + c1 * jv(nu, s * r) * np.cos(nu * th)

            exp = fit_sector_coefficients(u, 4.0, [0, 0], 0.0, beta, 0.01, 0.08)
            ratios.append(leading_coefficient_test(exp).ratio)   # leading = c1
        assert all(a > b for a, b in zip(ratios[:-1], ratios[1:]))
        assert ratios[-1] < 0.2


@pytest.mark.slow
class TestBreakingSmoke:
    def test_breaking_run_completes(self):
        rep = breaking_experiment(isosceles_triangle(math.radians(50)),
                                  eps_rel=0.01, steps=6,
                                  h=lambda P: P.diameter / 18)
        assert rep.branch in ("blocking-instability", "interior-critical-point")
        assert rep.membership.in_N
        assert rep.window is not None
        for c in rep.conditions:
            assert c["acute_extrema"]
            assert c["nonzero_on_break_sides"]
        # the -1 point changes sides between the endpoints
        assert rep.conditions[0]["minus_one_side"] == "right"
        assert rep.conditions[-1]["minus_one_side"] == "left"
