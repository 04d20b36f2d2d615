import json
import math

import numpy as np
import pytest

from hotspots.geometry import (Polygon, DeformationPath, GeometryError, unit_square,
                               isosceles_triangle, equilateral_triangle,
                               triangle_from_angles)
from hotspots.bessel import bessel_j, fit_sector_coefficients, leading_coefficient_test
from hotspots.report import to_jsonable
from hotspots.continuation import (track, lip1_no_hotspots, n_membership,
                                   breaking_experiment)


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
        T = triangle_from_angles(math.radians(30), math.radians(35))
        run = track(DeformationPath.constant(T), steps=4, max_halvings=1,
                    h=lambda P: P.diameter / 12)
        failed = run.events_of("sample failed")
        assert failed and all("SolverError" in e.detail for e in failed)
        assert all(not 0.25 <= s.t <= 0.75 for s in run.samples)
        assert run.samples[-1].t == 1.0


class TestTrackEventKinds:
    def test_event_kind_is_a_fixed_string(self, monkeypatch):
        import hotspots.continuation as cont
        monkeypatch.setattr(cont, "_match_points", lambda a, b, radius_factor: ([], 99.0))
        T = triangle_from_angles(math.radians(30), math.radians(35))
        run = track(DeformationPath.constant(T), steps=3, max_halvings=0,
                    h=lambda P: P.diameter / 12)
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
        with pytest.raises(GeometryError):
            lip1_no_hotspots(unit_square())

    def test_acute_triangle_rejected(self):
        with pytest.raises(GeometryError):
            lip1_no_hotspots(equilateral_triangle())


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
            return (bessel_j(order, x + eps) - bessel_j(order, x - eps)) / (2 * eps)

        c0 = -jp(nu, s * d) / jp(0, s * d)

        def u(pts):
            r = np.linalg.norm(pts, axis=1)
            th = np.arctan2(pts[:, 1], pts[:, 0])
            return c0 * bessel_j(0, s * r) + bessel_j(nu, s * r) * np.cos(nu * th)

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
            return (bessel_j(order, x + eps) - bessel_j(order, x - eps)) / (2 * eps)

        ratios = []
        for d in (0.4, 0.2, 0.1, 0.05):
            c1 = -jp(0, s * d) / jp(nu, s * d)

            def u(pts, c1=c1):
                r = np.linalg.norm(pts, axis=1)
                th = np.arctan2(pts[:, 1], pts[:, 0])
                return bessel_j(0, s * r) + c1 * bessel_j(nu, s * r) * np.cos(nu * th)

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
