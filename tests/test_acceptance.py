"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not calibrated at runtime.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from hotspots.geometry import (Polygon, DeformationPath, unit_square, rectangle,
                               equilateral_triangle, isosceles_triangle,
                               triangle_from_angles, lip1_classify)
from hotspots.mesh import triangulate, refine
from hotspots.eigensolver import solve_second
from hotspots.bessel import (fit_sector_coefficients, fit_coefficients,
                             leading_coefficient_test)
from hotspots.nodal import ScalarField, trace, arc_ends_at_vertex, wedge_probe
from hotspots.critical import find_critical_points, verify_index_formula
from hotspots.continuation import track, breaking_experiment
from hotspots.corpus import random_obtuse_triangle, random_simple_polygon, random_triangle

from conftest import CORPUS_SEED, solve_polygon
from oracles import AnalyticSolution

PI2 = math.pi ** 2


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def equilateral_mu2_oracle(side=1.0):
    """Closed-form second Neumann eigenvalue of the equilateral triangle.

    The Neumann spectrum of the side-L equilateral triangle is
    (16 pi^2 / 9 L^2) (m^2 + m n + n^2) over integer pairs (m, n) >= 0;
    enumerate and take the smallest nonzero value with its multiplicity.
    """
    vals = {}
    for mm in range(4):
        for nn in range(4):
            lam = 16 * PI2 / (9 * side ** 2) * (mm * mm + mm * nn + nn * nn)
            vals[round(lam, 9)] = vals.get(round(lam, 9), 0) + 1
    nonzero = sorted(v for v in vals if v > 1e-9)
    mu2 = nonzero[0]
    return mu2, vals[round(mu2, 9)]


def test_criterion_1_eigenvalue_oracles():
    t0 = time.time()
    mesh = triangulate(unit_square(), 0.02)
    sol = solve_second(mesh)
    dt = time.time() - t0
    err_sq = abs(sol.mu - PI2) / PI2
    assert err_sq < 1e-3
    assert dt < 30.0
    assert sol.multiplicity_flag

    sol_r = solve_polygon(rectangle(2.0, 1.0), 0.04)
    err_r = abs(sol_r.mu - PI2 / 4) / (PI2 / 4)
    assert err_r < 1e-3
    assert not sol_r.multiplicity_flag

    mu2_exact, mult = equilateral_mu2_oracle()
    assert mult == 2
    m_eq = triangulate(equilateral_triangle(), 0.04)
    s_eq = solve_second(m_eq)
    s_eq_f = solve_second(refine(m_eq))
    err_eq = abs(s_eq_f.mu - mu2_exact) / mu2_exact
    assert err_eq < 1e-3
    assert s_eq_f.multiplicity_flag
    # Richardson extrapolation cross-check (4th-order pair)
    mu_rich = (16 * s_eq_f.mu - s_eq.mu) / 15
    assert abs(mu_rich - mu2_exact) / mu2_exact < 1e-5
    report(1, f"square mu2 rel err {err_sq:.2e} in {dt:.1f}s; rectangle {err_r:.2e}; "
              f"equilateral {err_eq:.2e} with multiplicity 2 "
              f"(Richardson {abs(mu_rich - mu2_exact) / mu2_exact:.1e})")


def test_criterion_2_index_formula_corpus(corpus_solutions):
    passed = failed = unresolved = 0
    for sol in corpus_solutions:
        rep = verify_index_formula(sol)
        if rep.passed is True:
            passed += 1
        elif rep.passed is False:
            failed += 1
        else:
            unresolved += 1
    assert failed == 0, f"{failed} resolved runs violate the index identity"
    assert unresolved < 0.1 * len(corpus_solutions)
    report(2, f"index identity holds on {passed}/20 corpus polygons "
              f"({unresolved} unresolved, {failed} violations)")


def test_criterion_3_obtuse_triangles():
    rng = np.random.default_rng(CORPUS_SEED + 3)
    good = 0
    for _ in range(10):
        T = random_obtuse_triangle(rng)
        sol = solve_polygon(T, T.diameter / 26)
        cs = find_critical_points(sol)
        acute = {("vertex", i) for i in range(3) if T.angles[i] < math.pi / 2}
        locs = {p.locus for p in cs.points}
        assert locs == acute, f"critical set {locs} != acute vertices {acute}"
        assert all(p.index == 1 for p in cs.points)
        assert not cs.by_kind("side") and not cs.by_kind("interior")
        good += 1
    report(3, f"{good}/10 obtuse triangles: critical set = the two acute "
              f"vertices (index +1), nothing else above threshold")


@pytest.mark.parametrize("apex_deg", [30, 45, 55])
def test_criterion_4_subequilateral_isosceles(apex_deg):
    T = isosceles_triangle(math.radians(apex_deg))
    h = T.diameter / 30
    sol = solve_polygon(T, h)
    cs = find_critical_points(sol)
    assert len(cs.points) == 4
    vs = cs.by_kind("vertex")
    assert len(vs) == 3 and all(p.index == 1 and p.is_extremum for p in vs)
    side_pts = cs.by_kind("side")
    assert len(side_pts) == 1
    saddle = side_pts[0]
    assert saddle.index == -1
    mid = 0.5 * (T.vertices[0] + T.vertices[1])
    h_loc = float(sol.h_at(saddle.location[None, :])[0])
    assert np.linalg.norm(saddle.location - mid) < 2 * h_loc
    s = np.linspace(0, 1, 400)
    base_vals = sol.eval(np.column_stack([s, np.zeros_like(s)]))
    ratio = np.nanmin(np.abs(base_vals)) / np.abs(sol.coef).max()
    assert ratio > 0.05
    report(4, f"apex {apex_deg} deg: 3 vertex extrema + base-midpoint saddle "
              f"(index -1) within 2h; min |u| on base = {ratio:.3f} max|u|")


def test_criterion_5_bessel_recovery(solve_cached):
    # pure-function recovery
    worst = 0.0
    for beta in (math.pi / 5, 2 * math.pi / 3, 5 * math.pi / 6):
        nu = math.pi / beta
        for n_mode, amp in ((0, 1.3), (1, -2.0), (2, 0.8)):
            mu = 5.0

            def u(pts):
                r = np.linalg.norm(pts, axis=1)
                th = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
                return amp * jv(n_mode * nu, math.sqrt(mu) * r) * np.cos(n_mode * nu * th)

            exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, beta, 0.05, 0.4)
            want = np.zeros(5)
            want[n_mode] = amp
            err = np.abs(exp.coeffs - want).max()
            worst = max(worst, err)
            assert err < 1e-8
    # FEM square-corner fit vs quadrature moments of cos(pi x)
    sol = solve_cached(unit_square(), 0.03)
    solx = sol.select_from_pair(lambda p: np.cos(math.pi * p[:, 0]))
    exp = fit_coefficients(solx, 0)
    beta = math.pi / 2
    r_ref = 0.5 * (exp.r_in + exp.r_out)

    def moment(n):
        om = 2.0 if n > 0 else 1.0
        val, _ = quad(lambda th: math.cos(math.pi * r_ref * math.cos(th))
                      * math.cos(2 * n * th), 0.0, beta, limit=200)
        return om * val / beta / jv(2 * n, math.pi * r_ref)

    oracle = np.array([moment(n) for n in range(3)])
    fem_err = np.abs((exp.coeffs[:3] - oracle) / oracle).max()
    assert fem_err < 1e-3   # identifiable modes n = 0..2 (higher ones have no
    #                         support on the annulus at this radius)
    report(5, f"pure sector recovery worst err {worst:.1e} (tol 1e-8); FEM square "
              f"corner matches quadrature moments {np.round(oracle, 3)} "
              f"to {fem_err:.1e} relative")


def test_criterion_6_nodal_sector_criteria():
    beta = math.pi / 3
    mu = 5.0
    nu = math.pi / beta
    extent = 1.0
    W = Polygon([[0, 0], [extent, 0], [extent * math.cos(beta), extent * math.sin(beta)]])

    def u(pts):
        r = np.linalg.norm(pts, axis=1)
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return (jv(0, math.sqrt(mu) * r)
                + 0.25 * jv(2 * nu, math.sqrt(mu) * r) * np.cos(2 * nu * th))

    def gu(pts):
        d = 1e-7
        gx = (u(pts + [d, 0]) - u(pts - [d, 0])) / (2 * d)
        gy = (u(pts + [0, d]) - u(pts - [0, d])) / (2 * d)
        return np.column_stack([gx, gy])

    sol = AnalyticSolution(W, mu, u, gu, h_nominal=0.01)

    v_true = arc_ends_at_vertex(ScalarField.directional(sol, math.pi / 2 + beta / 2), 0)
    assert v_true.verdict is True and v_true.agree
    v_false = arc_ends_at_vertex(ScalarField.directional(sol, math.pi / 4), 0)
    assert v_false.verdict is False and v_false.agree

    band = 0.05
    endpoints = (math.pi / 2, (math.pi / 2 + beta) % math.pi)
    agree = total = 0
    for psi in np.linspace(0, math.pi, 50, endpoint=False):
        dist = min(min(abs(psi - e), math.pi - abs(psi - e)) for e in endpoints)
        if dist <= band:
            continue
        v = arc_ends_at_vertex(ScalarField.directional(sol, psi), 0)
        total += 1
        if v.agree:
            agree += 1
    frac = agree / total
    assert frac >= 0.95
    report(6, f"psi-interval criterion (beta=pi/3, c0-dominant): inside/outside "
              f"verdicts correct; geometric vs analytic agreement {agree}/{total} "
              f"= {frac:.0%} outside a {band}-rad band")


def test_criterion_7_simple_arc_corpus(corpus_solutions):
    grad_floor_rel = 1e-3              # floor = rel * sqrt(mu) * max|u|
    floors = []
    for sol in corpus_solutions:
        g = trace(ScalarField.u(sol))
        rep = g.simple_arc_report()
        assert rep["n_degree_one"] == 2, rep
        assert rep["is_simple_arc"], rep
        assert len(set(rep["endpoint_sides"])) == 2
        pts = g.polyline_points()
        gn = np.linalg.norm(sol.eval_grad(pts), axis=1)
        gn = gn[np.isfinite(gn)]
        floor = grad_floor_rel * math.sqrt(sol.mu) * np.abs(sol.coef).max()
        assert gn.min() > floor
        floors.append(gn.min() / floor)
    report(7, f"Z(u) is a simple arc with endpoints on distinct sides on all 20 "
              f"corpus polygons; min |grad u| exceeds the floor by >= "
              f"{min(floors):.0f}x")


def test_criterion_8_lip1_predicate():
    rng = np.random.default_rng(CORPUS_SEED + 8)
    for _ in range(1000):
        T = random_triangle(rng)
        expect = bool(T.angles.max() >= math.pi / 2)
        assert lip1_classify(T).is_lip1 == expect

    def brute(P, tol=1e-12):
        N = P.side_normals
        n = P.n
        D = N @ N.T
        for start in range(n):
            for length in range(1, n):
                a = [(start + k) % n for k in range(length)]
                b = [i for i in range(n) if i not in a]
                ia, ib = np.array(a), np.array(b)
                if (np.all(D[np.ix_(ia, ia)] >= -tol) and np.all(D[np.ix_(ib, ib)] >= -tol)
                        and np.all(D[np.ix_(ia, ib)] <= tol)):
                    return True
        return False

    match = 0
    for _ in range(1000):
        P = random_simple_polygon(rng, int(rng.integers(3, 9)),
                                  avoid_right_angles=False)
        assert lip1_classify(P).is_lip1 == brute(P)
        match += 1
    report(8, f"triangle Lip-1 classification matches 'not acute' on 1000 random "
              f"triangles; polygon classification matches brute force on {match} "
              f"random 3-8 gons")


@pytest.mark.slow
def test_criterion_9_continuation_conservation():
    T0 = triangle_from_angles(math.radians(32), math.radians(38))
    T1 = triangle_from_angles(math.radians(24), math.radians(44))
    path = DeformationPath.from_breakpoints("vertex-lerp", [0, 1],
                                            [T0.vertices, T1.vertices])
    run = track(path, steps=64, h=lambda P: P.diameter / 22)
    S = run.S_values()
    V = run.V_values()
    assert all(s == 2 for s in S), f"S values {sorted(set(S))}"
    assert all(v == 0 for v in V), f"V values {sorted(set(V))}"
    assert not run.events_of("index-sum change")
    assert len(run.samples) >= 65
    report(9, f"vertex-lerp path between obtuse triangles: S(t)=2, V(t)=0 at all "
              f"{len(run.samples)} accepted samples over 64 steps, no index-sum "
              f"events")


@pytest.mark.slow
def test_criterion_10_breaking_experiment():
    T = isosceles_triangle(math.radians(50))
    reports = {}
    for label, nref in (("h", 20), ("h/2", 40)):
        rep = breaking_experiment(T, eps_rel=0.01, steps=10,
                                  h=lambda P: P.diameter / nref)
        assert rep.membership.in_N
        for c in rep.conditions:
            assert c["acute_extrema"], f"hypothesis (3) fails at t={c['t']}"
            assert c["nonzero_on_break_sides"], f"hypothesis (2) fails at t={c['t']}"
        assert rep.conditions[0]["n_minus_one"] == 1          # condition (4)
        assert rep.conditions[0]["minus_one_side"] == "right"
        assert rep.conditions[-1]["minus_one_side"] == "left"  # condition (5)
        assert rep.branch in ("blocking-instability", "interior-critical-point")
        assert rep.window is not None
        reports[label] = rep
    a, b = reports["h"], reports["h/2"]
    assert a.branch == b.branch
    # windows overlap across resolutions
    lo = max(a.window[0], b.window[0])
    hi = min(a.window[1], b.window[1])
    assert lo < hi
    report(10, f"breaking run (apex 50 deg, eps=0.01|e|): branch "
               f"'{a.branch}' at both resolutions; windows {np.round(a.window, 3)} "
               f"and {np.round(b.window, 3)} overlap")
