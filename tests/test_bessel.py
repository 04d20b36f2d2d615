import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import jv

import hotspots.bessel as bessel
from hotspots.geometry import unit_square, Polygon
from hotspots.bessel import (g_at_zero, g0_prime_at_zero,
                             fit_sector_coefficients, fit_coefficients,
                             leading_coefficient_test, UndefinedLeadingCoefficient,
                             FitError)


def half_order_closed_form(x):
    return math.sqrt(2 / (math.pi * x)) * math.sin(x)


class TestBesselJ:
    """J_nu as the vertex fits evaluate it (``scipy.special.jv``), against
    values that do not go through jv.  The planted-mode fits below build their
    fields with jv too, so they alone would not see a wrong J_nu."""

    def test_j0_at_zero(self):
        assert jv(0, 0.0) == 1.0

    def test_jnu_at_zero(self):
        for nu in (0.5, 1.0, 2.7):
            assert jv(nu, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_half_order_closed_form(self, x):
        assert abs(jv(0.5, x) - half_order_closed_form(x)) \
            <= 1e-12 * abs(half_order_closed_form(x))

    @pytest.mark.parametrize("x", [15.0, 22.0, 29.5])
    def test_half_order_large_argument(self, x):
        # far beyond the fit arguments, where J_nu oscillates
        exact = half_order_closed_form(x)
        assert abs(jv(0.5, x) - exact) <= 1e-12 * abs(exact)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(1.0, 5.0), st.floats(0.2, 10.0))
    def test_three_term_recurrence(self, nu, x):
        lhs = jv(nu - 1, x) + jv(nu + 1, x)
        rhs = 2 * nu / x * jv(nu, x)
        scale = max(abs(jv(nu - 1, x)), abs(jv(nu + 1, x)), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestGAmplitude:
    """g_nu with J_nu(sqrt(mu) r) = r^nu g_nu(r^2), at s = r^2 = 0."""

    def test_values_at_zero(self):
        mu = 5.5
        assert abs(g_at_zero(0, mu) - 1.0) < 1e-15
        assert abs(g_at_zero(2, mu) - mu / 8) < 1e-15
        # g0'(0) = -mu/4 against a finite difference of g0(s) = J_0(sqrt(mu s))
        d = 1e-6
        fd = (jv(0, math.sqrt(mu * d)) - jv(0, 0.0)) / d
        assert abs(fd - g0_prime_at_zero(mu)) < 1e-5


def planted_mode(beta, n_mode, amp, mu=5.0):
    nu = math.pi / beta

    def u(pts):
        r = np.linalg.norm(pts, axis=1)
        th = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
        return amp * jv(n_mode * nu, math.sqrt(mu) * r) * np.cos(n_mode * nu * th)

    return u, nu, mu


class TestSectorFits:
    @pytest.mark.parametrize("beta", [math.pi / 5, 2 * math.pi / 3, 5 * math.pi / 6,
                                      4 * math.pi / 3])
    @pytest.mark.parametrize("n_mode", [0, 1, 2])
    def test_single_mode_recovery(self, beta, n_mode):
        amp = 1.7 if n_mode != 1 else -2.0
        u, nu, mu = planted_mode(beta, n_mode, amp)
        exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, beta, 0.05, 0.4)
        want = np.zeros(5)
        want[n_mode] = amp
        assert np.abs(exp.coeffs - want).max() < 1e-8
        assert exp.residual < 1e-10

    def test_two_mode_recovery(self):
        beta = 2 * math.pi / 3
        mu = 6.0
        nu = math.pi / beta

        def u(pts):
            r = np.linalg.norm(pts, axis=1)
            th = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
            return (1.5 * jv(0, math.sqrt(mu) * r)
                    - 0.7 * jv(nu, math.sqrt(mu) * r) * np.cos(nu * th))

        exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, beta, 0.05, 0.4)
        assert abs(exp.coeffs[0] - 1.5) < 1e-10
        assert abs(exp.coeffs[1] + 0.7) < 1e-10

    def test_coefficients_stable_under_halving_outer_radius(self):
        u, nu, mu = planted_mode(2 * math.pi / 3, 1, 2.0)
        e1 = fit_sector_coefficients(u, mu, [0, 0], 0.0, 2 * math.pi / 3, 0.05, 0.4)
        e2 = fit_sector_coefficients(u, mu, [0, 0], 0.0, 2 * math.pi / 3, 0.05, 0.2)
        assert np.abs(e1.coeffs - e2.coeffs).max() < 1e-8

    def test_rotated_frame(self):
        beta = 2 * math.pi / 3
        alpha = 0.7
        mu = 5.0
        nu = math.pi / beta

        def u(pts):
            r = np.linalg.norm(pts, axis=1)
            th = (np.arctan2(pts[:, 1], pts[:, 0]) - alpha) % (2 * math.pi)
            return 2.0 * jv(nu, math.sqrt(mu) * r) * np.cos(nu * th)

        exp = fit_sector_coefficients(u, mu, [0, 0], alpha, beta, 0.05, 0.4)
        assert abs(exp.coeffs[1] - 2.0) < 1e-9

    def test_underflowing_column_is_pinned_to_zero(self):
        # at beta = pi/17 (nu = 17) J_68 over this annulus is below 1e-170,
        # so the n = 4 column's norm underflows to 0 and no radius the fit
        # reaches identifies c_4
        beta = math.pi / 17
        u, nu, mu = planted_mode(beta, 0, 1.7)
        assert jv(4 * nu, math.sqrt(mu) * 0.04) ** 2 == 0.0
        exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, beta, 0.01, 0.04)
        assert exp.pinned == (4,) and exp.coeffs[4] == 0.0 and exp.contributions[4] == 0.0
        assert abs(exp.coeffs[0] - 1.7) < 1e-12 and exp.residual < 1e-12
        u, nu, mu = planted_mode(2 * math.pi / 3, 0, 1.7)
        assert fit_sector_coefficients(u, mu, [0, 0], 0.0, 2 * math.pi / 3, 0.05, 0.4).pinned == ()

    def test_annulus_outside_domain_rejected(self, solve_cached, monkeypatch):
        # the square's corner 0 has clearance 1, so the annulus is (0.5, 2)
        sol = solve_cached(unit_square(), 0.1)
        monkeypatch.setattr(bessel, "DEFAULTS", dataclasses.replace(
            bessel.DEFAULTS, annulus_inner=0.5, annulus_outer=2.0))
        with pytest.raises(FitError):
            fit_coefficients(sol, 0)


class TestOneRouteFit:
    """``fit_coefficients`` builds its grid once and ``_fit_on_grid`` takes
    one SVD for both the condition number and the coefficients."""

    def test_given_values_give_the_same_expansion(self, solve_cached):
        from hotspots.geometry import triangle_from_angles
        sol = solve_cached(triangle_from_angles(math.radians(30), math.radians(35)), 0.035)
        P = sol.polygon
        for v in range(P.n):
            own = fit_coefficients(sol, v)
            grid = bessel.vertex_fit_grid(P, v)
            given = fit_coefficients(sol, v, values=sol.eval(grid.points), grid=grid)
            for f in dataclasses.fields(own):
                a, b = getattr(own, f.name), getattr(given, f.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
                else:
                    assert a == b, f.name

    def test_one_svd_matches_lstsq_and_cond(self):
        rng = np.random.default_rng(17)
        K = bessel.DEFAULTS.bessel_K
        for _ in range(40):
            beta = rng.uniform(0.2, 1.9) * math.pi
            r_in = rng.uniform(0.01, 0.2)
            radii, thetas = bessel._polar_grid(beta, r_in, r_in * rng.uniform(1.5, 10.0))
            mu = rng.uniform(0.5, 60.0)
            nu = math.pi / beta
            cols = [np.outer(jv(n * nu, math.sqrt(mu) * radii),
                             np.cos(n * nu * thetas)).ravel() for n in range(K + 1)]
            A = np.column_stack(cols)
            colnorm = np.linalg.norm(A, axis=0)
            colmax = np.abs(A).max(axis=0)
            # every mode contributes O(1), and a little noise leaves none below the floor
            U = A @ (rng.uniform(0.5, 2.0, K + 1) / colmax) + 1e-6 * rng.standard_normal(len(A))
            exp = bessel._fit_on_grid(U, mu, beta, radii, thetas, 0)
            As = A / colnorm
            want = np.linalg.lstsq(As, U, rcond=None)[0] / colnorm
            assert exp.pinned == () and np.all(exp.coeffs != 0.0)
            assert np.abs(exp.coeffs - want).max() <= 1e-12 * np.abs(want).max()
            assert abs(exp.cond - np.linalg.cond(As)) <= 1e-12 * np.linalg.cond(As)

    def test_ill_conditioned_fit_raises(self):
        # one angle and a thin annulus: the radial columns are nearly parallel
        radii, thetas = np.linspace(0.1, 0.1001, 12), np.array([0.3])
        U = np.ones(len(radii))
        with pytest.raises(FitError, match="ill-conditioned"):
            bessel._fit_on_grid(U, 5.0, 2 * math.pi / 3, radii, thetas, 0)


def square_corner_moment_oracle(n, r, mu=math.pi ** 2):
    """Independent quadrature for the corner coefficients of cos(pi x).

    At the corner (0,0) of the unit square, beta = pi/2 and the expansion
    modes are J_{2n}(pi r) cos(2n theta); the coefficient is the normalized
    Fourier-cosine moment divided by the radial factor.
    """
    beta = math.pi / 2
    om = 2.0 if n > 0 else 1.0

    def integrand(th):
        return math.cos(math.pi * r * math.cos(th)) * math.cos(2 * n * th)

    val, _ = quad(integrand, 0.0, beta, limit=200)
    return om * val / beta / jv(2 * n, math.sqrt(mu) * r)


class TestSquareCorner:
    def test_moment_oracle_matches_alternating_pattern(self):
        # frozen oracle values: (1, -2, 2, -2, ...) independent of r
        for r in (0.2, 0.35):
            moments = [square_corner_moment_oracle(n, r) for n in range(4)]
            assert np.allclose(moments, [1.0, -2.0, 2.0, -2.0], atol=1e-9)

    def test_fit_of_closed_form_matches_oracle(self):
        mu = math.pi ** 2
        u = lambda pts: np.cos(math.pi * pts[:, 0])
        exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, math.pi / 2, 0.05, 0.25)
        oracle = [square_corner_moment_oracle(n, 0.2) for n in range(3)]
        assert np.abs(exp.coeffs[:3] - oracle).max() < 1e-8


class TestLeadingCoefficient:
    def test_vanishing_c0_detected(self):
        # beta < pi/2 with no c0 content: the leading coefficient vanishes
        u, nu, mu = planted_mode(math.pi / 3, 1, 1.0)
        exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, math.pi / 3, 0.05, 0.4)
        res = leading_coefficient_test(exp)
        assert res.leading_index == 0 and res.vanishes

    def test_nonvanishing_leading(self):
        u, nu, mu = planted_mode(2 * math.pi / 3, 1, 2.0)
        exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, 2 * math.pi / 3, 0.05, 0.4)
        res = leading_coefficient_test(exp)
        assert res.leading_index == 1 and not res.vanishes
        assert res.ratio > 0.5

    def test_obtuse_triangle_vertices(self, solve_cached):
        import math as _m
        from hotspots.geometry import triangle_from_angles
        T = triangle_from_angles(_m.radians(30), _m.radians(35))
        sol = solve_cached(T, 0.035)
        # obtuse vertex: not a local extremum, so c1 does not vanish
        res = leading_coefficient_test(fit_coefficients(sol, 2))
        assert res.leading_index == 1 and not res.vanishes

    def test_isosceles_apex_extremum(self, solve_cached):
        import math as _m
        from hotspots.geometry import isosceles_triangle
        sol = solve_cached(isosceles_triangle(_m.radians(50)), 0.035)
        # apex of a sub-equilateral isosceles is a local extremum: c0 != 0
        res = leading_coefficient_test(fit_coefficients(sol, 2))
        assert res.leading_index == 0 and not res.vanishes
        assert res.ratio > 0.5

    def test_right_angle_undefined(self):
        u = lambda pts: np.cos(math.pi * pts[:, 0])
        exp = fit_sector_coefficients(u, math.pi ** 2, [0, 0], 0.0, math.pi / 2,
                                      0.05, 0.25)
        with pytest.raises(UndefinedLeadingCoefficient):
            leading_coefficient_test(exp)

    def test_c0_consistency_with_vertex_value(self):
        # only the n=0 mode survives at r=0, so c0 g_0(0) = u(v) and g_0(0)=1
        u, nu, mu = planted_mode(2 * math.pi / 3, 0, 1.4)
        exp = fit_sector_coefficients(u, mu, [0, 0], 0.0, 2 * math.pi / 3, 0.05, 0.4)
        assert abs(exp.coeffs[0] - float(u(np.array([[1e-14, 0.0]]))[0])) < 1e-8

    def test_fem_fit_residual_decreases_under_refinement(self):
        from hotspots.geometry import rectangle
        from hotspots.mesh import triangulate, refine
        from hotspots.eigensolver import solve_second
        m = triangulate(rectangle(2.0, 1.0), 0.12)
        r = []
        for sol in (solve_second(m), solve_second(refine(m))):
            r.append(fit_coefficients(sol, 0).residual)
        assert r[1] < r[0]
