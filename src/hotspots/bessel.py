"""Vertex expansions of the eigenfunction in Bessel functions of real order.

Near a vertex of angle beta, a Neumann eigenfunction with eigenvalue mu has
the expansion

    u(r e^{i theta}) = sum_n c_n J_{n nu}(sqrt(mu) r) cos(n nu theta),
    nu = pi / beta,

in the local frame of the vertex.  This module extracts c_0..c_K from point
samples of a computed eigenfunction by least squares over a polar annulus,
with J_nu from ``scipy.special.jv``.

With J_nu(sqrt(mu) r) = r^nu g_nu(r^2), the values g_nu(0) and g_0'(0)
(``g_at_zero``, ``g0_prime_at_zero``) feed the right-angle index test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .config import DEFAULTS
from .geometry import arc_points


class FitError(RuntimeError):
    pass


class UndefinedLeadingCoefficient(ValueError):
    """beta = pi/2: neither c0 nor c1 is the leading coefficient."""


def g_at_zero(nu: float, mu: float) -> float:
    return math.exp(nu * 0.5 * math.log(mu) - nu * math.log(2.0) - math.lgamma(nu + 1.0)) \
        if mu > 0 else (1.0 if nu == 0 else 0.0)


def g0_prime_at_zero(mu: float) -> float:
    return -0.25 * mu


@dataclass
class BesselExpansion:
    """Fitted vertex expansion c_0..c_K with scale data from the fit annulus."""
    vertex: int
    beta: float
    nu: float
    mu: float
    coeffs: np.ndarray
    r_in: float
    r_out: float
    residual: float
    scale: float                  # max |u| over the fit annulus
    contributions: np.ndarray     # |c_n| * max_annulus |J_{n nu}(sqrt(mu) r)|
    cond: float = 0.0
    pinned: tuple[int, ...] = ()  # modes left out of the fit: their column underflows

    @property
    def K(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_index(self) -> int | None:
        if abs(self.beta - math.pi / 2) <= DEFAULTS.angle_tol:
            return None
        return 0 if self.beta < math.pi / 2 else 1

    def magnitude(self, n: int) -> float:
        """Contribution of mode n relative to the annulus scale of u."""
        return float(self.contributions[n] / max(self.scale, 1e-300))

    def magnitudes(self) -> np.ndarray:
        return self.contributions / max(self.scale, 1e-300)

    def smallest_nonvanishing_k(self) -> int | None:
        """Smallest n >= 1 whose relative contribution exceeds
        ``DEFAULTS.vanish_threshold``."""
        mags = self.magnitudes()
        for n in range(1, self.K + 1):
            if mags[n] > DEFAULTS.vanish_threshold:
                return n
        return None

    def to_dict(self) -> dict:
        return {
            "vertex": self.vertex, "beta": self.beta, "nu": self.nu, "mu": self.mu,
            "coeffs": [float(c) for c in self.coeffs],
            "annulus": [self.r_in, self.r_out],
            "residual": self.residual, "scale": self.scale,
            "magnitudes": [float(m) for m in self.magnitudes()],
        }


def _polar_grid(beta: float, r_in: float, r_out: float) -> tuple[np.ndarray, np.ndarray]:
    """The fit grid's ``fit_n_radii`` radii over [r_in, r_out] and
    ``fit_n_theta`` angles over (0, beta), 1e-9 beta in from its ends."""
    if not (0 < r_in < r_out):
        raise FitError("need 0 < r_in < r_out")
    pad = 1e-9 * beta
    return (np.linspace(r_in, r_out, DEFAULTS.fit_n_radii),
            np.linspace(pad, beta - pad, DEFAULTS.fit_n_theta))


def fit_sector_coefficients(u_eval, mu: float, apex, alpha: float, beta: float,
                            r_in: float, r_out: float) -> BesselExpansion:
    """Least-squares Fourier-Bessel fit of c_0..c_K (K = ``bessel_K``) over a
    polar grid in a vertex frame.

    ``u_eval`` maps an (n,2) array of points to values; ``alpha`` is the world
    angle of the theta=0 ray.  The grid (``fit_n_radii`` radii by
    ``fit_n_theta`` angles, from ``arc_points``) takes one ``u_eval`` call; a
    mode's contribution is |c_n| times max |J_{n nu}(sqrt(mu) r)| over its
    column.  A mode whose column norm underflows to 0 (J_{n nu} at the large
    nu of a sharp corner) cannot be identified at any radius the fit
    reaches: it is left out of the solve, its coefficient is 0 and
    ``pinned`` names it.  The expansion's ``vertex`` is -1: the sector
    belongs to no polygon.
    """
    radii, thetas = _polar_grid(beta, r_in, r_out)
    U = u_eval(arc_points(apex, radii, alpha + thetas))
    return _fit_on_grid(U, mu, beta, radii, thetas, -1)


def _fit_on_grid(U, mu: float, beta: float, radii: np.ndarray, thetas: np.ndarray,
                 vertex: int) -> BesselExpansion:
    """``fit_sector_coefficients`` from the values U on its grid of ``radii``
    by ``thetas`` (``_polar_grid``, so 0 < r_in < r_out).

    A column is J_{n nu}(sqrt(mu) r) cos(n nu theta) over the radius-major
    grid: J on the radii and cos on the angles, multiplied out.  One SVD of
    the column-scaled matrix gives both its condition number and the
    least-squares coefficients.
    """
    K = DEFAULTS.bessel_K
    U = np.asarray(U, dtype=float)
    if np.any(~np.isfinite(U)):
        raise FitError("annulus intersects the domain boundary: evaluation failed")

    nu = math.pi / beta
    smu = math.sqrt(mu)
    A = np.empty((len(radii), len(thetas), K + 1))
    colmax = np.empty(K + 1)
    for n in range(K + 1):
        jr = jv(n * nu, smu * radii)
        A[:, :, n] = jr[:, None] * np.cos(n * nu * thetas)
        colmax[n] = np.abs(jr).max()
    A = A.reshape(-1, K + 1)
    colnorm = np.linalg.norm(A, axis=0)
    live = colnorm > 0
    Q, s, Vt = np.linalg.svd(A[:, live] / colnorm[live], full_matrices=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
    if cond > 1e10:
        raise FitError(f"ill-conditioned fit (cond {cond:.1e}): annulus too thin")
    coeffs = np.zeros(K + 1)
    coeffs[live] = Vt.T @ ((Q.T @ U) / s) / colnorm[live]
    # a mode whose whole contribution sits below the fit error is
    # unidentifiable noise in an amplified raw coefficient; pin it to 0
    scale = float(np.abs(U).max())
    resid0 = float(np.linalg.norm(U - A @ coeffs) / max(np.linalg.norm(U), 1e-300))
    noise_floor = max(1e-13, 2.0 * resid0) * scale
    coeffs[np.abs(coeffs) * colmax < noise_floor] = 0.0
    resid = float(np.linalg.norm(U - A @ coeffs) / max(np.linalg.norm(U), 1e-300))
    contributions = np.abs(coeffs) * colmax
    return BesselExpansion(vertex=vertex, beta=beta, nu=nu, mu=mu,
                           coeffs=coeffs, r_in=float(radii[0]), r_out=float(radii[-1]),
                           residual=resid, scale=scale,
                           contributions=contributions, cond=cond,
                           pinned=tuple(np.flatnonzero(~live).tolist()))


@dataclass(frozen=True)
class FitGrid:
    """A vertex's fit grid: the vertex angle ``beta``, the ``radii`` and
    ``thetas`` of ``_polar_grid`` in the vertex frame, and the grid
    ``points``, radius-major."""
    beta: float
    radii: np.ndarray
    thetas: np.ndarray
    points: np.ndarray


def vertex_fit_grid(P, vertex: int) -> FitGrid:
    """The grid whose values ``fit_coefficients`` fits at ``vertex``: its
    annulus runs from ``annulus_inner`` to ``annulus_outer`` times the
    vertex's ``Polygon.vertex_clearance``."""
    apex, alpha, beta = P.vertex_frame(vertex)
    ref = float(P.vertex_clearance[vertex % P.n])
    radii, thetas = _polar_grid(beta, DEFAULTS.annulus_inner * ref, DEFAULTS.annulus_outer * ref)
    return FitGrid(beta, radii, thetas, arc_points(apex, radii, alpha + thetas))


def fit_coefficients(sol, vertex: int, values=None, grid: FitGrid | None = None) -> BesselExpansion:
    """Vertex expansion of a computed eigenfunction at polygon vertex ``vertex``.

    ``grid`` is ``vertex_fit_grid(P, vertex)`` and ``values`` the
    solution's values on its points; each is built here when not given.  A
    grid point off the mesh reads NaN, which raises FitError.
    """
    P = sol.polygon
    if grid is None:
        grid = vertex_fit_grid(P, vertex)
    if values is None:
        values = sol.eval(grid.points)
    return _fit_on_grid(values, sol.mu, grid.beta, grid.radii, grid.thetas, vertex % P.n)


@dataclass
class LeadingCoefficientTest:
    vanishes: bool
    ratio: float              # relative contribution of the leading mode
    leading_index: int
    threshold: float


def leading_coefficient_test(exp: BesselExpansion) -> LeadingCoefficientTest:
    """Does the leading coefficient vanish, at ``DEFAULTS.vanish_threshold``?

    Returns the raw ratio as well so callers can follow trends along a
    deformation path instead of trusting one hard verdict.
    """
    threshold = DEFAULTS.vanish_threshold
    idx = exp.leading_index
    if idx is None:
        raise UndefinedLeadingCoefficient(
            f"vertex {exp.vertex}: leading coefficient undefined at beta = pi/2")
    ratio = exp.magnitude(idx)
    return LeadingCoefficientTest(vanishes=ratio < threshold, ratio=ratio,
                                  leading_index=idx, threshold=threshold)
