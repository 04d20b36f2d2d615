"""Central defaults for tolerances and discretization knobs.

Every threshold that a verdict depends on lives here, and only here: the
library reads these values where it uses them and no call takes a solver,
fit or tracking override, so runs are reproducible from a config record
alone (the run settings a call takes, h and steps, plus
``DEFAULTS.to_dict()``).
The exceptions are fixed design constants, each stated beside its rule
rather than offered as a knob: the factors that size the probe circles
around ``probe_radius_factor`` (boundary clearance, the composite and
nearest-structure rules, the clearance cap) in ``critical._probe_radii``, the
only code that sizes a probe; the |a| band of ``critical._expansion_index``
(``_A_BAND``); the 0.5 h and 1.2 h vertex and boundary zones of
``critical.find_critical_points``; the radii, sampling and side band of
``nodal.wedge_probe`` and the fit lines of ``critical.cusp_diagnostic``;
and in ``continuation`` the 2.5 h vertex approach of ``track``
(``_VERTEX_APPROACH``), the det and side floors of ``n_membership``
(``_DET_FLOOR``, ``_SIDE_FLOOR``) and the break path's reach and side-end
margin in ``breaking_experiment`` (``_BREAK_REACH``, ``_SIDE_END_MARGIN``).
"""
from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Defaults:
    # geometry
    eps_geom: float = 1e-9          # minimum vertex separation, relative to diameter
    tau_orth: float = 1e-9          # |n_i . n_j| below this counts as orthogonal sides
    angle_tol: float = 1e-9         # tolerance when comparing angles to pi/2 multiples
    lip1_tol: float = 1e-12         # slack in the normal-vector dot-product criterion

    # meshing
    mesh_quality_min_angle: float = 20.0   # degrees
    mesh_relax_iters: int = 60

    # eigensolver
    solver_tol: float = 1e-10
    degenerate_gap: float = 1e-4    # relative gap below which a 2-dim basis is returned

    # vertex expansions
    bessel_K: int = 4
    annulus_inner: float = 0.05     # fractions of Polygon.vertex_clearance
    annulus_outer: float = 0.25
    fit_n_theta: int = 24
    fit_n_radii: int = 12
    vanish_threshold: float = 1e-3  # relative magnitude below which a coefficient "vanishes"

    # nodal tracing
    side_zero_rtol: float = 5e-3    # max |field| on a side below this * scale => side lies in Z
    psi_boundary_band: float = 0.05  # rad; verdicts inside the band report raw margin

    # critical points
    probe_radius_factor: float = 3.0   # probe radius = factor * local mesh size; track also
                                       # rejects a step whose matched points move more (in local h)
    probe_samples: int = 360
    sign_band_frac: float = 0.02       # |value| below band * max => suppressed in sign counting
    grad_zero_rtol: float = 2e-2       # a side whose tangential derivative stays below this
                                       # * max|grad u| is a degenerate locus
    degenerate_collinear_count: int = 10

    # continuation
    track_max_halvings: int = 5
    gap_floor: float = 1e-5
    match_radius_factor: float = 5.0   # critical-point matching radius = factor * h
    w_margin: float = 0.1              # break-point path keeps this * |e| away from p

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULTS = Defaults()
