"""Second Neumann eigenfunctions on polygons.

Library for computing the first nonconstant Neumann eigenfunction of a
planar polygon and analyzing it: Fourier-Bessel coefficients at vertices,
nodal sets of derivative fields, Poincare-Hopf indices of critical points,
Lip-1 classification, and continuation experiments along polygon families.
"""

__version__ = "0.1.0"    # read by report.write_report, so set before the imports

from .config import DEFAULTS, Defaults
from .geometry import (
    Polygon, DeformationPath,
    lip1_classify, lip1_reduction_path, break_triangle, breaking_family,
    orthogonal_side_pairs,
    unit_square, rectangle, equilateral_triangle, isosceles_triangle,
    triangle_from_angles, regular_polygon,
    GeometryError, NotLip1Error, OrthogonalSidesError, ReductionFailure,
)
from .mesh import Mesh, triangulate, refine, MeshingError
from .eigensolver import EigenSolution, solve_second, SolverError
from .bessel import (
    BesselExpansion, fit_coefficients, fit_sector_coefficients,
    leading_coefficient_test, FitError,
)
from .nodal import ScalarField, NodalGraph, trace, arc_ends_at_vertex
from .critical import (
    CriticalPoint, CriticalSet, find_critical_points, index_of,
    verify_index_formula, cusp_diagnostic,
)
from .continuation import (
    PathRun, track, lip1_no_hotspots, breaking_experiment, n_membership,
)

