"""Inversive-distance circle packings on hyperbolic polyhedral surfaces.

Core objects: TriSurface (combinatorics), Packing (inversive distances
and radii), flip surgery to weighted Delaunay triangulations, and the
curvature-prescription solvers (Newton descent and discrete Ricci flow).
"""

from . import checks, complexes, errors
from .flips import FlipEvent, HeldTriangulation, flip_edge, make_weighted_delaunay
from .geometry import (
    Packing,
    SolveState,
    curvatures,
    delta_discriminant,
    gauss_bonnet_residual,
    r_from_u,
    u_from_r,
    validate_packing,
)
from .meshio import build_report, load_mesh, mesh_document, parse_mesh
from .ptolemy import delta_identity_residuals, ptolemy_flip_value, ptolemy_residual
from .solver import (
    hessian,
    newton_solve,
    ricci_flow,
    validate_target,
)
from .surface import (
    HingeView,
    TriSurface,
    build_surface,
    euler_characteristic,
    hinge,
)

__version__ = "0.1.0"
