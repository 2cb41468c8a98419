"""tropiloc: exact minimax facility location via max-plus algebra.

Solves single-facility minimax location problems with Chebyshev distance in
any dimension (optionally with per-axis scaling) and rectilinear distance in
the plane (vertical or tilted strips), under reach caps, box bounds, and
pairwise difference constraints.  The optimum comes out in closed form
together with the complete optimal set as a parametric box; feasibility is
decided by exact certificates, and an independent lattice oracle is included
for cross-checking.
"""

from . import semiring
from .boxes import SolutionBox, Transform
from .chebyshev import (
    BoundVectors,
    ChebyshevInstance,
    FeasibilityReport,
    ScaledChebyshevInstance,
    assemble_bounds,
    compute_theta,
    compute_theta_scaled,
    solve_particular,
    solve_scaled,
)
from .errors import (
    ContractViolationError,
    DimensionError,
    DomainError,
    InstanceError,
    ResourceError,
    UnsupportedFormatError,
)
from .generate import random_infeasible, random_instance
from .io import emit_instance, emit_solution, parse_instance, variant_of
from .linear import Infeasible, ParametricFamily, solve_double, solve_fixed_point, solve_upper
from .oracle import OracleResult, grid_feasible, grid_minimize
from .rectilinear import (
    StripInstance,
    TiltedStripInstance,
    rotate,
    solve_strip,
    solve_tilted,
    strip_to_chebyshev,
    tilted_to_scaled,
)
from .solutions import (
    VerificationReport,
    constraint_violation,
    is_member,
    objective_value,
    sample,
    verify,
)
from .variants import AnyInstance, check_feasibility, solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "semiring",
    "SolutionBox",
    "Transform",
    "BoundVectors",
    "ChebyshevInstance",
    "ScaledChebyshevInstance",
    "StripInstance",
    "TiltedStripInstance",
    "FeasibilityReport",
    "Infeasible",
    "ParametricFamily",
    "OracleResult",
    "VerificationReport",
    "assemble_bounds",
    "check_feasibility",
    "compute_theta",
    "compute_theta_scaled",
    "constraint_violation",
    "emit_instance",
    "emit_solution",
    "grid_feasible",
    "grid_minimize",
    "is_member",
    "objective_value",
    "parse_instance",
    "random_infeasible",
    "random_instance",
    "rotate",
    "sample",
    "solve",
    "solve_double",
    "solve_fixed_point",
    "solve_particular",
    "solve_scaled",
    "solve_strip",
    "solve_tilted",
    "solve_upper",
    "strip_to_chebyshev",
    "tilted_to_scaled",
    "variant_of",
    "verify",
    "DimensionError",
    "DomainError",
    "InstanceError",
    "UnsupportedFormatError",
    "ResourceError",
    "ContractViolationError",
]
