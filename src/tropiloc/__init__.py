"""tropiloc: exact minimax facility location via max-plus algebra.

Solves single-facility minimax location problems with Chebyshev distance in
any dimension (optionally with per-axis scaling) and rectilinear distance in
the plane (vertical or tilted strips), under reach caps, box bounds, and
pairwise difference constraints.  The optimum comes out in closed form
together with the complete optimal set as a parametric box; feasibility is
decided by exact certificates, and an independent lattice oracle is included
for cross-checking.

Public API: the names in __all__, and only those.

* Instances: ChebyshevInstance, ScaledChebyshevInstance, StripInstance and
  TiltedStripInstance.
* Solving: solve (any variant, through variants.TABLE) and
  check_feasibility, with their results SolutionBox (and its Transform),
  Infeasible and FeasibilityReport.
* Solutions: sample, verify (VerificationReport), is_member,
  objective_value and constraint_violation.
* Files: parse_instance, emit_instance, emit_solution and variant_of.
* Instance generators: random_instance and random_infeasible.
* The paper's lemmas on max-plus inequalities: solve_upper, solve_double,
  solve_fixed_point and ParametricFamily; the semiring module, whose
  max-plus helpers the acceptance suite checks against the axioms.
* The grid oracle: grid_minimize, grid_feasible and OracleResult.
* Errors: InstanceError, DimensionError, DomainError,
  UnsupportedFormatError, ResourceError and ContractViolationError.
* __version__.
* solve_particular and solve_scaled, the typed entry points of the two
  Chebyshev variants, stay here only because the benchmark's spans wrap
  them at this module; they leave once the benchmark reads the solver's
  own stage trace.

Everything else is importable from its own module and is not part of the
contract: solve_strip, solve_tilted, strip_to_chebyshev and
tilted_to_scaled from rectilinear; compute_theta, compute_theta_scaled,
assemble_bounds and BoundVectors from chebyshev; the 45-degree rotation and
its inverse, rotate45 and unrotate45, from boxes.
"""

from . import semiring
from .boxes import SolutionBox, Transform
from .chebyshev import (
    ChebyshevInstance,
    FeasibilityReport,
    ScaledChebyshevInstance,
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
from .rectilinear import StripInstance, TiltedStripInstance
from .solutions import (
    VerificationReport,
    constraint_violation,
    is_member,
    objective_value,
    sample,
    verify,
)
from .variants import check_feasibility, solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "semiring",
    "SolutionBox",
    "Transform",
    "ChebyshevInstance",
    "ScaledChebyshevInstance",
    "StripInstance",
    "TiltedStripInstance",
    "FeasibilityReport",
    "Infeasible",
    "ParametricFamily",
    "OracleResult",
    "VerificationReport",
    "check_feasibility",
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
    "sample",
    "solve",
    "solve_double",
    "solve_fixed_point",
    "solve_particular",
    "solve_scaled",
    "solve_upper",
    "variant_of",
    "verify",
    "DimensionError",
    "DomainError",
    "InstanceError",
    "UnsupportedFormatError",
    "ResourceError",
    "ContractViolationError",
]
