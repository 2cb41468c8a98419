"""The package's public names: adding or removing one is a deliberate change."""

import tropiloc

PUBLIC = [
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


def test_public_names_are_pinned():
    assert len(PUBLIC) == 48
    assert sorted(tropiloc.__all__) == sorted(PUBLIC)
    assert all(hasattr(tropiloc, name) for name in PUBLIC)
