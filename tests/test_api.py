"""The package's public names: adding or removing one is a deliberate change."""

import re
from pathlib import Path

import tropiloc

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
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


def test_public_names_are_pinned():
    assert len(PUBLIC) == 39
    assert sorted(tropiloc.__all__) == sorted(PUBLIC)
    assert all(hasattr(tropiloc, name) for name in PUBLIC)


def test_the_contract_is_written_down_name_by_name():
    # The package docstring and the README's Public API section each name
    # every public name, so the written contract and __all__ move together.
    section = README.read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    for text in (tropiloc.__doc__, section):
        words = set(re.findall(r"\w+", text))
        assert [name for name in PUBLIC if name not in words] == []
