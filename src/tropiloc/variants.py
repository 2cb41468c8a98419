"""The four problem variants as one table, and the solver path they share.

Every variant reduces to the core problem, a Chebyshev instance in scaled
coordinates (a plain one is scaled with c = 1): the plane variants after the
45-degree rotation, which turns rectilinear distance into Chebyshev
distance.  One entry per variant names its JSON tag, its instance class, that
reduction, and whether the solution transform rotates back; the rotated
variants are the two whose objective is rectilinear.  Everything that depends
on the variant reads this table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .boxes import SolutionBox
from .chebyshev import ChebyshevInstance, FeasibilityReport, ScaledChebyshevInstance, solve_core
from .chebyshev import check_feasibility as _check_core
from .linear import Infeasible
from .rectilinear import StripInstance, TiltedStripInstance, strip_to_chebyshev, tilted_to_scaled

AnyInstance = ChebyshevInstance | StripInstance


@dataclass(frozen=True)
class Variant:
    name: str
    instance: type
    reduce: Callable[[AnyInstance], ChebyshevInstance]
    rotate45: bool  # also: the objective is rectilinear (d1), not Chebyshev


def _as_is(inst: ChebyshevInstance) -> ChebyshevInstance:
    return inst


TABLE = (
    Variant("chebyshev", ChebyshevInstance, _as_is, False),
    Variant("chebyshev_scaled", ScaledChebyshevInstance, _as_is, False),
    Variant("rectilinear_strip", StripInstance, strip_to_chebyshev, True),
    Variant("rectilinear_tilted", TiltedStripInstance, tilted_to_scaled, True),
)

BY_NAME = {v.name: v for v in TABLE}
_BY_CLASS = {v.instance: v for v in TABLE}


def lookup(inst) -> Variant:
    """The table entry of an instance; the most specific class wins."""
    for cls in type(inst).__mro__:
        if cls in _BY_CLASS:
            return _BY_CLASS[cls]
    raise TypeError(f"not a location instance: {type(inst).__name__}")


def solve(inst: AnyInstance) -> SolutionBox | Infeasible:
    """Solve any instance: reduce it to the core problem and solve that."""
    variant = lookup(inst)
    return solve_core(variant.reduce(inst), variant.rotate45)


def check_feasibility(inst: AnyInstance) -> FeasibilityReport:
    """Run the feasibility certificates for any instance type."""
    return _check_core(lookup(inst).reduce(inst))


__all__ = ["Variant", "TABLE", "BY_NAME", "lookup", "solve", "check_feasibility"]
