"""Exact minimax location in the plane under the rectilinear metric.

The rotation y = (x1 + x2, x2 - x1) turns rectilinear distance into
Chebyshev distance: d1(x, p) = dinf(rotate(x), rotate(p)).  Both plane
variants therefore reduce to Chebyshev instances in rotated coordinates:

* StripInstance: points with weights/addends/caps, a tilted rectangle
  f1 <= x1 + x2 <= g1, f2 <= x2 - x1 <= g2 (an axis box after rotation), and
  a vertical strip a <= x1 <= b.  In rotated coordinates the strip becomes
  the difference bounds y1 >= 2a + y2 and y2 >= -2b + y1.

* TiltedStripInstance: the strip is tilted to a + x2 <= c*x1 <= b + x2 with
  slope c not in {1, -1}.  Substituting y gives scaled difference bounds on
  (c-1)*y1 and (c+1)*y2, i.e. a scaled Chebyshev instance with
  scale ((c-1), (c+1)) and the same two-entry bound matrix.

The returned boxes carry the rotation (and scaling) in their transform, so
members come back in original plane coordinates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .boxes import SolutionBox, rotate45, unrotate45
from .chebyshev import ChebyshevInstance, ScaledChebyshevInstance, _Instance, _require, _trusted, solve_core
from .chebyshev import solve_particular, solve_scaled  # noqa: F401  (bound here only for benchmarks/spans.py)
from .errors import DimensionError, InstanceError
from .linear import Infeasible


def _finite_real(value, name: str) -> float:
    # Python and numpy reals pass; bool (an int subclass) and None do not.
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise InstanceError(f"{name} must be a finite real")


@dataclass(frozen=True, eq=False, kw_only=True)
class StripInstance(_Instance):
    """Minimax rectilinear location restricted to a vertical strip.

    The shared fields are plane data: points is (m, 2), caps bound d1
    distance, and the length-2 box bounds (f1, f2) <= (x1+x2, x2-x1) <=
    (g1, g2), a rectangle tilted 45 degrees.
    strip_lo/strip_hi  the strip a <= x1 <= b, a <= b.
    """

    strip_lo: float
    strip_hi: float

    _COLUMNS = 2

    def __post_init__(self):
        super().__post_init__()
        lo = _finite_real(self.strip_lo, "a")
        hi = _finite_real(self.strip_hi, "b")
        if lo > hi:
            raise InstanceError("a exceeds b")
        object.__setattr__(self, "strip_lo", lo)
        object.__setattr__(self, "strip_hi", hi)


@dataclass(frozen=True, eq=False, kw_only=True)
class TiltedStripInstance(StripInstance):
    """Strip variant with the band a + x2 <= c*x1 <= b + x2.

    slope c must avoid 1 and -1: either value collapses one rotated
    coordinate's scale factor (c-1 or c+1) to zero.
    """

    slope: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        c = _finite_real(self.slope, "c")
        if c == 1 or c == -1:
            raise InstanceError("c must differ from 1 and -1")
        object.__setattr__(self, "slope", c)


def rotate(point, direction: str = "forward") -> np.ndarray:
    """Rotate a plane point into Chebyshev coordinates or back.

    forward: (x1, x2) -> (x1 + x2, x2 - x1); inverse undoes it exactly on
    the rational grid: (y1, y2) -> ((y1 - y2)/2, (y1 + y2)/2).
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (2,):
        raise DimensionError(f"plane point expected, got shape {p.shape}")
    if direction == "forward":
        return rotate45(p)
    if direction == "inverse":
        return unrotate45(p)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _rotated(inst: StripInstance, core: type, **scale) -> ChebyshevInstance:
    return _trusted(
        core,
        plane=inst.points,
        ends=(2.0 * inst.strip_lo, -2.0 * inst.strip_hi),
        weights=inst.weights,
        addends=inst.addends,
        caps=inst.caps,
        box_lo=inst.box_lo,
        box_hi=inst.box_hi,
        **scale,
    )


def strip_to_chebyshev(inst: StripInstance) -> ChebyshevInstance:
    """The rotated-coordinate Chebyshev instance equivalent to a strip."""
    return _rotated(inst, ChebyshevInstance)


def tilted_to_scaled(inst: TiltedStripInstance) -> ScaledChebyshevInstance:
    """The rotated, scaled Chebyshev instance equivalent to a tilted strip."""
    # c - 1 and c + 1 are finite and nonzero for every finite c other than 1
    # and -1, the slopes the strip's own constructor rejects.
    scale = np.array([inst.slope - 1.0, inst.slope + 1.0])
    scale.setflags(write=False)
    return _rotated(inst, ScaledChebyshevInstance, scale=scale)


def solve_strip(inst: StripInstance) -> SolutionBox | Infeasible:
    """Optimal value and complete optimal set of a strip instance."""
    _require(inst, StripInstance, "solve_strip", TiltedStripInstance)
    return solve_core(strip_to_chebyshev(inst), rotate45=True)


def solve_tilted(inst: TiltedStripInstance) -> SolutionBox | Infeasible:
    """Optimal value and complete optimal set of a tilted-strip instance."""
    _require(inst, TiltedStripInstance, "solve_tilted")
    return solve_core(tilted_to_scaled(inst), rotate45=True)


__all__ = [
    "StripInstance",
    "TiltedStripInstance",
    "rotate",
    "strip_to_chebyshev",
    "tilted_to_scaled",
    "solve_strip",
    "solve_tilted",
]
