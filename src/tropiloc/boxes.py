"""Solution boxes: parametric solution sets with a coordinate transform.

A solver returns the complete optimal set as ``x = T(generator (x) u)`` over
a parameter box ``u_lo <= u <= u_hi``, where the tropical part lives in
internal coordinates and ``T`` maps back to the problem's original
coordinates.  T is a pair (scale, rotate45): the internal coordinates are
``y = c * R(x)``, where ``R`` is the 45-degree rotation
``(x1, x2) -> (x1 + x2, x2 - x1)`` when rotate45 is set (it turns the
rectilinear plane metric into the Chebyshev one) and the identity
otherwise, and c is the scale vector (absent means c = 1).  The four
combinations are the transforms of the four variants, named by ``kind``:
identity (plain Chebyshev), scale (scaled Chebyshev), rotate45 (strips)
and rotate_scaled (tilted strips).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .semiring import mat_vec


def rotate45(x: np.ndarray) -> np.ndarray:
    """(x1, x2) -> (x1 + x2, x2 - x1), for one point of shape (2,) or rows of shape (N, 2)."""
    x1, x2 = x.T
    return np.array([x1 + x2, x2 - x1]).T


def unrotate45(y: np.ndarray) -> np.ndarray:
    """Inverse of rotate45, exact on the rational grid: (y1, y2) -> ((y1 - y2)/2, (y1 + y2)/2)."""
    y1, y2 = y.T
    return np.array([(y1 - y2) / 2.0, (y1 + y2) / 2.0]).T


@dataclass(frozen=True, eq=False)
class Transform:
    """Map between original coordinates x and internal ones y = c * R(x).

    scale is the tuple c (None for c = 1); rotate45 selects R.
    """

    scale: tuple[float, ...] | None = None
    rotate45: bool = False

    @property
    def kind(self) -> str:
        if self.rotate45:
            return "rotate45" if self.scale is None else "rotate_scaled"
        return "identity" if self.scale is None else "scale"

    @property
    def coeffs(self) -> tuple[float, ...]:
        return () if self.scale is None else self.scale

    def to_original(self, y) -> np.ndarray:
        """Map a point from internal solver coordinates back to the original."""
        y = np.asarray(y, dtype=np.float64)
        if self.rotate45:
            self._expect_plane(y)
        if self.scale is not None:
            y = y / np.asarray(self.scale)
        return unrotate45(y) if self.rotate45 else y

    def to_internal(self, x) -> np.ndarray:
        """Map a point from original coordinates into solver coordinates."""
        x = np.asarray(x, dtype=np.float64)
        if self.rotate45:
            self._expect_plane(x)
            x = rotate45(x)
        return x if self.scale is None else x * np.asarray(self.scale)

    @staticmethod
    def _expect_plane(v) -> None:
        if v.shape != (2,):
            raise DimensionError(f"planar point expected, got shape {v.shape}")


@dataclass(frozen=True, eq=False)
class SolutionBox:
    """The complete optimal solution set of a location instance.

    theta is the optimal objective value; every member attains it.  Members
    are ``transform.to_original(generator (x) u)`` for ``u_lo <= u <= u_hi``.
    The box may be degenerate (u_lo == u_hi: a unique solution).
    """

    theta: float
    generator: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray
    transform: Transform

    def member(self, u) -> np.ndarray:
        """Original-coordinate solution for a parameter vector u."""
        return self.transform.to_original(mat_vec(self.generator, np.asarray(u, dtype=np.float64)))

    @property
    def vertex_lo(self) -> np.ndarray:
        return self.member(self.u_lo)

    @property
    def vertex_hi(self) -> np.ndarray:
        return self.member(self.u_hi)


__all__ = ["Transform", "SolutionBox", "rotate45", "unrotate45"]
