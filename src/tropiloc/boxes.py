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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .semiring import _mat_vec_rows

# Below this entry size (a quarter of the float range) no sum or difference of
# two entries overflows: unrotate45 halves a row first from it on, and the
# plane reductions check rotated points only from it on.
_HALVE_FROM = 2.0**1022


def rotate45(x: np.ndarray) -> np.ndarray:
    """(x1, x2) -> (x1 + x2, x2 - x1), for one point of shape (2,) or rows of shape (N, 2).

    Rows come back as the F-ordered transpose of one fresh (2, N) array,
    whose rows are the two rotated coordinates.
    """
    x1, x2 = x.T
    out = np.empty((2,) + x1.shape)
    np.add(x1, x2, out=out[0, ...])
    np.subtract(x2, x1, out=out[1, ...])
    return out.T


def unrotate45(y: np.ndarray) -> np.ndarray:
    """Inverse of rotate45, exact on the rational grid: (y1, y2) -> ((y1 - y2)/2, (y1 + y2)/2).

    A sum or difference overflows only on a row with an entry of 2**1022 or
    more.  Such rows are halved first, which is exact there (an entry too
    small to halve exactly is lost in the rounding either way), so they give
    the same bits and a finite result where the plain formula overflows.
    Every other row, subnormals included, takes the plain formula.
    """
    y1, y2 = y.T
    half = 1.0
    if np.maximum.reduce(np.abs(y), axis=None) >= _HALVE_FROM:
        half = np.where(np.maximum(np.abs(y1), np.abs(y2)) >= _HALVE_FROM, 0.5, 1.0)
        y1, y2 = y1 * half, y2 * half
    return (np.array([y1 - y2, y1 + y2]) / (2.0 * half)).T


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
        """Map a point, or each row of an (N, dim) array, from solver coordinates back to the original."""
        y = np.asarray(y, dtype=np.float64)
        if self.rotate45:
            self._expect_plane(y, rows=True)
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
    def _expect_plane(v, rows: bool = False) -> None:
        if v.shape[-1:] != (2,) or v.ndim > 1 + rows:
            raise DimensionError(f"planar point expected, got shape {v.shape}")


class _Closure:
    """A B* given as a matrix, with the two things a box takes of it: members and matrix."""

    __slots__ = ("closure",)

    def __init__(self, closure):
        self.closure = np.asarray(closure, dtype=np.float64)

    def matrix(self) -> np.ndarray:
        return self.closure

    def members(self, us: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # as chebyshev._Star.members
            return _mat_vec_rows(self.closure, us)


@dataclass(frozen=True, eq=False)
class SolutionBox:
    """The complete optimal solution set of a location instance.

    theta is the optimal objective value; every member attains it.  Members
    are ``transform.to_original(generator (x) u)`` for ``u_lo <= u <= u_hi``.
    The box may be degenerate (u_lo == u_hi: a unique solution).

    The generator is the closure B* of the instance's difference bounds.  The
    solver forms its products without it where that is cheaper (see
    chebyshev._Star), so ``generator`` is built on first read and kept.
    member, sample, is_member and verify use only the box's own product
    B* (x) u and never build it: they take the closure if the solve built
    one, else the same iteration on B as the solve.  The second field is
    that B* on demand (chebyshev._Star); a box built by hand may pass B*
    there as a matrix, positionally, and its products are then those of the
    matrix.
    """

    theta: float
    _star: object = field(repr=False)
    u_lo: np.ndarray
    u_hi: np.ndarray
    transform: Transform

    def __post_init__(self):
        if isinstance(self._star, (np.ndarray, list, tuple)):
            object.__setattr__(self, "_star", _Closure(self._star))

    @property
    def generator(self) -> np.ndarray:
        return self._star.matrix()

    def member(self, u) -> np.ndarray:
        """Original-coordinate solution for a parameter vector u."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.u_lo.shape:
            raise DimensionError(f"parameter of shape {self.u_lo.shape} expected, got shape {u.shape}")
        return self.transform.to_original(self._star.members(u[None, :])[0])

    @property
    def vertex_lo(self) -> np.ndarray:
        return self.member(self.u_lo)

    @property
    def vertex_hi(self) -> np.ndarray:
        return self.member(self.u_hi)


__all__ = ["Transform", "SolutionBox", "rotate45", "unrotate45"]
