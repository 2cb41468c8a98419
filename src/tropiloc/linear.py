"""Solvers for max-plus linear inequalities.

Three solvable shapes, each with a complete solution description:

* ``A x <= d``            -- all solutions are ``x <= solve_upper(A, d)``;
* ``A x max b <= x``      -- all regular solutions are ``A* u`` for ``u >= b``,
  which exist precisely when Tr(A) <= 0;
* ``A x max p <= x <= q`` -- all solutions are ``A* u`` for
  ``p <= u <= (q~ A*)~``, nonempty precisely when additionally
  ``p <= (q~ A*)~`` (``~`` is the entrywise conjugate).

Infeasibility is reported as a typed result, not an exception, so callers
can distinguish which certificate failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .semiring import BOTTOM, _vec_mat, is_regular, mat_vec, trace_and_closure


@dataclass(frozen=True, eq=False)
class ParametricFamily:
    """Complete solution family ``x = generator (x) u`` over a parameter box.

    ``u_hi is None`` means the parameter is unbounded above.  The family is
    nonempty exactly when ``u_lo <= u_hi`` componentwise (always, if
    unbounded above).
    """

    generator: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray | None

    def member(self, u) -> np.ndarray:
        """The solution produced by parameter vector ``u``."""
        return mat_vec(self.generator, np.asarray(u, dtype=np.float64))

    @property
    def is_empty(self) -> bool:
        return self.u_hi is not None and bool(np.any(self.u_lo > self.u_hi))


@dataclass(frozen=True)
class Infeasible:
    """Typed infeasibility verdict.

    cause is "spectral" (a positive cycle: Tr > 0, witness = the weight of
    a positive closed walk found by the closure's relaxation, which can be
    less than Tr) or "bounds" (lower and upper requirements conflict,
    witness = the largest positive gap).
    """

    cause: str
    witness: float


def solve_upper(a, d) -> np.ndarray:
    """Largest x with ``A x <= d``; every solution is componentwise below it.

    Requires a nonempty A without all-bottom columns and regular d.  The bound is
    x_j = min_i (d_i - a_ij), written tropically as ``(d~ A)~``.
    """
    a = np.asarray(a, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if a.ndim != 2 or d.ndim != 1 or a.shape[0] != d.shape[0]:
        raise DomainError(f"incompatible shapes {a.shape} and {d.shape}")
    if a.size == 0:
        raise DimensionError("matrix must be nonempty")
    dead = ~np.any(a > BOTTOM, axis=0)
    if dead.any():
        raise DomainError(f"column {int(np.argmax(dead))} of A has no finite entry")
    if not is_regular(d):
        raise DomainError("right-hand side d must be regular (no bottom entries)")
    return parameter_upper_bound(a, d)


def solve_fixed_point(a, b) -> ParametricFamily | Infeasible:
    """All regular solutions of ``A x max b <= x``.

    Exist iff Tr(A) <= 0 and are then exactly ``A* u`` with ``u >= b``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != a.shape[:1]:
        raise DomainError(f"incompatible shapes {a.shape} and {b.shape}")
    gauge, star = trace_and_closure(a)
    if star is None:
        return Infeasible("spectral", gauge)
    return ParametricFamily(star, u_lo=b, u_hi=None)


def parameter_upper_bound(star, q) -> np.ndarray:
    """Largest u with ``star (x) u <= q``, i.e. ``(q~ star)~``.

    q must be regular and every column of star must hold a finite entry (a
    closure has a zero diagonal).  Then every entry of q and of q~ star is
    finite, and the conjugate of a finite entry is its negation, signed
    zeros included: the bound is two negations around one vec_mat.  This is
    the arithmetic of solve_upper, without its checks.
    """
    return np.negative(_vec_mat(np.negative(np.asarray(q, dtype=np.float64)), np.asarray(star, dtype=np.float64)))


def _gap(lo: np.ndarray, hi: np.ndarray) -> float:
    """max(lo - hi), the largest crossing of a box, with no overflow warning.

    Two finite ends more than the float range apart cross by -inf or +inf.
    """
    with np.errstate(over="ignore"):
        return float(np.maximum.reduce(lo - hi))


def solve_double(a, p, q) -> ParametricFamily | Infeasible:
    """All solutions of the two-sided system ``A x max p <= x <= q``.

    p may contain bottom entries (no lower bound on that coordinate); q must
    be regular.  The family is ``A* u`` over ``p <= u <= (q~ A*)~``.
    """
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if a.ndim != 2 or p.shape != a.shape[:1] or q.shape != a.shape[:1]:
        raise DomainError(f"incompatible shapes {a.shape}, {p.shape}, {q.shape}")
    if not is_regular(q):
        raise DomainError("upper bound q must be regular (no bottom entries)")
    gauge, star = trace_and_closure(a)
    if star is None:
        return Infeasible("spectral", gauge)
    u_hi = parameter_upper_bound(star, q)
    gap = _gap(p, u_hi)
    if not gap <= 0.0:
        return Infeasible("bounds", gap)
    return ParametricFamily(star, u_lo=p, u_hi=u_hi)


__all__ = [
    "ParametricFamily",
    "Infeasible",
    "solve_upper",
    "solve_fixed_point",
    "solve_double",
    "parameter_upper_bound",
]
