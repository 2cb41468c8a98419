"""Working with solved boxes: objectives, membership, sampling, verification.

These helpers replay the original problem data against candidate points, so
they form an independent check on the algebraic solvers: a SolutionBox
passes `verify` only if its sampled members actually attain theta and
satisfy every constraint of the instance they came from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import SolutionBox, rotate45
from .chebyshev import _scale_of
from .errors import DimensionError, DomainError
from .rectilinear import TiltedStripInstance
from .semiring import _mat_vec_rows
from .variants import lookup

OBJECTIVE_TOL = 1e-9
CONSTRAINT_SLACK = 1e-12
# Parameter-box comparisons tolerate last-ulp rounding from the closed-form
# theta; anything beyond this gap is treated as genuinely outside.
MEMBERSHIP_ATOL = 1e-9


def _as_point(x, dim: int) -> np.ndarray:
    """x as one (1, dim) row; a point has shape (dim,) or (1, dim), and more rows are not a point."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape not in ((dim,), (1, dim)):
        raise DimensionError(f"point of dimension {dim} expected, got shape {arr.shape}")
    return arr.reshape(1, dim)


def _distances(inst, xs: np.ndarray) -> np.ndarray:
    """(N, m) distances from each row of xs to each point, in the variant's metric."""
    diff = np.abs(xs[:, None, :] - inst.points[None, :, :])
    norm = np.add if lookup(inst).rotate45 else np.maximum
    return norm.reduce(diff, axis=2)


def objective_batch(inst, xs: np.ndarray) -> np.ndarray:
    """Objective at each row of xs (shape (N, dim)) without validation."""
    return np.maximum.reduce(inst.weights[None, :] * _distances(inst, xs) + inst.addends[None, :], axis=1)


def objective_value(inst, x) -> float:
    """max_j ( w_j * d(x, p_j) + h_j ) with the instance's metric."""
    xs = _as_point(x, inst.dim)
    return float(objective_batch(inst, xs)[0])


def violation_batch(inst, xs: np.ndarray) -> np.ndarray:
    """Largest constraint violation at each row of xs; <= 0 means feasible.

    The box is finite, so a row with an infinite coordinate violates it by
    +inf, and a row with a nan coordinate is nan.  Such rows skip the other
    terms, where inf - inf (a cap or a bound against the infinite distance)
    and 0 * inf (a flat band) would make nan.
    """
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        worst = np.where(np.isnan(xs).any(axis=1), np.nan, np.inf)
        worst[finite] = violation_batch(inst, xs[finite])
        return worst
    n_pts = xs.shape[0]
    worst = np.full(n_pts, -np.inf)
    if inst.caps is not None:
        worst = np.maximum(worst, np.max(_distances(inst, xs) - inst.caps[None, :], axis=1))
    # A coordinate and a box end, or a band term, more than the float range
    # apart differ by an inf of the right sign, quietly.  For the difference
    # bounds: max over finite B[i, k] of B[i, k] + y_k - y_i, with y = c x, is
    # max_i (B (x) y)_i - y_i: subtracting y_i rounds monotonically, so the
    # max commutes with it bit for bit, and bottom entries stay bottom.  A
    # finite x whose y overflows to inf makes bottom + inf (or inf - inf) =
    # nan there, quietly; fmax keeps the box terms' inf for such a point, and
    # the other rows keep their bits.
    with np.errstate(over="ignore", invalid="ignore"):
        if lookup(inst).rotate45:
            y1, y2 = rotate45(xs).T
            worst = np.maximum(worst, inst.box_lo[0] - y1)
            worst = np.maximum(worst, y1 - inst.box_hi[0])
            worst = np.maximum(worst, inst.box_lo[1] - y2)
            worst = np.maximum(worst, y2 - inst.box_hi[1])
            if isinstance(inst, TiltedStripInstance):
                band = inst.slope * xs[:, 0]
                worst = np.maximum(worst, inst.strip_lo + xs[:, 1] - band)
                worst = np.maximum(worst, band - inst.strip_hi - xs[:, 1])
            else:
                worst = np.maximum(worst, inst.strip_lo - xs[:, 0])
                worst = np.maximum(worst, xs[:, 0] - inst.strip_hi)
            return worst
        worst = np.maximum(worst, np.max(inst.box_lo[None, :] - xs, axis=1))
        worst = np.maximum(worst, np.max(xs - inst.box_hi[None, :], axis=1))
        coords = xs * _scale_of(inst)[None, :]
        return np.fmax(worst, np.max(_mat_vec_rows(inst.diff_bounds, coords) - coords, axis=1))


def constraint_violation(inst, x) -> float:
    """Largest violation across all constraints at x; <= 0 means feasible."""
    xs = _as_point(x, inst.dim)
    return float(violation_batch(inst, xs)[0])


def is_member(box: SolutionBox, inst, x) -> bool:
    """Whether x belongs to the solved optimal set.

    x is mapped to internal coordinates y.  Every member is its own
    parameter: B* is idempotent with a zero diagonal, so a member y has
    B* (x) y = y and u_lo <= y <= u_hi.  Membership therefore holds iff
    u = min(y, u_hi) still dominates u_lo and reproduces y; a y that passes
    is the member of u.  Both comparisons allow MEMBERSHIP_ATOL.  The test
    takes one of the box's own products and builds no closure.
    """
    y = box.transform.to_internal(_as_point(x, inst.dim)[0])
    u = np.minimum(y, box.u_hi)
    if np.any(u < box.u_lo - MEMBERSHIP_ATOL):
        return False
    replayed = box._star.members(u[None, :])[0]
    return bool(np.max(np.abs(replayed - y)) <= MEMBERSHIP_ATOL)


def sample(box: SolutionBox, k: int, seed: int = 0) -> np.ndarray:
    """k deterministic members of the box, in original coordinates.

    The first member is the u_lo vertex; with k >= 2 the second is the u_hi
    vertex; further members come from seeded uniform parameter draws.
    """
    if k < 1:
        raise DomainError("sample size must be at least 1")
    gap = box.u_lo - box.u_hi
    if np.logical_or.reduce(gap > MEMBERSHIP_ATOL):
        raise DomainError("cannot sample from an empty box")
    n = box.u_lo.shape[0]
    us = np.empty((k, n))
    us[0] = box.u_lo
    us[1:2] = box.u_hi  # no row when k = 1
    if k > 2:
        rng = np.random.default_rng(seed)
        span = box.u_hi - box.u_lo
        us[2:] = box.u_lo[None, :] + rng.random((k - 2, n)) * span[None, :]
    # The rows of one max-plus product, each reduced as box.member reduces its one row.
    return box.transform.to_original(box._star.members(us))


@dataclass(frozen=True)
class VerificationReport:
    """Replay outcome for sampled members of a solved box."""

    checked_count: int
    max_objective_deviation: float
    max_constraint_violation: float

    @property
    def passed(self) -> bool:
        return (
            self.max_objective_deviation <= OBJECTIVE_TOL
            and self.max_constraint_violation <= CONSTRAINT_SLACK
        )


def verify(box: SolutionBox, inst, k: int, seed: int = 0) -> VerificationReport:
    """Sample k members and replay objective and constraints against inst."""
    members = sample(box, k, seed)
    objectives = objective_batch(inst, members)
    violations = violation_batch(inst, members)
    return VerificationReport(
        checked_count=int(members.shape[0]),
        max_objective_deviation=float(np.max(np.abs(objectives - box.theta))),
        max_constraint_violation=float(np.max(violations)),
    )


__all__ = [
    "OBJECTIVE_TOL",
    "CONSTRAINT_SLACK",
    "MEMBERSHIP_ATOL",
    "objective_value",
    "objective_batch",
    "constraint_violation",
    "violation_batch",
    "is_member",
    "sample",
    "verify",
    "VerificationReport",
]
