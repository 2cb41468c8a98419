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
from .linear import parameter_upper_bound
from .rectilinear import TiltedStripInstance
from .semiring import BOTTOM, _mat_vec, mat_vec
from .variants import lookup

OBJECTIVE_TOL = 1e-9
CONSTRAINT_SLACK = 1e-12
# Parameter-box comparisons tolerate last-ulp rounding from the closed-form
# theta; anything beyond this gap is treated as genuinely outside.
MEMBERSHIP_ATOL = 1e-9


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise DimensionError(f"point of dimension {dim} expected, got shape {arr.shape}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise DimensionError(f"points of dimension {dim} expected, got shape {arr.shape}")


def _distances(inst, xs: np.ndarray) -> np.ndarray:
    """(N, m) distances from each row of xs to each point, in the variant's metric."""
    diff = np.abs(xs[:, None, :] - inst.points[None, :, :])
    norm = np.sum if lookup(inst).rotate45 else np.max
    return norm(diff, axis=2)


def objective_batch(inst, xs: np.ndarray) -> np.ndarray:
    """Objective at each row of xs (shape (N, dim)) without validation."""
    return np.max(inst.weights[None, :] * _distances(inst, xs) + inst.addends[None, :], axis=1)


def objective_value(inst, x) -> float:
    """max_j ( w_j * d(x, p_j) + h_j ) with the instance's metric."""
    xs, _ = _as_batch(x, inst.dim)
    return float(objective_batch(inst, xs)[0])


def violation_batch(inst, xs: np.ndarray) -> np.ndarray:
    """Largest constraint violation at each row of xs; <= 0 means feasible."""
    n_pts = xs.shape[0]
    worst = np.full(n_pts, -np.inf)
    if inst.caps is not None:
        worst = np.maximum(worst, np.max(_distances(inst, xs) - inst.caps[None, :], axis=1))
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
    bounds = inst.diff_bounds
    for i, k in np.argwhere(bounds > BOTTOM):
        worst = np.maximum(worst, bounds[i, k] + coords[:, k] - coords[:, i])
    return worst


def constraint_violation(inst, x) -> float:
    """Largest violation across all constraints at x; <= 0 means feasible."""
    xs, _ = _as_batch(x, inst.dim)
    return float(violation_batch(inst, xs)[0])


def is_member(box: SolutionBox, inst, x) -> bool:
    """Whether x belongs to the solved optimal set.

    x is mapped to internal coordinates y; membership holds iff the largest
    parameter u with generator (x) u <= y, clipped to u_hi, still dominates
    u_lo and reproduces y.  This is a complete test: any witness parameter
    is below that clipped maximizer, which then also reproduces y.
    """
    xs, _ = _as_batch(x, inst.dim)
    y = box.transform.to_internal(xs[0])
    u_cap = parameter_upper_bound(box.generator, y)
    u_hat = np.minimum(u_cap, box.u_hi)
    if np.any(u_hat < box.u_lo - MEMBERSHIP_ATOL):
        return False
    replayed = mat_vec(box.generator, u_hat)
    return bool(np.max(np.abs(replayed - y)) <= MEMBERSHIP_ATOL)


def sample(box: SolutionBox, k: int, seed: int = 0) -> np.ndarray:
    """k deterministic members of the box, in original coordinates.

    The first member is the u_lo vertex; with k >= 2 the second is the u_hi
    vertex; further members come from seeded uniform parameter draws.
    """
    if k < 1:
        raise DomainError("sample size must be at least 1")
    gap = box.u_lo - box.u_hi
    if np.any(gap > MEMBERSHIP_ATOL):
        raise DomainError("cannot sample from an empty box")
    us = np.vstack([box.u_lo, box.u_hi])[:k]
    if k > 2:
        rng = np.random.default_rng(seed)
        span = box.u_hi - box.u_lo
        draws = box.u_lo[None, :] + rng.random((k - 2, box.u_lo.shape[0])) * span[None, :]
        us = np.vstack([us, draws])
    # The rows of one max-plus product, each reduced as box.member reduces
    # its one row; chunked to bound the (rows, n, n) temporary.
    n = box.generator.shape[0]
    rows = max(1, (1 << 20) // (n * n))
    members = np.vstack([_mat_vec(box.generator, us[r : r + rows]) for r in range(0, k, rows)])
    return box.transform.to_original(members)


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
