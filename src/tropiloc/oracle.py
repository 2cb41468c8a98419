"""Brute-force lattice oracle, independent of the algebraic solvers.

Scans a regular lattice over an axis-aligned window, replays every
constraint directly against the instance data (with a tiny slack for float
lattice arithmetic) and minimizes the objective over the feasible lattice
points.  Deliberately naive: its only job is to cross-check the closed-form
machinery, so it shares no code path with it beyond the constraint replay.

The lattice size is checked against the cap from the per-axis counts before
anything is allocated, and the lattice is swept once, in chunks whose
(chunk, m, n) distance arrays stay near 2^18 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .solutions import CONSTRAINT_SLACK, OBJECTIVE_TOL, objective_batch, violation_batch

BOUNDARY_SLACK = CONSTRAINT_SLACK
ATTAIN_TOL = OBJECTIVE_TOL
MAX_LATTICE_POINTS = 30_000_000
_CHUNK = 262_144  # entries of one chunk's (points, m, n) distance array


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Outcome of a lattice scan.

    best_value is None when no lattice point was feasible.  best_points
    holds every feasible lattice point whose objective is within ATTAIN_TOL
    of best_value, in lexicographic order.
    """

    best_value: float | None
    best_points: np.ndarray
    grid_step: float
    evaluated: int

    @property
    def feasible(self) -> bool:
        return self.best_value is not None


def _lattice_axes(lo, hi, step: float) -> tuple[np.ndarray, list]:
    """The start of each lattice axis and its point count (inf when it overflows)."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise DomainError(f"window bounds must be equal-length vectors, got {lo.shape} and {hi.shape}")
    if lo.shape[0] > 3:
        raise DomainError(f"lattice scans support dimension <= 3, got {lo.shape[0]}")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()) or np.any(lo > hi):
        raise DomainError("window bounds must be finite with lo <= hi")
    if isinstance(step, bool) or not (isinstance(step, (int, float)) and np.isfinite(step) and step > 0):
        raise DomainError("step must be a positive real")
    spans = [(b - a) / step for a, b in zip(lo.tolist(), hi.tolist())]
    return lo, [math.floor(s + 1e-9) + 1 if s < math.inf else math.inf for s in spans]


def _lattice_chunks(inst, lo, hi, step: float, max_points: int):
    lo, counts = _lattice_axes(lo, hi, step)
    if len(counts) != inst.dim:
        raise DomainError(f"window dimension {len(counts)} does not match instance dimension {inst.dim}")
    total = math.prod(counts)
    if total > max_points:
        raise ResourceError(f"lattice of {total} points exceeds the cap of {max_points}")
    # Row-major (last axis fastest) enumeration, materializing one chunk at a
    # time so the cap bounds work, not memory.  The distances build a
    # (chunk, m, n) array, so a chunk holds _CHUNK / (m n) points.
    chunk = max(1, _CHUNK // (inst.m * inst.dim))
    for start in range(0, total, chunk):
        rem = np.arange(start, min(start + chunk, total))
        coords = np.empty((rem.shape[0], len(counts)))
        for d in range(len(counts) - 1, -1, -1):
            rem, pos = np.divmod(rem, counts[d])
            coords[:, d] = lo[d] + step * pos
        yield coords


def grid_minimize(inst, lo, hi, step: float, *, max_points: int = MAX_LATTICE_POINTS) -> OracleResult:
    """Minimize the instance objective over feasible lattice points.

    The window [lo, hi] is scanned at the given step in one sweep;
    constraints are replayed with BOUNDARY_SLACK to absorb lattice float
    rounding.  Each chunk keeps its points within ATTAIN_TOL of the running
    best, and those are filtered against the final best at the end.
    """
    best = np.inf
    evaluated = 0
    kept = []
    for chunk in _lattice_chunks(inst, lo, hi, step, max_points):
        evaluated += chunk.shape[0]
        feas = violation_batch(inst, chunk) <= BOUNDARY_SLACK
        if feas.any():
            pts = chunk[feas]
            vals = objective_batch(inst, pts)
            best = min(best, float(vals.min()))
            hit = vals <= best + ATTAIN_TOL
            kept.append((pts[hit], vals[hit]))
    if not np.isfinite(best):
        return OracleResult(None, np.empty((0, inst.dim)), float(step), evaluated)
    # row-major enumeration already yields lexicographic order
    points = np.concatenate([pts[vals <= best + ATTAIN_TOL] for pts, vals in kept], axis=0)
    return OracleResult(best, points, float(step), evaluated)


def grid_feasible(inst, lo, hi, step: float, *, max_points: int = MAX_LATTICE_POINTS) -> bool:
    """Whether any lattice point in the window satisfies all constraints.

    Stops at the first feasible point.
    """
    for chunk in _lattice_chunks(inst, lo, hi, step, max_points):
        if np.any(violation_batch(inst, chunk) <= BOUNDARY_SLACK):
            return True
    return False


__all__ = [
    "OracleResult",
    "grid_minimize",
    "grid_feasible",
    "BOUNDARY_SLACK",
    "ATTAIN_TOL",
    "MAX_LATTICE_POINTS",
]
