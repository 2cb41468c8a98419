"""Independent answer checks for the benchmark.

Every timed call is judged here, from the problem definition alone: a
returned or emitted member must attain the claimed optimum ``theta`` and
satisfy every constraint of the instance it came from, both to within a
tolerance that scales with the instance's magnitude.  Nothing in this file
calls the solver's own ``verify``/``is_member`` helpers, whose tolerances are
absolute.
"""

from __future__ import annotations

import json

import numpy as np

from tropiloc import ScaledChebyshevInstance, StripInstance, TiltedStripInstance
from tropiloc.linear import Infeasible

# Allowed miss, in units of float64 epsilon times the instance's scales (see
# Scales).  Correct answers on the benchmark's pools, native and rescaled to
# 1e9, miss by at most 0.62 of these units; the self-test's tampered theta
# misses by about 4e9 of them.
TOL_ULPS = 64
EPS = float(np.finfo(np.float64).eps)

OK = "ok"
WRONG = "wrong"  # an answer came back and it is wrong
ERROR = "error"  # no answer came back (raised, or a nonzero exit code)


def _finite_abs_max(*arrays) -> float:
    best = 0.0
    for arr in arrays:
        a = np.abs(np.asarray(arr, dtype=np.float64))
        a = a[np.isfinite(a)]
        if a.size:
            best = max(best, float(a.max()))
    return best


def _is_plane(inst) -> bool:
    return isinstance(inst, StripInstance)


class Scales:
    """Magnitudes of one instance, which set the tolerances of its checks."""

    def __init__(self, inst):
        caps = () if inst.caps is None else (inst.caps,)
        if _is_plane(inst):
            extra = (np.array([inst.strip_lo, inst.strip_hi]),)
            coef = abs(inst.slope) if isinstance(inst, TiltedStripInstance) else 1.0
        else:
            extra = (inst.diff_bounds,)
            coef = float(np.max(np.abs(inst.scale))) if isinstance(inst, ScaledChebyshevInstance) else 1.0
        # Coordinates and every length-valued datum; the plane variants add
        # two coordinates (x1 + x2) so lengths get a factor of 2.
        self.length = 2.0 * _finite_abs_max(inst.points, inst.box_lo, inst.box_hi, *caps, *extra)
        self.objective = float(np.max(inst.weights)) * 2.0 * self.length + _finite_abs_max(inst.addends)
        self.tol_objective = TOL_ULPS * EPS * self.objective
        self.tol_constraint = TOL_ULPS * EPS * max(1.0, coef) * 2.0 * self.length


def objectives(inst, xs: np.ndarray) -> np.ndarray:
    """max_j w_j d(x, p_j) + h_j for each row of xs."""
    diff = np.abs(xs[:, None, :] - inst.points[None, :, :])
    dist = diff.sum(axis=2) if _is_plane(inst) else diff.max(axis=2)
    return np.max(inst.weights[None, :] * dist + inst.addends[None, :], axis=1)


def violations(inst, xs: np.ndarray) -> np.ndarray:
    """Largest constraint excess for each row of xs; <= 0 means feasible."""
    parts = []
    if inst.caps is not None:
        diff = np.abs(xs[:, None, :] - inst.points[None, :, :])
        dist = diff.sum(axis=2) if _is_plane(inst) else diff.max(axis=2)
        excess = dist - inst.caps[None, :]
        parts.append(np.max(np.where(np.isinf(inst.caps)[None, :], -np.inf, excess), axis=1))
    if _is_plane(inst):
        x1, x2 = xs[:, 0], xs[:, 1]
        rot = np.stack([x1 + x2, x2 - x1], axis=1)
        parts += [np.max(inst.box_lo - rot, axis=1), np.max(rot - inst.box_hi, axis=1)]
        if isinstance(inst, TiltedStripInstance):
            band = inst.slope * x1 - x2
        else:
            band = x1
        parts += [inst.strip_lo - band, band - inst.strip_hi]
    else:
        parts += [np.max(inst.box_lo - xs, axis=1), np.max(xs - inst.box_hi, axis=1)]
        coords = xs * inst.scale[None, :] if isinstance(inst, ScaledChebyshevInstance) else xs
        for i, k in np.argwhere(np.isfinite(inst.diff_bounds)):
            parts.append(inst.diff_bounds[i, k] + coords[:, k] - coords[:, i])
    return np.max(np.stack(parts, axis=1), axis=1)


def check_members(inst, scales: Scales, theta: float, members) -> tuple[str, str]:
    """Judge claimed optimum ``theta`` and members against the instance."""
    xs = np.asarray(members, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] != inst.dim or not np.all(np.isfinite(xs)):
        return WRONG, "malformed members"
    miss = float(np.max(np.abs(objectives(inst, xs) - theta)))
    if not miss <= scales.tol_objective:
        return WRONG, "member misses theta"
    if not float(np.max(violations(inst, xs))) <= scales.tol_constraint:
        return WRONG, "member violates a constraint"
    return OK, ""


def box_members(box) -> np.ndarray:
    """Both vertices and the midpoint of a solution box's parameter range."""
    us = (box.u_lo, box.u_hi, 0.5 * (box.u_lo + box.u_hi))
    return np.array([box.member(u) for u in us])


def check_result(item, result) -> tuple[str, str]:
    """Judge the return value of ``tropiloc.solve`` (or the exception it raised)."""
    if isinstance(result, BaseException):
        return ERROR, f"raised {type(result).__name__}: {result}"
    if isinstance(result, Infeasible):
        if item.cause is None:
            return WRONG, f"feasible instance reported infeasible ({result.cause})"
        if result.cause != item.cause:
            return WRONG, f"infeasible cause {result.cause}, expected {item.cause}"
        return OK, ""
    if item.cause is not None:
        return WRONG, "infeasible instance solved"
    if np.any(result.u_lo - result.u_hi > item.scales.tol_constraint):
        return WRONG, "empty parameter box"
    return check_members(item.inst, item.scales, result.theta, box_members(result))


_CAUSE_TEXT = {"spectral": "positive cycle", "bounds": "bound envelopes cross"}


def check_cli(item, code: int, stdout: bytes, stderr: str) -> tuple[str, str]:
    """Judge one ``tropiloc solve FILE`` run: exit code, stderr and JSON output."""
    if code == 2:
        if item.cause is None:
            return WRONG, "feasible instance reported infeasible"
        if _CAUSE_TEXT[item.cause] not in stderr:
            return WRONG, f"infeasible with the wrong cause: {stderr.strip()}"
        return OK, ""
    if code != 0:
        return ERROR, f"exit {code}: {stderr.strip()}"
    if item.cause is not None:
        return WRONG, "infeasible instance solved"
    try:
        doc = json.loads(stdout)
        theta = float(doc["theta"])
        members = doc["members"]
    except (ValueError, KeyError, TypeError) as exc:
        return WRONG, f"unreadable solution output: {exc}"
    return check_members(item.inst, item.scales, theta, members)


def self_test(item, theta: float, members, shifted_members) -> None:
    """Show the member check is not vacuous on one correctly solved instance.

    The honest answer must pass.  The same answer with theta moved by a
    millionth of the objective scale must fail, and so must the members of
    the box shifted by ``shift(item)``.
    """
    scales = item.scales
    honest = check_members(item.inst, scales, theta, members)
    tampered = check_members(item.inst, scales, theta + 1e-6 * scales.objective, members)
    shifted = check_members(item.inst, scales, theta, shifted_members)
    if honest[0] != OK or tampered[0] != WRONG or shifted[0] != WRONG:
        raise RuntimeError(
            f"answer check self-test failed on instance {item.name}: "
            f"honest={honest}, tampered theta={tampered}, shifted box={shifted}"
        )


def shift(item) -> float:
    """A box shift that moves every member out of the instance's box."""
    return 4.0 * item.scales.length
