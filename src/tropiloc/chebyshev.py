"""Exact minimax location under the Chebyshev metric, in any dimension.

The problem: place one point x in R^n minimizing

    max_j ( w_j * dinf(x, p_j) + h_j )

over m given points p_j with positive weights w_j and real addends h_j,
subject to per-point reach caps dinf(x, p_j) <= d_j, a coordinate box
f <= x <= g, and pairwise difference bounds x_i >= b_ik + x_k collected in a
max-plus matrix B (bottom entry = no constraint).

Everything reduces to two-sided tropical inequalities.  Feasibility is
decided by two exact certificates:

* spectral: Tr(B) <= 0 (no positive cycle among the difference bounds);
* bounds:   t~ (x) B* (x) s <= 0, where s and t are the theta-independent
            lower/upper envelopes from caps and box.

When both pass, the optimum theta has a closed form (a finite max over point
pairs and closure entries) and the full optimal set is the box
``x = B* (x) u`` for ``q max s <= u <= ((r~ max t~) B*)~``, where q and r are
the envelopes induced by requiring the objective not to exceed theta.

The scaled variant replaces x_i by c_i * x_i (c_i != 0) inside caps, box and
difference bounds while keeping the same objective; it is solved by the same
machinery in scaled coordinates y_i = c_i * x_i and mapped back.  A plain
instance is the scaled one with c = 1, so one core, ``solve_core``, solves
both; ``solve_particular`` and ``solve_scaled`` are its typed entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import SolutionBox, Transform
from .errors import ContractViolationError, InstanceError
from .linear import Infeasible, parameter_upper_bound
from .semiring import (
    BOTTOM,
    conjugate_transpose,
    mat_mul,
    mat_vec,
    trace_and_closure,
    vec_dot,
    vec_mat,
)


def _as_float_array(value, shape_hint: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{shape_hint} must be numeric: {exc}") from None
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _validate_shared(inst) -> int:
    """Check and freeze the fields every variant shares, points to box; returns n."""
    points = _as_float_array(inst.points, "points")
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise InstanceError(f"points must be a nonempty 2-D array, got shape {points.shape}")
    m, n = points.shape
    bad = np.argwhere(~np.isfinite(points))
    if bad.size:
        j, i = bad[0]
        raise InstanceError(f"points[{j}][{i}] must be finite")
    weights = _as_float_array(inst.weights, "weights")
    if weights.shape != (m,):
        raise InstanceError(f"weights must have length {m}, got shape {weights.shape}")
    bad = np.argwhere(~(np.isfinite(weights) & (weights > 0)))
    if bad.size:
        raise InstanceError(f"weights[{int(bad[0][0])}] must be a positive real")
    addends = _as_float_array(inst.addends, "addends")
    if addends.shape != (m,):
        raise InstanceError(f"addends must have length {m}, got shape {addends.shape}")
    bad = np.argwhere(~np.isfinite(addends))
    if bad.size:
        raise InstanceError(f"addends[{int(bad[0][0])}] must be finite")
    caps = inst.caps
    if caps is not None:
        caps = _as_float_array(caps, "caps")
        if caps.shape != (m,):
            raise InstanceError(f"caps must have length {m}, got shape {caps.shape}")
        bad = np.argwhere(np.isnan(caps) | (caps <= 0))
        if bad.size:
            raise InstanceError(f"caps[{int(bad[0][0])}] must be a positive real (or +inf)")
    box_lo = _as_float_array(inst.box_lo, "lower")
    box_hi = _as_float_array(inst.box_hi, "upper")
    if box_lo.shape != (n,) or box_hi.shape != (n,):
        raise InstanceError(f"lower/upper box bounds must have length {n}")
    bad = np.argwhere(~np.isfinite(box_lo))
    if bad.size:
        raise InstanceError(f"lower[{int(bad[0][0])}] must be finite")
    bad = np.argwhere(~np.isfinite(box_hi))
    if bad.size:
        raise InstanceError(f"upper[{int(bad[0][0])}] must be finite")
    bad = np.argwhere(box_lo > box_hi)
    if bad.size:
        i = int(bad[0][0])
        raise InstanceError(f"lower[{i}] exceeds upper[{i}]")
    object.__setattr__(inst, "points", _freeze(points))
    object.__setattr__(inst, "weights", _freeze(weights))
    object.__setattr__(inst, "addends", _freeze(addends))
    object.__setattr__(inst, "caps", None if caps is None else _freeze(caps))
    object.__setattr__(inst, "box_lo", _freeze(box_lo))
    object.__setattr__(inst, "box_hi", _freeze(box_hi))
    return n


@dataclass(frozen=True, eq=False, kw_only=True)
class ChebyshevInstance:
    """One weighted minimax location problem under the Chebyshev metric.

    points      (m, n) array, one point per row, all finite.
    weights     (m,) positive finite.
    addends     (m,) finite.
    caps        (m,) reach caps, entries > 0; +inf drops a single cap and
                None drops them all.
    box_lo/box_hi  (n,) finite coordinate box, box_lo <= box_hi (equality
                allowed: degenerate boxes are legal).
    diff_bounds (n, n) max-plus matrix of lower bounds on x_i - x_k; bottom
                means unconstrained.
    """

    points: np.ndarray
    weights: np.ndarray
    addends: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    diff_bounds: np.ndarray
    caps: np.ndarray | None = None

    def __post_init__(self):
        n = _validate_shared(self)
        diff = _as_float_array(self.diff_bounds, "B")
        if diff.shape != (n, n):
            raise InstanceError(f"B must be {n}x{n}, got shape {diff.shape}")
        bad = np.argwhere(np.isnan(diff) | np.isposinf(diff))
        if bad.size:
            i, k = bad[0]
            raise InstanceError(f"B[{i}][{k}] must be real or absent")
        object.__setattr__(self, "diff_bounds", _freeze(diff))

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False, kw_only=True)
class ScaledChebyshevInstance(ChebyshevInstance):
    """Chebyshev instance whose constraints act on scaled coordinates.

    scale is an (n,) vector of nonzero reals c; caps, box and difference
    bounds all constrain y_i = c_i * x_i while the objective still measures
    plain Chebyshev distance to the points in x.  Negative entries flip the
    corresponding axis, which the bound assembly handles via min/max swaps.
    """

    scale: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        if self.scale is None:
            raise InstanceError("c is required for the scaled variant")
        scale = _as_float_array(self.scale, "c")
        if scale.shape != (self.dim,):
            raise InstanceError(f"c must have length {self.dim}, got shape {scale.shape}")
        bad = np.argwhere(~np.isfinite(scale) | (scale == 0))
        if bad.size:
            raise InstanceError(f"c[{int(bad[0][0])}] must be a finite nonzero real")
        object.__setattr__(self, "scale", _freeze(scale))


@dataclass(frozen=True, eq=False)
class BoundVectors:
    """Envelopes bounding the facility location coordinatewise.

    fixed_lo/fixed_hi come from reach caps and the box and do not depend on
    the objective level; level_lo/level_hi are induced by requiring the
    objective not to exceed a given level theta and are bottom / +inf
    placeholders when no level was supplied.  For scaled instances all four
    live in scaled coordinates.
    """

    level_lo: np.ndarray
    level_hi: np.ndarray
    fixed_lo: np.ndarray
    fixed_hi: np.ndarray


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the two feasibility certificates.

    cycle_gauge is the maximal cycle weight Tr of the difference-bound
    matrix (spectral certificate: must be <= 0).  bounds_gap is the value
    t~ (x) B* (x) s (bounds certificate: must be <= 0); it is None when the
    spectral certificate already failed, because the closure then diverges.
    """

    spectral_ok: bool
    cycle_gauge: float
    bounds_ok: bool
    bounds_gap: float | None

    @property
    def feasible(self) -> bool:
        return self.spectral_ok and self.bounds_ok


def _require_plain(inst, op: str) -> None:
    if isinstance(inst, ScaledChebyshevInstance):
        raise TypeError(f"{op} expects a plain ChebyshevInstance; use the scaled solver for scaled instances")


def _require_scaled(inst) -> None:
    if not isinstance(inst, ScaledChebyshevInstance):
        raise TypeError("a ScaledChebyshevInstance is required here")


def _scale_of(inst: ChebyshevInstance) -> np.ndarray:
    """The scale vector c; a plain instance is the scaled one with c = 1."""
    return inst.scale if isinstance(inst, ScaledChebyshevInstance) else np.ones(inst.dim)


def assemble_bounds(inst: ChebyshevInstance, theta: float | None = None) -> BoundVectors:
    """Coordinatewise envelopes of the constraint set (and objective level).

    In scaled coordinates y_i = c_i * x_i (c = 1 for a plain instance):
        fixed_lo_i = max( max_j (c_i p_ji - |c_i| d_j), min(c_i f_i, c_i g_i) )
        fixed_hi_i = min( min_j (c_i p_ji + |c_i| d_j), max(c_i f_i, c_i g_i) )
        level_lo_i = max_j ( |c_i| (h_j - theta) / w_j + c_i p_ji )
        level_hi_i = min_j ( |c_i| (theta - h_j) / w_j + c_i p_ji )
    The min/max over {c_i f_i, c_i g_i} handles axis flips.
    """
    w = inst.weights
    h = inst.addends
    c = _scale_of(inst)
    absc = np.abs(c)
    cp = c[None, :] * inst.points
    # A negative c_i swaps the ends of the box.  Selecting by sign rather than
    # by min/max keeps a signed zero where the two ends tie.
    flip = c < 0
    cf = c * inst.box_lo
    cg = c * inst.box_hi
    fixed_lo = np.where(flip, cg, cf)
    fixed_hi = np.where(flip, cf, cg)
    if inst.caps is not None:
        radii = inst.caps[:, None] * absc[None, :]
        fixed_lo = np.maximum((cp - radii).max(axis=0), fixed_lo)
        fixed_hi = np.minimum((cp + radii).min(axis=0), fixed_hi)
    if theta is None:
        level_lo = np.full(inst.dim, BOTTOM)
        level_hi = np.full(inst.dim, np.inf)
    else:
        rad = ((h - theta) / w)[:, None] * absc[None, :]
        level_lo = (rad + cp).max(axis=0)
        level_hi = (cp - rad).min(axis=0)
    return BoundVectors(level_lo, level_hi, fixed_lo, fixed_hi)


def _certificates(inst: ChebyshevInstance):
    gauge, star = trace_and_closure(inst.diff_bounds)
    bounds = assemble_bounds(inst)
    if star is None:
        return FeasibilityReport(False, gauge, False, None), None, bounds
    gap = vec_dot(vec_mat(conjugate_transpose(bounds.fixed_hi), star), bounds.fixed_lo)
    return FeasibilityReport(True, gauge, gap <= 0.0, gap), star, bounds


def check_feasibility(inst: ChebyshevInstance) -> FeasibilityReport:
    """Evaluate both feasibility certificates (plain or scaled instance)."""
    report, _, _ = _certificates(inst)
    return report


def _theta_particular(pts, w, h, star, fixed_lo, fixed_hi) -> float:
    # pair[j, l]: optimum induced by points j and l coupled through the
    # closure; row/col envelopes handle the caps/box sides.
    reach = mat_mul(-pts, star)                # (m, n): row j = p_j~ (x) B*
    coupling = mat_mul(reach, pts.T)           # (m, m): p_j~ (x) B* (x) p_l
    wj = w[:, None]
    wl = w[None, :]
    pair = (wl * h[:, None] + wj * h[None, :] + (wj * wl) * coupling) / (wj + wl)
    lo_side = h + w * mat_vec(reach, fixed_lo)
    hi_row = vec_mat(conjugate_transpose(fixed_hi), star)
    hi_side = h + w * mat_vec(pts, hi_row)
    return float(max(pair.max(), lo_side.max(), hi_side.max()))


def _theta_scaled(cp, absc, w, h, star, fixed_lo, fixed_hi) -> float:
    m, n = cp.shape
    best = BOTTOM
    hj = h[:, None]
    hl = h[None, :]
    wj = w[:, None]
    wl = w[None, :]
    for i in range(n):
        col_i = cp[:, i]
        for k in range(n):
            b = star[i, k]
            if b == BOTTOM:
                continue
            base = (b - col_i)[:, None] + cp[:, k][None, :]
            num = absc[i] * wl * hj + absc[k] * wj * hl + (wj * wl) * base
            den = absc[i] * wl + absc[k] * wj
            best = max(best, float(np.max(num / den)))
            lo_side = h + (w / absc[i]) * ((b - col_i) + fixed_lo[k])
            best = max(best, float(np.max(lo_side)))
            hi_side = h + (w / absc[k]) * ((b - fixed_hi[i]) + cp[:, k])
            best = max(best, float(np.max(hi_side)))
    return best


def _theta(inst: ChebyshevInstance, star, bounds: BoundVectors) -> float:
    # With every |c_i| = 1 the scaled loop reduces to the plain closed form
    # on the points c * p, bit for bit; the dense kernel evaluates it faster.
    c = _scale_of(inst)
    cp = c[None, :] * inst.points
    absc = np.abs(c)
    args = (inst.weights, inst.addends, star, bounds.fixed_lo, bounds.fixed_hi)
    if (absc == 1.0).all():
        return _theta_particular(cp, *args)
    return _theta_scaled(cp, absc, *args)


def _feasible_theta(inst: ChebyshevInstance, op: str) -> float:
    report, star, bounds = _certificates(inst)
    if not report.feasible:
        raise ContractViolationError(f"{op} requires a feasible instance; run check_feasibility first")
    return _theta(inst, star, bounds)


def compute_theta(inst: ChebyshevInstance) -> float:
    """Optimal objective value of a feasible plain instance, in closed form."""
    _require_plain(inst, "compute_theta")
    return _feasible_theta(inst, "compute_theta")


def compute_theta_scaled(inst: ScaledChebyshevInstance) -> float:
    """Optimal objective value of a feasible scaled instance."""
    _require_scaled(inst)
    return _feasible_theta(inst, "compute_theta_scaled")


def _parameter_box(star, level: BoundVectors) -> tuple[np.ndarray, np.ndarray]:
    u_lo = np.maximum(level.level_lo, level.fixed_lo)
    u_hi = parameter_upper_bound(star, np.minimum(level.level_hi, level.fixed_hi))
    return u_lo, u_hi


def _infeasible_result(report: FeasibilityReport) -> Infeasible:
    if not report.spectral_ok:
        return Infeasible("spectral", report.cycle_gauge)
    return Infeasible("bounds", float(report.bounds_gap))


def solve_core(inst: ChebyshevInstance, rotate45: bool = False) -> SolutionBox | Infeasible:
    """Optimal value and the complete optimal set of a plain or scaled instance.

    Returns a SolutionBox whose members all attain theta, or a typed
    Infeasible result naming the failed certificate.  Once the certificates
    pass, the box is nonempty by construction; it is never re-checked, so
    last-ulp rounding cannot flip a feasible instance into a spurious empty
    verdict.  The box lives in scaled coordinates and its transform divides
    members by c; an all-ones scale gets no scale in the transform.
    rotate45 marks an instance that is the rotated image of a plane one, so
    the transform also rotates members back.
    """
    report, star, bounds = _certificates(inst)
    if not report.feasible:
        return _infeasible_result(report)
    theta = _theta(inst, star, bounds)
    leveled = assemble_bounds(inst, theta)
    u_lo, u_hi = _parameter_box(star, leveled)
    c = _scale_of(inst)
    scale = None if (c == 1.0).all() else tuple(float(v) for v in c)
    return SolutionBox(theta, star, u_lo, u_hi, Transform(scale, rotate45))


def solve_particular(inst: ChebyshevInstance) -> SolutionBox | Infeasible:
    """Optimal value and the complete optimal set of a plain instance."""
    _require_plain(inst, "solve_particular")
    return solve_core(inst)


def solve_scaled(inst: ScaledChebyshevInstance) -> SolutionBox | Infeasible:
    """Optimal value and complete optimal set of a scaled instance.

    An all-ones scale yields the identity transform, making the result
    indistinguishable from solve_particular on the embedded plain instance.
    """
    _require_scaled(inst)
    return solve_core(inst)


__all__ = [
    "ChebyshevInstance",
    "ScaledChebyshevInstance",
    "BoundVectors",
    "FeasibilityReport",
    "assemble_bounds",
    "check_feasibility",
    "compute_theta",
    "compute_theta_scaled",
    "solve_core",
    "solve_particular",
    "solve_scaled",
]
