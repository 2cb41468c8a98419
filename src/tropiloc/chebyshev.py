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
            lower/upper envelopes from caps and box.  This is the
            nonemptiness of the parameter box s <= u <= (t~ B*)~ with no
            objective level, and it is read off that box.

When both pass, the optimum theta has a closed form (a finite max over point
pairs and closure entries) and the full optimal set is the box
``x = B* (x) u`` for ``q max s <= u <= ((r~ max t~) B*)~``, where q and r are
the envelopes induced by requiring the objective not to exceed theta.

theta is also the least level at which the parametrized inequalities have a
solution: the root of Phi(theta) = max_{i,k} g_i(theta) + B*[i, k] + C_k(theta),
where -g_i and C_k are the upper and lower envelopes of axes i and k, each
the max of m lines |c_i| (h_j - theta) / w_j -/+ c_i p_ji and a cap/box side.
Phi is convex, decreasing and piecewise linear, and the root of each piece
is one term of the closed form, so Newton's method finds theta from below in
a few steps.  Each step evaluates Phi once, as the parameter box at its level:
the level envelopes (one formula, shared with assemble_bounds), then u_lo and
u_hi, whose largest crossing u_lo - u_hi is Phi.  That costs two O(m n)
reductions and one O(n^2) product: O(n^3) for the closure plus
O((m n + n^2) steps) in all, and O(m n) memory.  theta is the term Newton
stops on, within a derived rounding bound of the exact closed form, and the
box of that last step is the optimal box; nothing is evaluated again at
theta.  Rounding can cross that box by a bounded amount, and solve_core
closes such axes.

Inside the solver the client data c * p is held as an (n, m) array, one row
per axis, formed once per solve; theta and the envelopes q, r, s, t reduce
it along the contiguous axis.  Each numpy op on it costs a fixed overhead
per row, O(n), which each Newton step's O(n^2) product already exceeds;
held as (m, n), each op would cost one per client, O(m), as much as the
O(m n) Newton work.  Max, min and argmax are exact and every sum sees the
same operands, so the layout does not change a single bit.

For the same reason the solve path calls no Python-level numpy wrapper: it
reduces with np.maximum.reduce, np.minimum.reduce and np.logical_or/and.reduce
(not .max(), .min(), .any(), .all() or np.max), takes x.argmax() (not
np.argmax(x)), tests b == np.inf (not np.isposinf(b)) and builds no
np.full/np.ones per call.  The wrappers forward to those same C reductions,
so the bits are the same, but each adds from 0.3 microseconds (a method such
as .max()) to 2 (a function such as np.argmax), and a solve at n <= 4 makes
dozens of such calls.  The plane reductions keep the layout of
the rotation's fresh array, an F-ordered (m, 2) view, which _client_rows
transposes to C order with no copy in between.

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
from .linear import Infeasible
from .linear import parameter_upper_bound  # noqa: F401  (bound here only for benchmarks/spans.py)
from .semiring import BOTTOM, _vec_mat, trace_and_closure


def _as_float_array(value, shape_hint: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{shape_hint} must be numeric: {exc}") from None
    return arr


def _store(inst, name: str, arr: np.ndarray, sized: bool, shape_error: str, bad: np.ndarray, label: str, must: str):
    """Check an array field's shape, then its entries, then store it frozen.

    sized says whether arr has the right shape; bad marks its faulty entries,
    and the first of them is reported as "label[i]... must be <must>".
    """
    if not sized:
        raise InstanceError(shape_error)
    _reject(bad, label, must)
    _freeze(inst, name, np.ascontiguousarray(arr))


def _freeze(inst, name: str, arr: np.ndarray) -> None:
    arr.setflags(write=False)
    object.__setattr__(inst, name, arr)


def _reject(bad: np.ndarray, label: str, must: str) -> None:
    # One reduction on the common path; the offender is located on failure only.
    if np.logical_or.reduce(bad, axis=None):
        index = "".join(f"[{k}]" for k in np.argwhere(bad)[0])
        raise InstanceError(f"{label}{index} must be {must}")


def _check_scaled_products(inst) -> None:
    # The solver works on c * p and c * box, so they must not overflow.
    with np.errstate(over="ignore"):
        for label, value in (("points", inst.points), ("lower", inst.box_lo), ("upper", inst.box_hi)):
            _reject(~np.isfinite(inst.scale * value), f"c * {label}", "finite")


def _bad_points(pts: np.ndarray) -> np.ndarray:
    return ~np.isfinite(pts)


def _bad_bounds(b: np.ndarray) -> np.ndarray:
    return np.isnan(b) | (b == np.inf)


def _trusted(cls, *, points: np.ndarray, diff_bounds: np.ndarray, **checked):
    """A cls instance on the frozen arrays of an instance that was checked.

    For the plane reductions.  __post_init__ does not run; only points and
    diff_bounds, which a reduction computes in the right shapes, and the
    scaled products are checked, with the constructor's messages, because
    the rotation, the doubled strip ends and the tilted scale can overflow.
    points and diff_bounds must be fresh arrays: they are frozen in the
    layout they come in, with no copy.  The rotation's points are the
    F-ordered transpose of a (2, m) array, which _client_rows transposes
    straight back to C order.
    """
    inst = object.__new__(cls)
    for name, value in checked.items():
        object.__setattr__(inst, name, value)
    _reject(_bad_points(points), "points", "finite")
    _reject(_bad_bounds(diff_bounds), "B", "real or absent")
    _freeze(inst, "points", points)
    _freeze(inst, "diff_bounds", diff_bounds)
    if "scale" in checked:
        _check_scaled_products(inst)
    return inst


@dataclass(frozen=True, eq=False, kw_only=True)
class _Instance:
    """The data every variant shares: one facility among m weighted points.

    points      (m, n) array, one point per row, all finite.
    weights     (m,) positive finite.
    addends     (m,) finite.
    box_lo/box_hi  (n,) finite coordinate box, box_lo <= box_hi (equality
                allowed: degenerate boxes are legal).
    caps        (m,) reach caps, entries > 0; +inf drops a single cap and
                None drops them all.
    """

    points: np.ndarray
    weights: np.ndarray
    addends: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    caps: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_float_array(self.points, "points")
        sized = pts.ndim == 2 and pts.shape[0] >= 1 and pts.shape[1] >= 1
        error = f"points must be a nonempty 2-D array, got shape {pts.shape}"
        _store(self, "points", pts, sized, error, _bad_points(pts), "points", "finite")
        m, n = pts.shape
        w = _as_float_array(self.weights, "weights")
        error = f"weights must have length {m}, got shape {w.shape}"
        _store(self, "weights", w, w.shape == (m,), error, ~(np.isfinite(w) & (w > 0)), "weights", "a positive real")
        h = _as_float_array(self.addends, "addends")
        error = f"addends must have length {m}, got shape {h.shape}"
        _store(self, "addends", h, h.shape == (m,), error, ~np.isfinite(h), "addends", "finite")
        if self.caps is not None:
            d = _as_float_array(self.caps, "caps")
            error = f"caps must have length {m}, got shape {d.shape}"
            _store(self, "caps", d, d.shape == (m,), error, np.isnan(d) | (d <= 0), "caps", "a positive real (or +inf)")
        # Both ends are converted, and their lengths checked together, before
        # any entry: a wrong length is reported ahead of a bad entry in either.
        lo = _as_float_array(self.box_lo, "lower")
        hi = _as_float_array(self.box_hi, "upper")
        sized = lo.shape == (n,) and hi.shape == (n,)
        error = f"lower/upper box bounds must have length {n}"
        _store(self, "box_lo", lo, sized, error, ~np.isfinite(lo), "lower", "finite")
        _store(self, "box_hi", hi, sized, error, ~np.isfinite(hi), "upper", "finite")
        crossed = lo > hi
        if np.logical_or.reduce(crossed):
            i = int(crossed.argmax())
            raise InstanceError(f"lower[{i}] exceeds upper[{i}]")

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False, kw_only=True)
class ChebyshevInstance(_Instance):
    """One weighted minimax location problem under the Chebyshev metric.

    diff_bounds (n, n) max-plus matrix of lower bounds on x_i - x_k; bottom
                means unconstrained.
    """

    diff_bounds: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        n = self.dim
        b = _as_float_array(self.diff_bounds, "B")
        error = f"B must be {n}x{n}, got shape {b.shape}"
        _store(self, "diff_bounds", b, b.shape == (n, n), error, _bad_bounds(b), "B", "real or absent")


@dataclass(frozen=True, eq=False, kw_only=True)
class ScaledChebyshevInstance(ChebyshevInstance):
    """Chebyshev instance whose constraints act on scaled coordinates.

    scale is an (n,) vector of nonzero reals c; caps, box and difference
    bounds all constrain y_i = c_i * x_i while the objective still measures
    plain Chebyshev distance to the points in x.  A negative entry flips its
    axis, so the bound assembly takes that axis's box ends in swapped order.
    """

    scale: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        if self.scale is None:
            raise InstanceError("c is required for the scaled variant")
        n = self.dim
        c = _as_float_array(self.scale, "c")
        error = f"c must have length {n}, got shape {c.shape}"
        _store(self, "scale", c, c.shape == (n,), error, ~np.isfinite(c) | (c == 0), "c", "a finite nonzero real")
        _check_scaled_products(self)


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
    matrix when the spectral certificate passes (Tr <= 0).  When it fails,
    cycle_gauge is the weight of a positive closed walk that the closure's
    relaxation found, which can be less than Tr.  bounds_gap is the value
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


def _require(inst, cls: type, op: str, narrower: type | None = None) -> None:
    """Raise TypeError unless inst is a cls and, if narrower is given, not a narrower one."""
    if not isinstance(inst, cls) or (narrower is not None and isinstance(inst, narrower)):
        kind = cls.__name__ if narrower is None else f"{cls.__name__} (not a {narrower.__name__})"
        raise TypeError(f"{op} expects a {kind}, got a {type(inst).__name__}")


def _scale_of(inst: ChebyshevInstance) -> np.ndarray:
    """The scale vector c; a plain instance is the scaled one with c = 1."""
    if isinstance(inst, ScaledChebyshevInstance):
        return inst.scale
    c = np.empty(inst.dim)
    c.fill(1.0)
    return c


def _client_rows(inst: ChebyshevInstance, c: np.ndarray) -> np.ndarray:
    """c (.) points with the clients along the contiguous axis: row k is c_k p_.k."""
    return np.multiply(c[:, None], inst.points.T, order="C")


def _fixed_envelopes(inst: ChebyshevInstance, c: np.ndarray, cpt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (fixed_lo, fixed_hi) of assemble_bounds(inst), on the client rows
    # cpt = _client_rows(inst, c).  A negative c_i swaps the ends of the box.
    # Selecting by sign rather than by min/max keeps a signed zero where the
    # two ends tie.
    flip = c < 0
    cf = c * inst.box_lo
    cg = c * inst.box_hi
    fixed_lo = np.where(flip, cg, cf)
    fixed_hi = np.where(flip, cf, cg)
    if inst.caps is not None:
        radii = np.abs(c)[:, None] * inst.caps
        fixed_lo = np.maximum(np.maximum.reduce(cpt - radii, axis=1), fixed_lo)
        fixed_hi = np.minimum(np.minimum.reduce(cpt + radii, axis=1), fixed_hi)
    return fixed_lo, fixed_hi


def _without_level(fixed_lo: np.ndarray, fixed_hi: np.ndarray) -> BoundVectors:
    n = fixed_lo.shape[0]
    return BoundVectors(np.full(n, BOTTOM), np.full(n, np.inf), fixed_lo, fixed_hi)


def _level_terms(absc, cpt, w, h, t):
    """The lines of the level envelopes at level t, as two (n, m) arrays.

    Row i holds |c_i| ((h_j - t) / w_j) + c_i p_ji for every client j, whose
    max is level_lo_i, and c_i p_ji - |c_i| ((h_j - t) / w_j), whose min is
    level_hi_i.  assemble_bounds and every Newton step evaluate them here.
    """
    rad = absc[:, None] * ((h - t) / w)
    return rad + cpt, cpt - rad


def assemble_bounds(inst: ChebyshevInstance, theta: float | None = None) -> BoundVectors:
    """Coordinatewise envelopes of the constraint set (and objective level).

    In scaled coordinates y_i = c_i * x_i (c = 1 for a plain instance):
        fixed_lo_i = max( max_j (c_i p_ji - |c_i| d_j), c_i f_i )
        fixed_hi_i = min( min_j (c_i p_ji + |c_i| d_j), c_i g_i )
        level_lo_i = max_j ( |c_i| (h_j - theta) / w_j + c_i p_ji )
        level_hi_i = min_j ( |c_i| (theta - h_j) / w_j + c_i p_ji )
    where c_i < 0 flips the axis and swaps the box ends: c_i g_i is then the
    lower end and c_i f_i the upper one.
    """
    _require(inst, ChebyshevInstance, "assemble_bounds")
    c = _scale_of(inst)
    cpt = _client_rows(inst, c)
    fixed_lo, fixed_hi = _fixed_envelopes(inst, c, cpt)
    if theta is None:
        return _without_level(fixed_lo, fixed_hi)
    lo, hi = _level_terms(np.abs(c), cpt, inst.weights, inst.addends, theta)
    return BoundVectors(np.maximum.reduce(lo, axis=1), np.minimum.reduce(hi, axis=1), fixed_lo, fixed_hi)


def _box(star, fixed_lo, fixed_hi, level_lo=BOTTOM, level_hi=np.inf):
    """The parameter box u_lo <= u <= u_hi at a level, or with none, and its upper envelope q.

    u_lo = max(level_lo, fixed_lo) and u_hi = (q~ B*)~ with q =
    min(level_hi, fixed_hi), in the arithmetic of parameter_upper_bound; the
    default, no level, is the identity of max and of min.  In floats
    u_lo - u_hi is u_lo + (-q) (x) B* bit for bit: its max is the existence
    condition Phi at the level, and with no level the bounds gap t~ B* s.
    """
    q = np.minimum(level_hi, fixed_hi)
    return np.maximum(level_lo, fixed_lo), np.negative(_vec_mat(np.negative(q), star)), q


def _certify(inst: ChebyshevInstance, c: np.ndarray, cpt: np.ndarray):
    """(report, B* or None, fixed_lo, fixed_hi) on the client rows cpt."""
    gauge, star = trace_and_closure(inst.diff_bounds)
    fixed_lo, fixed_hi = _fixed_envelopes(inst, c, cpt)
    if star is None:
        return FeasibilityReport(False, gauge, False, None), None, fixed_lo, fixed_hi
    u_lo, u_hi, _ = _box(star, fixed_lo, fixed_hi)
    gap = float(np.maximum.reduce(u_lo - u_hi))
    return FeasibilityReport(True, gauge, gap <= 0.0, gap), star, fixed_lo, fixed_hi


def _certificates(inst: ChebyshevInstance):
    """(report, B* or None, the fixed envelopes as BoundVectors)."""
    c = _scale_of(inst)
    report, star, fixed_lo, fixed_hi = _certify(inst, c, _client_rows(inst, c))
    return report, star, _without_level(fixed_lo, fixed_hi)


def check_feasibility(inst: ChebyshevInstance) -> FeasibilityReport:
    """Evaluate both feasibility certificates (plain or scaled instance)."""
    _require(inst, ChebyshevInstance, "check_feasibility")
    report, _, _ = _certificates(inst)
    return report


def _pair_terms(alpha, beta, wj, wl, hj, hl, x):
    # The pair term at x = b*_ik - cp_ij + cp_kl, in one fixed float evaluation order.
    awl = alpha * wl
    bwj = beta * wj
    return (awl * hj + bwj * hl + (wj * wl) * x) / (awl + bwj)


def _theta_kernel(cp, absc, w, h, star, fixed_lo, fixed_hi) -> tuple[float, np.ndarray, np.ndarray]:
    """(theta, u_lo, u_hi): the root of the existence condition, by Newton's method, and its box.

    cp arrives as (m, n) and is held as (n, m) (see the module docstring);
    the copy is free when cp is the .T of the solver's row-major rows.  At
    level t the parameter box u_lo <= u <= u_hi (_box, on the envelopes of
    _level_terms) is nonempty exactly when
        Phi(t) = max_k ((g (x) B*)_k + C_k) = max_k (u_lo - u_hi)_k <= 0,   where
        g_i(t) = max(max_j (|c_i| (h_j - t) / w_j - cp_ij), -fixed_hi_i)   (-q_i, minus the upper envelope),
        C_k(t) = max(max_l (|c_k| (h_l - t) / w_l + cp_kl), fixed_lo_k)    (u_lo_k, the lower envelope).
    Phi is convex, decreasing and piecewise linear, and the root of each piece
    is one term of theta's closed form: the pair term of (j, l) through
    b*_ik, or a side term when g_i or C_k takes its envelope entry.  So
    Newton's method on Phi (Dinkelbach's method) climbs to theta from below:
    at t, the argmax chain k, i, j, l names the piece that attains Phi(t),
    and t becomes its root.  It starts at the j = l, i = k term of the
    largest h_j, which is h_j since b*_ii = 0, evaluated like every pair
    term; so theta is always one float term of the closed form.  The last
    step evaluates Phi at theta, so its box is the optimal box, returned
    with theta.  Each step costs two O(m n) reductions and one O(n^2)
    product; memory is O(m n).
    """
    cpt = np.ascontiguousarray(cp.T)
    j = int(h.argmax())
    t = _pair_terms(absc[0], absc[0], w[j], w[j], h[j], h[j], 0.0)
    while True:
        lo, hi = _level_terms(absc, cpt, w, h, t)
        level_lo = np.maximum.reduce(lo, axis=1)
        level_hi = np.minimum.reduce(hi, axis=1)
        u_lo, u_hi, q = _box(star, fixed_lo, fixed_hi, level_lo, level_hi)
        crossing = u_lo - u_hi
        k = int(crossing.argmax())
        if not crossing[k] > 0.0:
            break
        i = int((star[:, k] - q).argmax())
        b = star[i, k]
        if level_hi[i] <= fixed_hi[i]:
            j = int(hi[i].argmin())
            y = b - cpt[i, j]
            if level_lo[k] >= fixed_lo[k]:
                l = int(lo[k].argmax())
                step = _pair_terms(absc[i], absc[k], w[j], w[l], h[j], h[l], y + cpt[k, l])
            else:
                step = h[j] + (w[j] / absc[i]) * (fixed_lo[k] + y)
        elif level_lo[k] >= fixed_lo[k]:
            l = int(lo[k].argmax())
            step = h[l] + (w[l] / absc[k]) * ((b - fixed_hi[i]) + cpt[k, l])
        else:
            break  # the bounds certificate's own term, which no level moves
        if not step > t:
            break
        t = step
    return float(t), u_lo, u_hi


# How far rounding can cross the parameter box of a feasible instance at its
# theta, in units of u S (u the unit roundoff, S from _magnitude), to first
# order.  The box is the last evaluation of Phi, so no axis is crossed by more
# than the float Phi(theta).  A level term costs 5 (h - t, / w and * |c|
# together 3, then +/- c p 2) and g + b* 3 more, so each float piece of Phi is
# within 13 of its exact value.  Newton stops where Phi looks <= 0 (no
# crossing), on the bounds certificate's own term (<= 0 by that certificate),
# or where the root of the piece that attains Phi is no larger than theta;
# that root is within 40 u S of slope times error, so the piece is at most
# 40 at theta, and its float value at most 40 + 13.
_BOX_ROUNDINGS = 53
_U = float(np.finfo(np.float64).eps) / 2


def _magnitude(absc, cpt, w, h, star, fixed_lo, fixed_hi, theta: float) -> float:
    """S: the largest |c_i p_ji|, |c_i| (|h_j| + |theta|) / w_j, |fixed_lo|, |fixed_hi| or finite |b*_ik|."""
    amax = np.maximum.reduce
    level = amax(absc) * amax((np.abs(h) + abs(theta)) / w)
    envelopes = max(amax(np.abs(fixed_lo)), amax(np.abs(fixed_hi)))
    return float(max(amax(np.abs(cpt), axis=None), level, envelopes, amax(np.abs(star[star > BOTTOM]))))


def compute_theta(inst: ChebyshevInstance) -> float:
    """Optimal objective value of a feasible plain instance, in closed form."""
    _require(inst, ChebyshevInstance, "compute_theta", ScaledChebyshevInstance)
    return _feasible_theta(inst, "compute_theta")


def compute_theta_scaled(inst: ScaledChebyshevInstance) -> float:
    """Optimal objective value of a feasible scaled instance."""
    _require(inst, ScaledChebyshevInstance, "compute_theta_scaled")
    return _feasible_theta(inst, "compute_theta_scaled")


def _feasible_theta(inst: ChebyshevInstance, op: str) -> float:
    box = solve_core(inst)
    if isinstance(box, Infeasible):
        raise ContractViolationError(f"{op} requires a feasible instance; run check_feasibility first")
    return box.theta


def solve_core(inst: ChebyshevInstance, rotate45: bool = False) -> SolutionBox | Infeasible:
    """Optimal value and the complete optimal set of a plain or scaled instance.

    Returns a SolutionBox whose members all attain theta, or a typed
    Infeasible result naming the failed certificate.  theta and the box come
    from the same, last, Newton step.  Once the certificates pass, the box is
    nonempty in exact arithmetic; an axis that rounding crossed, by at most
    _BOX_ROUNDINGS u S, is closed up to its lower end, so a feasible instance
    never gets an empty box.  The box lives in scaled coordinates and its
    transform divides members by c; an all-ones scale gets no scale in the
    transform.  rotate45 marks an instance that is the rotated image of a
    plane one, so the transform also rotates members back.
    """
    c = _scale_of(inst)
    cpt = _client_rows(inst, c)
    report, star, fixed_lo, fixed_hi = _certify(inst, c, cpt)
    if not report.spectral_ok:
        return Infeasible("spectral", report.cycle_gauge)
    if not report.bounds_ok:
        return Infeasible("bounds", report.bounds_gap)
    absc = np.abs(c)
    theta, u_lo, u_hi = _theta_kernel(cpt.T, absc, inst.weights, inst.addends, star, fixed_lo, fixed_hi)
    gap = u_lo - u_hi
    if np.maximum.reduce(gap) > 0.0:
        slack = _BOX_ROUNDINGS * _U * _magnitude(absc, cpt, inst.weights, inst.addends, star, fixed_lo, fixed_hi, theta)
        u_hi = np.where((gap > 0.0) & (gap <= slack), u_lo, u_hi)
    scale = None if np.logical_and.reduce(c == 1.0) else tuple(c.tolist())
    return SolutionBox(theta, star, u_lo, u_hi, Transform(scale, rotate45))


def solve_particular(inst: ChebyshevInstance) -> SolutionBox | Infeasible:
    """Optimal value and the complete optimal set of a plain instance."""
    _require(inst, ChebyshevInstance, "solve_particular", ScaledChebyshevInstance)
    return solve_core(inst)


def solve_scaled(inst: ScaledChebyshevInstance) -> SolutionBox | Infeasible:
    """Optimal value and complete optimal set of a scaled instance.

    An all-ones scale yields the identity transform, making the result
    indistinguishable from solve_particular on the embedded plain instance.
    """
    _require(inst, ScaledChebyshevInstance, "solve_scaled")
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
