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
solution: the root of Phi(theta) = max_{i,k} F_i(theta) + B*[i, k] + G_k(theta),
where F_i(theta) = max_j (|c_i| (h_j - theta) / w_j - c_i p_ji) and
G_k(theta) = max_l (|c_k| (h_l - theta) / w_l + c_k p_lk).  Phi is convex,
decreasing and piecewise linear, so Newton's method finds the root in a few
O(m n) steps after one O(m n^2) max-plus product per distinct |c_i|; the
closed form's distinct terms within rounding of the root are then
evaluated, so theta is the float max of the closed form bit for bit.  Memory is O(m n).

Inside the solver the client data c * p is held as an (n, m) array, one row
per axis, formed once per solve; theta and the envelopes q, r, s, t reduce
it along the contiguous axis.  Each numpy op on it costs a fixed overhead
per row, O(n), which the O(n^3) closure and the O(m n^2) products already
exceed; held as (m, n), each op would cost one per client, O(m), as much as
the O(m n) Newton work.  Max, min and argmax are exact and every sum sees
the same operands, so the layout does not change a single bit.

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
from .semiring import BOTTOM, _vec_mat, mat_mul, trace_and_closure


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
    if bad.any():
        index = "".join(f"[{k}]" for k in np.argwhere(bad)[0])
        raise InstanceError(f"{label}{index} must be {must}")
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    object.__setattr__(inst, name, out)


def _store_points(inst, pts: np.ndarray, sized: bool, shape_error: str):
    _store(inst, "points", pts, sized, shape_error, ~np.isfinite(pts), "points", "finite")


def _store_bounds(inst, b: np.ndarray, sized: bool, shape_error: str):
    _store(inst, "diff_bounds", b, sized, shape_error, np.isnan(b) | np.isposinf(b), "B", "real or absent")


def _trusted(cls, *, points: np.ndarray, diff_bounds: np.ndarray, **checked):
    """A cls instance on the frozen arrays of an instance that was checked.

    For the plane reductions.  __post_init__ does not run; only points and
    diff_bounds, which a reduction computes in the right shapes, are checked,
    with the constructor's messages, because the rotation and the doubled
    strip ends can overflow.
    """
    inst = object.__new__(cls)
    for name, value in checked.items():
        object.__setattr__(inst, name, value)
    _store_points(inst, points, True, "")
    _store_bounds(inst, diff_bounds, True, "")
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
        _store_points(self, pts, sized, error)
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
        bad = np.argwhere(lo > hi)
        if bad.size:
            i = int(bad[0][0])
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
        _store_bounds(self, b, b.shape == (n, n), error)


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


def _require_plain(inst, op: str) -> None:
    if isinstance(inst, ScaledChebyshevInstance):
        raise TypeError(f"{op} expects a plain ChebyshevInstance; use the scaled solver for scaled instances")


def _require_scaled(inst) -> None:
    if not isinstance(inst, ScaledChebyshevInstance):
        raise TypeError("a ScaledChebyshevInstance is required here")


def _scale_of(inst: ChebyshevInstance) -> np.ndarray:
    """The scale vector c; a plain instance is the scaled one with c = 1."""
    return inst.scale if isinstance(inst, ScaledChebyshevInstance) else np.ones(inst.dim)


def _client_rows(inst: ChebyshevInstance, c: np.ndarray) -> np.ndarray:
    """c (.) points with the clients along the contiguous axis: row k is c_k p_.k."""
    return np.multiply(c[:, None], inst.points.T, order="C")


def _fixed_envelopes(inst: ChebyshevInstance, c: np.ndarray, cpt: np.ndarray) -> BoundVectors:
    # assemble_bounds(inst) on the client rows cpt = _client_rows(inst, c).
    # A negative c_i swaps the ends of the box.  Selecting by sign rather than
    # by min/max keeps a signed zero where the two ends tie.
    flip = c < 0
    cf = c * inst.box_lo
    cg = c * inst.box_hi
    fixed_lo = np.where(flip, cg, cf)
    fixed_hi = np.where(flip, cf, cg)
    if inst.caps is not None:
        radii = np.abs(c)[:, None] * inst.caps
        fixed_lo = np.maximum((cpt - radii).max(axis=1), fixed_lo)
        fixed_hi = np.minimum((cpt + radii).min(axis=1), fixed_hi)
    return BoundVectors(np.full(inst.dim, BOTTOM), np.full(inst.dim, np.inf), fixed_lo, fixed_hi)


def _at_level(bounds: BoundVectors, inst: ChebyshevInstance, c: np.ndarray, cpt: np.ndarray, theta: float) -> BoundVectors:
    # bounds with the level envelopes of theta filled in.
    rad = np.abs(c)[:, None] * ((inst.addends - theta) / inst.weights)
    return BoundVectors((rad + cpt).max(axis=1), (cpt - rad).min(axis=1), bounds.fixed_lo, bounds.fixed_hi)


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
    c = _scale_of(inst)
    cpt = _client_rows(inst, c)
    bounds = _fixed_envelopes(inst, c, cpt)
    return bounds if theta is None else _at_level(bounds, inst, c, cpt, theta)


def _parameter_box(star, level: BoundVectors) -> tuple[np.ndarray, np.ndarray]:
    u_lo = np.maximum(level.level_lo, level.fixed_lo)
    u_hi = parameter_upper_bound(star, np.minimum(level.level_hi, level.fixed_hi))
    return u_lo, u_hi


def _certify(inst: ChebyshevInstance, c: np.ndarray, cpt: np.ndarray):
    gauge, star = trace_and_closure(inst.diff_bounds)
    bounds = _fixed_envelopes(inst, c, cpt)
    if star is None:
        return FeasibilityReport(False, gauge, False, None), None, bounds
    # With no level, the bottom / +inf placeholders are the identities of max
    # and min, so this is the box s <= u <= (t~ B*)~.  In floats s - (-x) is
    # s + x exactly, so its largest u_lo - u_hi is t~ B* s bit for bit.
    u_lo, u_hi = _parameter_box(star, bounds)
    gap = float(np.max(u_lo - u_hi))
    return FeasibilityReport(True, gauge, gap <= 0.0, gap), star, bounds


def _certificates(inst: ChebyshevInstance):
    c = _scale_of(inst)
    return _certify(inst, c, _client_rows(inst, c))


def check_feasibility(inst: ChebyshevInstance) -> FeasibilityReport:
    """Evaluate both feasibility certificates (plain or scaled instance)."""
    report, _, _ = _certificates(inst)
    return report


def _pair_terms(alpha, beta, wj, wl, hj, hl, x):
    # The pair term at reach_kj + cp_kl = x, in one fixed float evaluation order.
    awl = alpha * wl
    bwj = beta * wj
    return (awl * hj + bwj * hl + (wj * wl) * x) / (awl + bwj)


def _distinct(*cols):
    # The distinct tuples (cols[0][i], cols[1][i], ...), compared bit for bit,
    # in order of first occurrence, as the columns of one array.
    bits = np.stack(cols).view(np.int64).tolist()
    return np.array(list(dict.fromkeys(zip(*bits))), dtype=np.int64).view(np.float64).T


def _pair_max(alpha, absc, reach, cp, w, h, t):
    """max(t, the largest pair term through the axes i with |c_i| = alpha).

    reach and cp are (n, m), one row per axis k: reach[k, j] = max over those
    i of b_ik - cp_ij.  With beta = |c_k|, the term of (j, l, k) exceeds t
    exactly when a_kj + c_kl > 0, where
        a = alpha (h - t) / w + reach   and   c = beta (h - t) / w + cp,
    so the largest term is the root of Phi(t) = max_k (max_j a_kj + max_l c_kl):
    the condition for the parametrized inequalities to have a solution.  Phi
    is convex, decreasing and piecewise linear, so Newton's method on it
    (Dinkelbach's method) climbs to the root from below in a few steps, each
    O(m n): t becomes the term of the (j, l, k) that attains Phi(t).
    """
    ra = alpha / w
    rb = absc[:, None] / w
    p = ra * h + reach
    q = rb * h + cp
    a = np.empty_like(p)
    c = np.empty_like(q)
    while True:
        np.subtract(p, t * ra, out=a)
        np.multiply(rb, t, out=c)
        np.subtract(q, c, out=c)
        s = a.max(axis=1) + c.max(axis=1)
        k = int(np.argmax(s))
        if not s[k] > 0.0:
            break
        j = int(np.argmax(a[k]))
        l = int(np.argmax(c[k]))
        step = _pair_terms(alpha, absc[k], w[j], w[l], h[j], h[l], reach[k, j] + cp[k, l])
        if not step > t:
            break
        t = step
    # Newton's t is the root up to rounding, and the float max of the terms
    # may sit on another (j, l, k) within rounding of it, so every (j, l, k)
    # whose term could reach t in floats is evaluated again.  With u the unit
    # roundoff and S = (alpha / w_j)(|h_j| + |t|) + |reach_kj|
    # + (beta / w_l)(|h_l| + |t|) + |cp_kl|, such a (j, l, k) has
    # a_kj + c_kl >= -13 u S in floats, counting roundings:
    #   7  the term: two per product, the two sums of the numerator, the
    #      denominator's sum and the division;
    #   1  reach_kj + cp_kl, the x the term is given;
    #   4  a_kj or c_kl: alpha / w, its product with h, the sum, the product
    #      with t and the difference;
    #   1  adding each side's share below (the sign of the final sum is exact).
    # 16 u covers 13 u and the second-order terms of those bounds.  Each side
    # gets its share of 16 u S added, so (j, l, k) is a candidate when its a
    # plus share, plus the largest c plus share in row k, is >= 0, and
    # likewise for l.  The term is monotone in x under rounding, so the max
    # over the candidates is the max over every (j, l, k).
    tol = 16 * (np.finfo(np.float64).eps / 2)
    ha = np.abs(h) + abs(t)
    a += tol * (ra * ha + np.abs(np.where(reach == BOTTOM, 0.0, reach)))
    c += tol * (rb * ha + np.abs(cp))
    amax = a.max(axis=1)
    cmax = c.max(axis=1)
    for k in np.flatnonzero(amax + cmax >= 0.0):
        js = np.flatnonzero(a[k] + cmax[k] >= 0.0)
        ls = np.flatnonzero(c[k] + amax[k] >= 0.0)
        # A term depends on j only through (w_j, h_j, reach_kj) and on l only
        # through (w_l, h_l, cp_kl), so each distinct tuple is evaluated once:
        # m copies of one client cost one term, not m^2.
        wj, hj, xj = _distinct(w[js], h[js], reach[k, js])
        wl, hl, xl = _distinct(w[ls], h[ls], cp[k, ls])
        # Many near-tied points are rare; chunk them to bound the memory.
        rows = max(1, (1 << 20) // wl.size)
        for r in range(0, wj.size, rows):
            jc = slice(r, r + rows)
            terms = _pair_terms(alpha, absc[k], wj[jc, None], wl, hj[jc, None], hl, xj[jc, None] + xl)
            t = max(t, terms.max())
    return t


def _theta_kernel(cp, absc, w, h, star, fixed_lo, fixed_hi) -> float:
    # theta is the max, over points j, l and closure entries b = B*[i, k], of
    #   (|c_i| w_l h_j + |c_k| w_j h_l + w_j w_l (b - cp_ji + cp_lk)) / (|c_i| w_l + |c_k| w_j)
    # and of the cap/box side terms.  Axes of equal |c_i| share the
    # denominator and each term is monotone in b - cp_ji, so per magnitude
    # alpha only reach_kj = max_{|c_i| = alpha} b_ik - cp_ji counts, and
    # _pair_max finds the largest term from it.  Time is O(m n^2) for the
    # products plus O(m n) per Newton step; memory is O(m n).
    # cp arrives as (m, n) and is held as (n, m) (see the module docstring);
    # the copy is free when cp is the .T of the solver's row-major rows.
    # fixed_hi is finite, so its conjugate is its negation.
    cpt = np.ascontiguousarray(cp.T)
    hi_row = _vec_mat(np.negative(fixed_hi), star)   # row k: max_i b_ik - fixed_hi_i
    best = BOTTOM
    for alpha in set(absc.tolist()):
        ia = np.flatnonzero(absc == alpha)
        cpa = cpt[ia]
        # reach[k, j] = max_{i in ia} b_ik - cp_ji, (n, m) like cpt; mat_mul
        # runs its passes along the longer axis.
        reach = mat_mul(star[ia].T, np.negative(cpa))
        sides = np.maximum(_vec_mat(fixed_lo, reach), _vec_mat(hi_row[ia], cpa))
        best = max(best, (h + (w / alpha) * sides).max())
        best = _pair_max(alpha, absc, reach, cpt, w, h, best)
    return float(best)


def _theta(inst: ChebyshevInstance, c: np.ndarray, cpt: np.ndarray, star, bounds: BoundVectors) -> float:
    args = (inst.weights, inst.addends, star, bounds.fixed_lo, bounds.fixed_hi)
    return _theta_kernel(cpt.T, np.abs(c), *args)


def _feasible_theta(inst: ChebyshevInstance, op: str) -> float:
    c = _scale_of(inst)
    cpt = _client_rows(inst, c)
    report, star, bounds = _certify(inst, c, cpt)
    if not report.feasible:
        raise ContractViolationError(f"{op} requires a feasible instance; run check_feasibility first")
    return _theta(inst, c, cpt, star, bounds)


def compute_theta(inst: ChebyshevInstance) -> float:
    """Optimal objective value of a feasible plain instance, in closed form."""
    _require_plain(inst, "compute_theta")
    return _feasible_theta(inst, "compute_theta")


def compute_theta_scaled(inst: ScaledChebyshevInstance) -> float:
    """Optimal objective value of a feasible scaled instance."""
    _require_scaled(inst)
    return _feasible_theta(inst, "compute_theta_scaled")


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
    c = _scale_of(inst)
    cpt = _client_rows(inst, c)
    report, star, bounds = _certify(inst, c, cpt)
    if not report.spectral_ok:
        return Infeasible("spectral", report.cycle_gauge)
    if not report.bounds_ok:
        return Infeasible("bounds", report.bounds_gap)
    theta = _theta(inst, c, cpt, star, bounds)
    u_lo, u_hi = _parameter_box(star, _at_level(bounds, inst, c, cpt, theta))
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
