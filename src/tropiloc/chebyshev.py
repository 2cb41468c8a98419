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
            objective level; the solve reads it off the box at the
            optimal level, whose upper end lies below that one.

The solver needs the closure B* only through products with vectors, and
_Star forms them by iterating on B (max-plus Bellman-Ford), a few products
on B each.  A product's step folds in only the entries that moved in the
step before, so it costs O(|moved| n), and O(n^2) only where half of them
moved.  The first product of a solve, Newton's row at its first level,
proves that B has no positive cycle once its fixed point is raised to an
exact potential.  The bounds certificate is read off Newton's last box,
and costs a product of its own only where that box does not prove it
(_theta_kernel).  The O(n^3) closure is built only where it is cheaper:
up front at n <= 41, or once the iteration has cost as much as the closure
would (rent or buy), or at once where the first product finds a cycle of
positive exact weight among the predecessors of its steps, since a
positive cycle never lets it converge.  check_feasibility does not
iterate: its report is the lemma on the closure, Tr(B) from
trace_and_closure and the gap of s <= (t~ B*)~ from parameter_upper_bound,
as in linear.solve_double.

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
reductions and the product for u_hi, a few products on B of at most O(n^2);
the entry of B* that the next step goes through is read off that product's
own predecessors, a walk of at most n sums of O(n) (_Star.chain):
O((m n + d n^2) steps) in all, where d, the products per product with B*,
is at most the hop depth of B's longest paths plus one.
The products a solve spends before it builds the closure cost at most
about as much as the closure.  Memory is O(m n).  theta is the term Newton
stops on, within a derived rounding bound of the exact closed form, and the
box of that last step is the optimal box; nothing is evaluated again at
theta.  Rounding can cross that box by a bounded amount, and the kernel
closes such axes once the bounds certificate holds.

Inside the solver the client data c * p is held as an (n, m) array, one row
per axis, formed once per solve; theta and the envelopes q, r, s, t reduce
it over the clients, along its rows.  The memory order is chosen once per
solve, from the shape: C order (the clients along the contiguous axis)
where m >= n, else F order, a free view of the points' own (m, n) layout,
and the level terms and the caps' radii follow it.  A reduction along the
contiguous axis pays a fixed overhead per row, O(n) per op, and one across
it pays one per client, O(m) per op, so each reduction runs along the
longer axis: at m = 20, n = 250 a level envelope takes 2.3 us in F order
against 14.6 in C order.  Max, min and argmax are exact and every sum sees
the same operands, so the layout does not change a single bit.

For the same reason the solve path calls no Python-level numpy wrapper: it
reduces with np.maximum.reduce, np.minimum.reduce and np.logical_or/and.reduce
(not .max(), .min(), .any(), .all() or np.max), takes x.argmax() (not
np.argmax(x)), tests b == np.inf (not np.isposinf(b)) and builds no
np.full/np.ones per call.  The wrappers forward to those same C reductions,
so the bits are the same, but each adds from 0.3 microseconds (a method such
as .max()) to 2 (a function such as np.argmax), and a solve at n <= 4 makes
dozens of such calls.  The plane reductions keep the layout of
the rotation's fresh array, an F-ordered (m, 2) view, whose transpose is
already the C-ordered (2, m) client rows.

The scaled variant replaces x_i by c_i * x_i (c_i != 0) inside caps, box and
difference bounds while keeping the same objective; it is solved by the same
machinery in scaled coordinates y_i = c_i * x_i and mapped back.  A plain
instance is the scaled one with c = 1, so one core, ``solve_core``, solves
both; ``solve_particular`` and ``solve_scaled`` are its typed entry points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import _HALVE_FROM, SolutionBox, Transform, rotate45
from .errors import ContractViolationError, InstanceError
from .linear import Infeasible, _gap, parameter_upper_bound
from .semiring import BOTTOM, ONE, _mat_vec_rows, _vec_mat, identity, trace_and_closure


def _as_float_array(value, shape_hint: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # an int beyond the float range overflows
        raise InstanceError(f"{shape_hint} must be numeric: {exc}") from None


# Each array field's label in messages, the rule its entries must meet, and
# the mask of the entries that meet it (a nan never does).
_RULES = {
    "points": ("points", "finite", np.isfinite),
    "weights": ("weights", "a positive real", lambda w: np.isfinite(w) & (w > 0)),
    "addends": ("addends", "finite", np.isfinite),
    "caps": ("caps", "a positive real (or +inf)", lambda d: d > 0),
    "box_lo": ("lower", "finite", np.isfinite),
    "box_hi": ("upper", "finite", np.isfinite),
    "diff_bounds": ("B", "real or absent", lambda b: b < np.inf),
    "scale": ("c", "a finite nonzero real", lambda c: np.isfinite(c) & (c != 0)),
}


def _field(inst, name: str, shape: tuple | None, arr: np.ndarray | None = None) -> np.ndarray:
    """Convert inst's array field name to floats, check its shape, then its entries, and store it frozen.

    The label, the entry rule and its mask come from _RULES, and the first
    entry that breaks the rule is reported as "label[i]... must be <rule>".
    shape is the shape the field must have; another is reported as "label
    must have length k" or "label must be kxk".  Points and the box ends
    have shape rules of their own: the caller converts and checks them, and
    passes the array with no shape.  A message is formatted only where its
    check fails.
    """
    label, must, ok = _RULES[name]
    if arr is None:
        arr = _as_float_array(getattr(inst, name), label)
        if arr.shape != shape:
            want = f"have length {shape[0]}" if len(shape) == 1 else f"be {shape[0]}x{shape[1]}"
            raise InstanceError(f"{label} must {want}, got shape {arr.shape}")
    _check_entries(ok(arr), label, must)
    _freeze(inst, name, np.ascontiguousarray(arr))
    return arr


def _freeze(inst, name: str, arr: np.ndarray) -> None:
    arr.setflags(write=False)
    object.__setattr__(inst, name, arr)


def _check_entries(ok: np.ndarray, label: str, must: str) -> None:
    # One reduction on the common path; the offender is located on failure only.
    if not np.logical_and.reduce(ok, axis=None):
        index = "".join(f"[{k}]" for k in np.argwhere(~ok)[0])
        raise InstanceError(f"{label}{index} must be {must}")


def _check_scaled_products(inst) -> None:
    # The solver works on c * p and c * box, so they must not overflow.
    with np.errstate(over="ignore"):
        for label, value in (("points", inst.points), ("lower", inst.box_lo), ("upper", inst.box_hi)):
            _check_entries(np.isfinite(inst.scale * value), f"c * {label}", "finite")


def _trusted(cls, *, plane: np.ndarray, ends: tuple[float, float], **checked):
    """A cls instance on the frozen arrays of a plane instance that was checked.

    For the plane reductions.  __post_init__ does not run: the fields in
    checked are the plane instance's own, and only what the reduction makes,
    which can overflow, is checked, in this order and with the constructor's
    messages.  The points are the plane points, rotated here, and each
    rotated entry must be finite.  x1 + x2 and x2 - x1 stay finite where
    neither entry reaches 2**1022, so only a plane point that does is
    rotated with overflow quiet and then checked: no warning comes before
    the rejection, and every finite rotation keeps its bits.  The strip
    ends, doubled, are the two floats ends = (2a, -2b), B[0][1] and B[1][0]
    of the 2x2 B built here; each must be finite, since an end doubled to
    -inf would read as no bound and drop its side.  For a tilted strip the
    scaled products are checked last.  The rotation's points are the
    F-ordered transpose of a fresh (2, m) array, frozen with no copy, which
    _fixed_envelopes transposes straight back to C order.
    """
    inst = object.__new__(cls)
    vars(inst).update(checked)
    if np.maximum.reduce(np.abs(plane), axis=None) < _HALVE_FROM:
        points = rotate45(plane)
    else:
        with np.errstate(over="ignore"):
            points = rotate45(plane)
        _check_entries(np.isfinite(points), "points", "finite")
    for index, end in zip(("[0][1]", "[1][0]"), ends):
        if not math.isfinite(end):
            raise InstanceError(f"B{index} must be real or absent")
    _freeze(inst, "points", points)
    _freeze(inst, "diff_bounds", np.array([[BOTTOM, ends[0]], [ends[1], BOTTOM]]))
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

    # The plane variants' points have this many columns; None allows any.
    _COLUMNS = None

    def __post_init__(self):
        pts = _as_float_array(self.points, "points")
        if self._COLUMNS is not None and (pts.ndim != 2 or pts.shape[1] != self._COLUMNS):
            raise InstanceError(f"points must be an (m, {self._COLUMNS}) array, got shape {pts.shape}")
        if pts.ndim != 2 or not pts.size:
            raise InstanceError(f"points must be a nonempty 2-D array, got shape {pts.shape}")
        m, n = _field(self, "points", None, pts).shape
        _field(self, "weights", (m,))
        _field(self, "addends", (m,))
        if self.caps is not None:
            _field(self, "caps", (m,))
        # Both ends are converted, and their lengths checked together, before
        # any entry: a wrong length is reported ahead of a bad entry in either.
        lo = _as_float_array(self.box_lo, "lower")
        hi = _as_float_array(self.box_hi, "upper")
        if lo.shape != (n,) or hi.shape != (n,):
            raise InstanceError(f"lower/upper box bounds must have length {n}")
        _field(self, "box_lo", None, lo)
        _field(self, "box_hi", None, hi)
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
        _field(self, "diff_bounds", (self.dim, self.dim))


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
        _field(self, "scale", (self.dim,))
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

    check_feasibility is the two-sided lemma on the closure, at every n:
    Tr and B* from trace_and_closure, then bounds_gap = max(s - (t~ B*)~)
    with parameter_upper_bound, the arithmetic of linear.solve_double.
    solve decides the spectral certificate with the first product of its
    Newton iteration and reads the bounds certificate off its last box, or
    from the product t~ (x) B* where that box does not prove it, by
    iteration on B; it builds the closure only where that is cheaper (see
    _Star).  A failed spectral certificate always comes from the closure,
    with the report's witness: the iteration passes it only with an exact
    potential, so a positive cycle, however light, fails in both.  At
    n >= 42 the bounds witness can differ from bounds_gap in the last bits,
    because the iteration adds the same path weights in another order.
    Where the closure's rounding lifts a cycle of exact weight <= 0 above
    zero, this report fails, and solve can pass: its certificate is exact,
    and it takes the closure's verdict only where it cannot prove one.
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


def _fixed_envelopes(inst: ChebyshevInstance) -> tuple[np.ndarray, np.ndarray, str, np.ndarray, np.ndarray]:
    """(c, cpt, order, fixed_lo, fixed_hi): the prelude that solve_core, check_feasibility and assemble_bounds share.

    c is the scale (_scale_of), cpt the client rows c (.) points (row k is
    c_k p_.k), held in the memory order order (see the module docstring),
    and fixed_lo, fixed_hi the envelopes from caps and box, as
    assemble_bounds(inst) documents them.  A negative c_i swaps the ends of
    the box.  Selecting by sign rather than by min/max keeps a signed zero
    where the two ends tie.  Near the float maximum a cap can reach past the
    float range: its envelope term rounds to -inf or +inf, so the box end
    takes over, and each caller runs this with overflow quiet.
    """
    c = _scale_of(inst)
    m, n = inst.points.shape
    order = "C" if m >= n else "F"
    cpt = np.multiply(c[:, None], inst.points.T, order=order)
    flip = c < 0
    cf = c * inst.box_lo
    cg = c * inst.box_hi
    fixed_lo = np.where(flip, cg, cf)
    fixed_hi = np.where(flip, cf, cg)
    if inst.caps is not None:
        radii = np.multiply(np.abs(c)[:, None], inst.caps, order=order)
        fixed_lo = np.maximum(np.maximum.reduce(cpt - radii, axis=1), fixed_lo)
        fixed_hi = np.minimum(np.minimum.reduce(cpt + radii, axis=1), fixed_hi)
    return c, cpt, order, fixed_lo, fixed_hi


def _level_terms(absc, cpt, order, w, h, t):
    """The lines of the level envelopes at level t, as two (n, m) arrays in cpt's memory order.

    Row i holds |c_i| ((h_j - t) / w_j) + c_i p_ji for every client j, whose
    max is level_lo_i, and c_i p_ji - |c_i| ((h_j - t) / w_j), whose min is
    level_hi_i.  assemble_bounds and every Newton step evaluate them here.
    """
    rad = np.multiply(absc[:, None], (h - t) / w, order=order)
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
    with np.errstate(over="ignore"):
        c, cpt, order, fixed_lo, fixed_hi = _fixed_envelopes(inst)
        if theta is None:
            return BoundVectors(np.full(inst.dim, BOTTOM), np.full(inst.dim, np.inf), fixed_lo, fixed_hi)
        lo, hi = _level_terms(np.abs(c), cpt, order, inst.weights, inst.addends, theta)
        return BoundVectors(np.maximum.reduce(lo, axis=1), np.minimum.reduce(hi, axis=1), fixed_lo, fixed_hi)


class _PositiveCycle(Exception):
    """The closure's relaxation met a positive closed walk of weight witness."""

    def __init__(self, witness: float):
        super().__init__(witness)
        self.witness = witness


# Rent or buy.  The cost of each kernel is counted in element operations, with
# one numpy call worth _CALL_COST of them (about 1 us against 1 ns an element).
# trace_and_closure makes 6n + 9 calls (per pivot two slices, an add and a
# max; per stage a diagonal reduction and its float; the buffer-size lookup,
# which n <= 4 skips, is counted at every n) and 2n^3 + 3n^2 element
# operations (per pivot an add and a max over n^2 entries; the copy and the
# diagonal reductions).  One product of the iteration makes 9 calls (two
# helpers, the broadcast, the add and its reduction, the comparison and its
# reduction, the max, the loop's bookkeeping) and 2n^2 + 3n element
# operations, each worth _PRODUCT_ELEMENT of the closure's: its reduction
# runs across the rows of a fresh temporary, where a pivot's max runs along
# them in place.  The closure costs _closure_products(n) products.  A step
# over the entries that moved costs less and still counts as one product,
# so the budget overstates what a sparse step costs.  A positive cycle never
# lets the iteration converge, so a solve's first row product looks for one in
# the predecessors of its steps, at doubling step counts from the cost of a
# check, _CHECK_PRODUCTS, and buys the closure as soon as it finds one.
_CALL_COST = 1000
_PRODUCT_ELEMENT = 2
# A check (_positive_cycle): 9 calls, 3n^2 + 3n element operations and an n-step walk, over 1 product and under 2 at any n.
_CHECK_PRODUCTS = 2
# What a solve typically spends iterating: over random_instance data at n = 5
# to 60 a feasible solve took 19 products at the median and 27 at the upper
# quartile, passes of _proves_acyclic included, and timed against the
# closure path the iteration first wins between n = 40 and 45 (measured with
# a full product at every step and no column kept).  A closure that costs
# no more is built up front: n <= 41.
_TYPICAL_PRODUCTS = 25


def _closure_products(n: int) -> float:
    """The cost of trace_and_closure at size n, counted in products of the iteration."""
    product = 9 * _CALL_COST + _PRODUCT_ELEMENT * (2 * n * n + 3 * n)
    return ((6 * n + 9) * _CALL_COST + 2 * n**3 + 3 * n * n) / product


class _Star:
    """B*, the closure of a difference-bound matrix B, on demand, for the solve and its box.

    check_feasibility never makes one: its report is the lemma on the
    closure itself.  The solver needs B* only through products: x (x) B*
    for each Newton step's u_hi and, where the last box does not prove it,
    the bounds certificate, and B* (x) u for the members.  x (x) B* is the
    fixed point of z <- max(z, z (x) B) started at x (max-plus Bellman-Ford);
    B* (x) x that of z <- max(z, B (x) z).  The entry b*_ik that a Newton
    step goes through is read off the row product's own fixed point, by a
    walk back along its predecessors (chain); a column B* (x) e_k is formed
    only where the walk goes round a tight cycle of weight about 0.  Without a
    positive cycle the iteration is done after at most n - 1 products that
    move z and one that confirms.  Each step is label-correcting: it folds
    in only the entries that moved in the step before, at a cost of
    O(|moved| n) rather than O(n^2), and gives the full product's bits
    (_fixed_point).  The first row product, Newton's at its first level, is
    the spectral certificate, once its fixed point is raised to an exact
    potential (_proves_acyclic).

    Rent or buy: each product of the solve is counted in spent.  The closure
    (trace_and_closure, unchanged) is built once, up front when it costs no
    more than _TYPICAL_PRODUCTS, else once spent reaches budget, its cost in
    products, or once an iteration has not converged within n products or
    not reached an exact potential.  A positive cycle does neither, but the
    first row product catches it in the predecessors of its steps
    (_positive_cycle, a few products in), and buys the closure at once; the
    closure then exits early with its witness (raised as _PositiveCycle).
    A solve thus costs at most about twice what the closure alone would.
    The budget is at most 0.61 n products (the maximum is at n = 42), so
    from n = 42 on it binds before an iteration's cap of n products; the
    cap binds first only at n <= 2, where the iteration runs only if
    _TYPICAL_PRODUCTS is lowered.  After the closure is built, every
    product is one _vec_mat or column of it, as without this object, and
    chain reads b*_ik off the closure's column k.

    The box sees only members and matrix, as it sees those of a matrix
    (boxes._Closure).  members replays a solved box: it never builds the
    closure and spends nothing, taking the closure if the solve built one,
    else the same iteration, at most n products, whose steps fold in the
    entries that moved for any member of the stack.  matrix builds B* for the
    box's generator on first read and keeps it apart, so a box's members are
    the same bits before and after its generator is read.
    """

    __slots__ = ("b", "n", "budget", "spent", "closure", "acyclic", "_read")

    def __init__(self, b: np.ndarray):
        self.b = b
        self.n = b.shape[0]
        self.spent = 0
        self.closure = None
        self.acyclic = False
        self._read = None
        self.budget = _closure_products(self.n)
        if self.budget <= _TYPICAL_PRODUCTS:
            self._buy()

    def _buy(self) -> None:
        gauge, star = trace_and_closure(self.b)
        if star is None:
            raise _PositiveCycle(gauge)
        self.closure = star

    def _fixed_point(self, x: np.ndarray, rows: bool, budgeted: bool, cycles: bool = False, live=None):
        """The fixed point of z <- max(z, z (x) B) (rows) or max(z, B (x) z) from x, or None if a budgeted one gives up.

        For rows x is one vector; otherwise it is a stack of vectors in rows,
        each reduced as a one-vector product is.  z starts at x + 0, the
        product with B*'s zero diagonal, which turns a -0.0 into +0.0 as the
        closure's products do.

        Each step is label-correcting: it folds in only the entries of z that
        moved in the step before (of any vector of a stack), live, and in the
        first step the entries that live names, all of them where it is None.
        An entry that did not move had its sums z_i + b_ik compared against
        targets that have only grown since, so they move nothing; neither
        does a bottom entry of x that live leaves out, whose sums are all
        bottom.  So every iterate, every moved set and every stop is that of
        the full product, bit for bit, and each step counts as one product.
        A gathered step adds into its own gather of B's rows (or columns, for
        one vector), about 2 |live| n element operations against n^2 for the
        full product, which a step takes where 2 |live| >= n.  Addition
        commutes bit for bit, so the gather's order of operands gives the
        full product's sums.

        With cycles (a solve's first row product), the steps c + 1,
        2c + 1, 4c + 1, ..., where c = _CHECK_PRODUCTS is what a check
        costs, check the predecessors of their own step and the one before
        for a positive cycle (_positive_cycle).  One found gives up at once,
        so row buys the closure, which reports the cycle, without spending
        the budget first.  A check reads the iterates and changes none, and
        it is not counted in spent: a product that finds no cycle returns
        the same bits with the same spent, so every later rent-or-buy
        decision is the same.  Checks come at doubling step counts, each
        once the steps have cost as much as a check, so they cost at most
        as much as the steps.
        """
        b = self.b
        z = x + ONE
        check = _CHECK_PRODUCTS if cycles else self.n + 1
        for step in range(1, self.n + 1):
            if budgeted:
                if self.spent >= self.budget:
                    return None
                self.spent += 1
            if rows:
                if live is None:
                    s = z[:, None] + b
                else:
                    s = b[live]
                    np.add(s, z[live, None], out=s)
                y = np.maximum.reduce(s, axis=0)
                moved = y > z
            else:
                if live is None:
                    y = _mat_vec_rows(b, z)
                elif len(z) > 1:
                    y = _mat_vec_rows(b[:, live], z[:, live])
                else:
                    s = b[:, live]
                    np.add(s, z[:, live], out=s)
                    y = np.maximum.reduce(s, axis=1)
                moved = np.logical_or.reduce(y > z, axis=0)
            new = moved.nonzero()[0]
            if not new.size:
                return z
            if step == check:
                before = moved
            elif step == check + 1:
                check *= 2
                if self._positive_cycle(before, z, moved) is not None:
                    return None
            live = None if 2 * new.size >= self.n else new
            z = np.maximum(z, y)
        return None if budgeted else z

    def _positive_cycle(self, before: np.ndarray, z: np.ndarray, moved: np.ndarray) -> list[int] | None:
        """A cycle of B of exact weight > 0 that the predecessors of two steps close, or None.

        z is the iterate a step started from, moved the entries it raised
        and before those the step before raised, both as masks.  The
        predecessor of each of them is the row i that wins its max of
        z_i + b_ik.  For an entry that moved, that is the row that raised
        it; one that moved only the step before was raised to a sum of its
        winner then, and where the winner is the same, its sum is still
        z_k: the edge is tight.  Around a cycle of such edges the sums
        telescope: the cycle weighs at least what its entries rose in this
        step, > 0 up to the rounding of the sums.  So it is only a
        candidate; math.fsum, correctly rounded, gives the exact sign of
        its weight, and a weight <= 0, or one whose partial sums overflow,
        proves nothing.  Two steps close a positive 2-cycle whose ends move
        on alternate steps.  The cycle is returned as k_0, k_1, ..., each
        entry's predecessor after it: its edges are b[k_1, k_0],
        b[k_2, k_1], ..., b[k_0, k_last].  For the v entries that moved in
        the two steps it costs 3 n v element operations, at most 3 n^2, 9
        calls and a walk over the v entries in Python.
        """
        ks = (moved | before).nonzero()[0]
        pred = dict(zip(ks.tolist(), (self.b.T[ks] + z).argmax(axis=1).tolist()))
        walked = {}
        for start in pred:
            k = start
            while k in pred and k not in walked:
                walked[k] = start
                k = pred[k]
            if walked.get(k) != start:
                continue
            cycle = [k]
            i = pred[k]
            while i != k:
                cycle.append(i)
                i = pred[i]
            try:
                if math.fsum(self.b[[pred[c] for c in cycle], cycle].tolist()) > 0.0:
                    return cycle
            except OverflowError:
                pass
        return None

    def _proves_acyclic(self, z: np.ndarray) -> bool:
        """Whether B has no positive cycle, shown by raising z to an exact potential.

        z, the fixed point of a row product, has fl(z_i + b_ik) <= z_k for
        every finite b_ik.  A cycle weighs the sum of z_i + b_ik - z_k around
        it, so a w with w_i + b_ik <= w_k in exact arithmetic proves that no
        cycle is positive.  z need not be one: a sum that rounds to z_k can
        exceed it by half an ulp of z_k, and a lighter positive cycle
        (b_00 = 1e-17 beside z_0 near 1) hides there.  So the iteration goes
        on from z in arithmetic rounded up, over the rows that moved (all of
        B in the first pass, with no gather): every sum that reaches w_k is
        read back exactly (TwoSum) and, where it exceeds w_k, raised to the
        next float.  It ends at an exact potential, or on the budget, since a
        positive cycle keeps raising; each pass counts as one product.  The
        product itself keeps z.
        """
        w = z
        wr, br = w, self.b
        while True:
            if self.spent >= self.budget:
                return False
            self.spent += 1
            s = wr[:, None] + br
            hit = (s >= w).ravel().nonzero()[0]
            r, k = np.divmod(hit, self.n)
            a, b, s = wr[r], br[r, k], s.ravel()[hit]
            t = s - a
            up = np.where((a - (s - t)) + (b - t) > 0.0, np.nextafter(s, np.inf), s)
            raised = w.copy()
            np.maximum.at(raised, k, up)
            rows = (raised > w).nonzero()[0]
            if not rows.size:
                return True
            w = raised
            wr, br = w[rows], self.b[rows]

    def row(self, x: np.ndarray) -> np.ndarray:
        """x (x) B* for a finite x; raises _PositiveCycle."""
        if self.closure is None:
            z = self._fixed_point(x, True, True, not self.acyclic)
            if z is not None and (self.acyclic or self._proves_acyclic(z)):
                self.acyclic = True
                return z
            self._buy()
        return _vec_mat(x, self.closure)

    def chain(self, k: int, x: np.ndarray, z: np.ndarray) -> tuple[int, float]:
        """(i, b*_ik) for the argmax chain of z_k, where z = row(x); raises _PositiveCycle.

        i attains z_k = max_i (x_i + b*_ik), and b*_ik is the weight of its
        path.  While the iteration serves the products, the walk reads them
        off z, a float fixed point started at x + 0: every entry that moved
        has a tight predecessor, the winner of its last raise, with
        fl(z_j + b_jk) == z_k, and the j with the largest z_j + b_jk is
        such a predecessor.  So the
        walk goes from k to pred(k) = argmax_j (b_jk + z_j), and on, and
        stops at the first entry with z_j == x_j, the origin i.  b*_ik is
        the path's weight, added backward from k as column(k) adds it.  A
        walk that meets an entry twice has gone round a tight cycle of
        weight about 0 and names no origin, and so takes the column, as
        does a closure.  A walk of v hops costs v sums of a column of B
        with z, at most n, and spends nothing.
        """
        if self.closure is not None:
            col = self.closure[:, k]
        else:
            b = self.b
            path = [k]
            j = k
            while z[j] != x[j]:
                j = int((b[:, j] + z).argmax())
                if j in path:
                    break
                path.append(j)
            else:
                weight = ONE
                for i, c in zip(path[1:], path):
                    weight = b[i, c] + weight
                return j, weight
            col = self.column(k)
        i = int((col + x).argmax())
        return i, col[i]

    def column(self, k: int) -> np.ndarray:
        """B*[:, k], as B* (x) e_k; raises _PositiveCycle.

        Only chain asks for one, where its walk finds no origin.  The first step folds
        in entry k alone, the only one e_k holds.
        """
        if self.closure is None:
            e = np.empty((1, self.n))
            e.fill(BOTTOM)
            e[0, k] = ONE
            z = self._fixed_point(e, False, True, live=[k])
            if z is not None:
                return z[0]
            self._buy()
        return self.closure[:, k]

    def members(self, us: np.ndarray) -> np.ndarray:
        """B* (x) u for each row u of us, each row reduced as a one-vector product is."""
        if self.closure is not None:
            return _mat_vec_rows(self.closure, us)
        return self._fixed_point(us, False, False)

    def matrix(self) -> np.ndarray:
        """B* itself: the solve's closure, or one built now and kept.

        Where the closure's own rounding lifts a cycle above zero that the
        solve's exact potential rules out, B* is read from the iteration
        instead: its columns are the members of the unit vectors.
        """
        if self.closure is not None:
            return self.closure
        if self._read is None:
            _, self._read = trace_and_closure(self.b)
            if self._read is None:
                self._read = np.ascontiguousarray(self.members(identity(self.n)).T)
        return self._read


def _bounds_gap(star: _Star, fixed_lo, fixed_hi) -> float:
    """The bounds gap t~ B* s; raises _PositiveCycle.

    It is the largest crossing of the parameter box with no level, fixed_lo
    <= u <= ((-fixed_hi) (x) B*)~, read with no overflow warning
    (linear._gap).  The solve reads it only where the last Newton box does
    not prove it <= 0 (_theta_kernel).
    """
    return _gap(fixed_lo, np.negative(star.row(np.negative(fixed_hi))))


def check_feasibility(inst: ChebyshevInstance) -> FeasibilityReport:
    """Evaluate both feasibility certificates (plain or scaled instance).

    The lemma on the closure, whatever n: Tr(B) and B* from
    trace_and_closure, then the gap of s <= (t~ B*)~ from
    parameter_upper_bound.
    """
    _require(inst, ChebyshevInstance, "check_feasibility")
    with np.errstate(over="ignore"):
        _, _, _, fixed_lo, fixed_hi = _fixed_envelopes(inst)
        gauge, closure = trace_and_closure(inst.diff_bounds)
        if closure is None:
            return FeasibilityReport(False, gauge, False, None)
        gap = _gap(fixed_lo, parameter_upper_bound(closure, fixed_hi))
    return FeasibilityReport(True, gauge, gap <= 0.0, gap)


def _piece_root(ai, wj, hj, ak, wl, hl, b, high, low, halve=True):
    """The root of the piece of Phi that an argmax chain k, i, j, l names through b = b*_ik, in one fixed float evaluation order.

    g_i takes client j's line (|c_i| = ai, w_j, h_j) and high is cp_ij, or
    its envelope entry, where wj is None and high is fixed_hi_i; C_k takes
    client l's line (|c_k| = ak, w_l, h_l) and low is cp_kl, or its
    envelope entry, where wl is None and low is fixed_lo_k.  With
    x = b - high + low the root is the pair term of (j, l), or the side term
    of the client that is left.  It is homogeneous of degree one in the
    lengths h, b, high and low.  Near the float maximum x or a product
    overflows where the root itself is a float, so a root that comes out
    non-finite is evaluated again on halved lengths (exact but where they
    are subnormal) and doubled; every finite root keeps its bits.
    """
    x = (b - high) + low
    if wl is None:
        root = hj + (wj / ai) * x
    elif wj is None:
        root = hl + (wl / ak) * x
    else:
        awl = ai * wl
        bwj = ak * wj
        root = (awl * hj + bwj * hl + (wj * wl) * x) / (awl + bwj)
    if math.isfinite(root) or not halve:
        return root
    return 2.0 * _piece_root(ai, wj, 0.5 * hj, ak, wl, 0.5 * hl, 0.5 * b, 0.5 * high, 0.5 * low, False)


def _theta_kernel(cpt, order, absc, w, h, star: _Star, fixed_lo, fixed_hi):
    """(theta, u_lo, u_hi), the root of the existence condition by Newton's method and its finished box, or Infeasible("bounds", gap).

    cpt holds the client data c * p as (n, m) rows in the memory order
    order, as _fixed_envelopes forms them (see the module docstring); any
    layout gives the same bits.  At
    level t the parameter box u_lo <= u <= u_hi, with u_lo = max(level_lo,
    fixed_lo), u_hi = ((-q) (x) B*)~ and q = min(level_hi, fixed_hi) on the
    envelopes of _level_terms (once the closure is built, the arithmetic of
    parameter_upper_bound), is nonempty exactly when
        Phi(t) = max_k ((g (x) B*)_k + C_k) = max_k (u_lo - u_hi)_k <= 0,   where
        g_i(t) = max(max_j (|c_i| (h_j - t) / w_j - cp_ij), -fixed_hi_i)   (-q_i, minus the upper envelope),
        C_k(t) = max(max_l (|c_k| (h_l - t) / w_l + cp_kl), fixed_lo_k)    (u_lo_k, the lower envelope).
    Phi is convex, decreasing and piecewise linear, and the root of each piece
    is one term of theta's closed form: the pair term of (j, l) through
    b*_ik, or a side term when g_i or C_k takes its envelope entry
    (_piece_root).  So
    Newton's method on Phi (Dinkelbach's method) climbs to theta from below:
    at t, the argmax chain k, i, j, l names the piece that attains Phi(t),
    and t becomes its root.  The pair (i, b*_ik) that attains the product's
    entry k comes from the product itself (_Star.chain).  It starts at the
    j = l, i = k term of the
    largest h_j, which is h_j since b*_ii = 0, evaluated like every pair
    term; so theta is always one float term of the closed form.  The last
    step evaluates Phi at theta, so its box is the optimal box, returned
    with theta.

    The same box carries the bounds certificate, the gap t~ B* s <= 0
    (_bounds_gap).  q <= fixed_hi, so -q >= -fixed_hi, and a product with
    B* is monotone bit for bit: the closure's _vec_mat, and the iteration,
    whose result is the least float fixed point at or above its start.  So
    fixed_lo <= u_hi on the last box, before any clamp, proves the gap <= 0
    as the same product method reads it.  An uncrossed box proves it at
    once, since fixed_lo <= u_lo <= u_hi.  Only a box that does not prove
    it, crossed or empty, or a stop on the bounds certificate's own term,
    reads the gap, one product more, and an instance whose gap is > 0 gets
    Infeasible("bounds", gap).  The first product, the row at the first
    level, is the spectral certificate (_Star.row).

    Rounding can cross the optimal box of a feasible instance: where the
    last step's largest crossing (u_lo - u_hi)_k is > 0, each axis crossed
    by at most _box_slack(n) S (S from _magnitude, which runs only then) is
    closed up to its lower end, u_hi = u_lo, so a feasible instance never
    gets an empty box.  A nan crossing is its own argmax, and closes
    nothing.

    Each step costs two O(m n) reductions and the product (-q) (x) B*, a
    few products of the iteration on B of at most O(n^2) each (see _Star),
    and the walk of its argmax chain; memory is O(m n).
    Raises _PositiveCycle if B's closure, built on the way, meets a positive
    cycle.
    """
    j = int(h.argmax())
    t = _piece_root(absc[0], w[j], h[j], absc[0], w[j], h[j], 0.0, 0.0, 0.0)
    while True:
        lo, hi = _level_terms(absc, cpt, order, w, h, t)
        level_lo = np.maximum.reduce(lo, axis=1)
        level_hi = np.minimum.reduce(hi, axis=1)
        q = np.minimum(level_hi, fixed_hi)
        x = np.negative(q)
        z = star.row(x)
        u_lo, u_hi = np.maximum(level_lo, fixed_lo), np.negative(z)
        crossing = u_lo - u_hi
        k = int(crossing.argmax())
        if not crossing[k] > 0.0:
            break
        i, b = star.chain(k, x, z)
        if level_hi[i] <= fixed_hi[i]:
            j = int(hi[i].argmin())
            wj, hj, high = w[j], h[j], cpt[i, j]
        else:
            wj, hj, high = None, 0.0, fixed_hi[i]
        if level_lo[k] >= fixed_lo[k]:
            l = int(lo[k].argmax())
            wl, hl, low = w[l], h[l], cpt[k, l]
        elif wj is None:
            break  # the bounds certificate's own term, which no level moves
        else:
            wl, hl, low = None, 0.0, fixed_lo[k]
        step = _piece_root(absc[i], wj, hj, absc[k], wl, hl, b, high, low)
        if not step > t:
            break
        t = step
    theta = float(t)
    if crossing[k] <= 0.0:
        return theta, u_lo, u_hi
    if not np.logical_and.reduce(fixed_lo <= u_hi):
        gap = _bounds_gap(star, fixed_lo, fixed_hi)
        if not gap <= 0.0:
            return Infeasible("bounds", gap)
    if crossing[k] > 0.0:  # a nan crossing closes nothing
        size = _magnitude(absc, cpt, w, h, q, u_hi, fixed_lo, fixed_hi, theta)
        u_hi = np.where((crossing > 0.0) & (crossing <= _box_slack(u_lo.size) * size), u_lo, u_hi)
    return theta, u_lo, u_hi


# How far rounding can cross the parameter box of a feasible instance at its
# theta, in units of u S (u the unit roundoff, S from _magnitude), to first
# order: at most _BOX_ROUNDINGS + _HOP_ROUNDINGS (n - 1).  The box is the last
# evaluation of Phi, so no axis is crossed by more than the float Phi(theta).
# Every finite b*_ik is at most 2S, and each path sum that a product of B*
# rounds, by the iteration or by the closure, has at most n - 1 hops, each
# rounded within 6 u S: so a product is within E = 6 (n - 1) of exact, either
# way.  Newton stops where Phi looks <= 0 (no crossing); where the root of its
# piece, within 49 u S of slope times error, is no larger than theta; or on
# the bounds certificate's own term.  The step's pair (i, b) comes from a
# walk or from a column (_Star.chain).  A walk's chain is tight, so z_k is
# the forward float sum of x_i and the path's edges and b the backward sum of
# the edges, each within E of exact: x_i + b >= z_k - 2E.  So the crossing
# is at most 49 + 10 (the level terms, 5 each) + 2E, or, on the certificate's
# own term, its gap plus 2E.  From a column, i maximizes fl(col - q), 6 more,
# and col_i is within E of b*_ik: at most 49 + 16 + 2E, or the gap plus
# 6 + 4E.  Newton can stop on the certificate's term before the gap is
# known, so the clamped box is returned only once the gap is <= 0, proven by
# the box itself or read.  CHANGES.md has the derivation.
_BOX_ROUNDINGS = 65
_HOP_ROUNDINGS = 24
_U = float(np.finfo(np.float64).eps) / 2


def _box_slack(n: int) -> float:
    """The clamp's bound on a crossing of the optimal box at size n, in units of S."""
    return (_BOX_ROUNDINGS + _HOP_ROUNDINGS * (n - 1)) * _U


def _magnitude(absc, cpt, w, h, q, u_hi, fixed_lo, fixed_hi, theta: float) -> float:
    """S: the largest |c_i p_ji|, |c_i| (|h_j| + |theta|) / w_j, |fixed_lo|, |fixed_hi|, |q| or |u_hi|.

    q and u_hi are those of the box at theta.  Every iterate of the product
    (-q) (x) B* lies between -q and -u_hi, so S bounds them, and with them
    every b*_ik that a product picks, within 2S: S needs no entry of B*.
    """
    amax = np.maximum.reduce
    level = amax(absc) * amax((np.abs(h) + abs(theta)) / w)
    envelopes = max(amax(np.abs(fixed_lo)), amax(np.abs(fixed_hi)), amax(np.abs(q)), amax(np.abs(u_hi)))
    return float(max(amax(np.abs(cpt), axis=None), level, envelopes))


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
    Infeasible result naming the failed certificate.  One prelude
    (_fixed_envelopes) feeds the Newton kernel (_theta_kernel): its first
    product decides the spectral certificate, and theta, the box and, as a
    rule, the bounds certificate come from its last step.  The prelude and
    the kernel run with overflow quiet: near the float maximum their sums
    can round to -inf or +inf, which they compare as they are, and the CLI
    rejects a theta that is not finite.
    B* comes on demand (_Star): the closure is built only where it is
    cheaper than iterating on B.  The box lives in scaled coordinates and
    its transform divides members by c; an all-ones scale gets no scale in
    the transform.  rotate45 marks an instance that is the rotated image of
    a plane one, so the transform also rotates members back.
    """
    with np.errstate(over="ignore"):
        c, cpt, order, fixed_lo, fixed_hi = _fixed_envelopes(inst)
        try:
            star = _Star(inst.diff_bounds)
            found = _theta_kernel(cpt, order, np.abs(c), inst.weights, inst.addends, star, fixed_lo, fixed_hi)
        except _PositiveCycle as cycle:
            return Infeasible("spectral", cycle.witness)
    if isinstance(found, Infeasible):
        return found
    theta, u_lo, u_hi = found
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
