"""Chebyshev location solver: bounds, certificates, theta, solution boxes."""

import dataclasses
import inspect
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from exact import closure_exact, magnitude, theta_error, theta_error_bound, theta_exact
from support import (
    B2,
    clipped_variant_instance,
    nonpos_cycle_matrix,
    python_lines,
    theta_grid,
    theta_reference,
    tight_caps_instance,
    tilted_line_instance,
    two_point_instance,
    wide_strip_instance,
)
from tropiloc import (
    ChebyshevInstance,
    ScaledChebyshevInstance,
    TiltedStripInstance,
    assemble_bounds,
    check_feasibility,
    compute_theta,
    compute_theta_scaled,
    is_member,
    objective_value,
    random_infeasible,
    random_instance,
    solve,
    solve_particular,
    solve_scaled,
    solve_strip,
    solve_tilted,
    verify,
)
from tropiloc import chebyshev
from tropiloc.rectilinear import tilted_to_scaled
from tropiloc.errors import ContractViolationError, InstanceError
from tropiloc.generate import VARIANTS
from tropiloc.linear import Infeasible, parameter_upper_bound, solve_double
from tropiloc.semiring import BOTTOM, trace_and_closure
from tropiloc.variants import lookup


def test_instance_validation_messages():
    base = dict(
        points=[[0.0, 0.0], [4.0, 0.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=[-1.0, -1.0],
        box_hi=[1.0, 1.0],
        diff_bounds=B2,
    )
    with pytest.raises(InstanceError, match=r"points\[1\]\[0\] must be finite"):
        ChebyshevInstance(**{**base, "points": [[0.0, 0.0], [np.inf, 0.0]]})
    with pytest.raises(InstanceError, match=r"weights\[1\] must be a positive real"):
        ChebyshevInstance(**{**base, "weights": [1.0, 0.0]})
    with pytest.raises(InstanceError, match=r"addends\[0\] must be finite"):
        ChebyshevInstance(**{**base, "addends": [np.nan, 0.0]})
    with pytest.raises(InstanceError, match=r"caps\[1\] must be a positive real"):
        ChebyshevInstance(**{**base, "caps": [1.0, -2.0]})
    with pytest.raises(InstanceError, match=r"lower\[0\] exceeds upper\[0\]"):
        ChebyshevInstance(**{**base, "box_lo": [2.0, -1.0]})
    with pytest.raises(InstanceError, match=r"B\[0\]\[1\] must be real or absent"):
        ChebyshevInstance(**{**base, "diff_bounds": [[BOTTOM, np.inf], [BOTTOM, BOTTOM]]})
    with pytest.raises(InstanceError, match="B must be 2x2"):
        ChebyshevInstance(**{**base, "diff_bounds": np.full((3, 3), BOTTOM)})
    inst = ChebyshevInstance(**base)
    assert inst.m == 2 and inst.dim == 2
    assert inst.caps is None


def test_scaled_products_that_overflow_are_rejected():
    # The solver works on c * p and c * box.  With c = (-1e300, 1), box
    # x1 in [1e10, 2e10] and a point at (1e10, 0), both leave the float
    # range; the instance used to come back Infeasible("bounds", nan).  The
    # tilted reduction's scale (c - 1, c + 1) overflows the same way.
    fields = dict(weights=[1.0], addends=[0.0])
    with np.errstate(over="ignore"):
        with pytest.raises(InstanceError, match=r"^c \* points\[0\]\[0\] must be finite$"):
            ScaledChebyshevInstance(**fields, diff_bounds=B2, points=[[1e10, 0.0]], box_lo=[1e10, -1.0], box_hi=[2e10, 1.0], scale=[-1e300, 1.0])
        with pytest.raises(InstanceError, match=r"^c \* upper\[0\] must be finite$"):
            ScaledChebyshevInstance(**fields, diff_bounds=B2, points=[[1.0, 0.0]], box_lo=[1.0, -1.0], box_hi=[2e10, 1.0], scale=[-1e300, 1.0])
        tilted = TiltedStripInstance(
            **fields, points=[[0.0, 0.0]], box_lo=[-1e10, -1.0], box_hi=[1.0, 1.0], strip_lo=0.0, strip_hi=1.0, slope=1e300
        )
        with pytest.raises(InstanceError, match=r"^c \* lower\[0\] must be finite$"):
            solve(tilted)


def test_scaled_products_are_checked_entrywise_only_where_their_bound_overflows():
    # max|c| max|v| bounds every |c_i v_ji|.  Here it overflows (1e300 * 1e10)
    # while no product does: c = (1e300, 1) meets 1e10 only on the second
    # axis.  The entrywise check then runs, quietly, and passes.  A tilted
    # strip's rotated points are bounded by twice its plane points: with
    # slope 1e300 and the point (1e8, -5e7) that bound overflows, though the
    # rotated point (5e7, -1.5e8) scales to about -1.5e308.
    fields = dict(weights=[1.0], addends=[0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = ScaledChebyshevInstance(**fields, diff_bounds=B2, points=[[1.0, 1e10]], box_lo=[-1.0, -1e10], box_hi=[1.0, 1e10], scale=[1e300, 1.0])
        assert inst.points[0, 1] == 1e10
        tilted = TiltedStripInstance(**fields, points=[[1e8, -5e7]], box_lo=[-1.0, -1.0], box_hi=[1.0, 1.0], strip_lo=-1.0, strip_hi=1.0, slope=1e300)
        assert np.array_equal(tilted_to_scaled(tilted).points, [[5e7, -1.5e8]])
        with pytest.raises(InstanceError, match=r"^c \* points\[0\]\[0\] must be finite$"):
            ScaledChebyshevInstance(**fields, diff_bounds=B2, points=[[1e10, 1.0]], box_lo=[-1.0, -1.0], box_hi=[1.0, 1.0], scale=[1e300, 1.0])


def test_piece_root_divides_as_numpy_where_its_denominator_underflows():
    # Weights times |c| that underflow make awl + bwj = 0.  Python floats
    # would raise ZeroDivisionError there, so numpy divides, to its inf or
    # nan and its warning; a solve through such a term gets theta nan.
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        assert chebyshev._piece_root(1e-300, 1e-30, 0.0, 1e-300, 1e-30, 0.0, 1.0, 0.0, 0.0) == np.inf
    inst = ScaledChebyshevInstance(
        points=[[0.0], [1.0]], weights=[1e-30, 1e-30], addends=[0.0, 0.0], box_lo=[-1.0], box_hi=[2.0], diff_bounds=[[BOTTOM]], scale=[1e-300]
    )
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert np.isnan(solve_scaled(inst).theta)


def test_infinite_cap_entries_are_allowed():
    inst = ChebyshevInstance(
        points=[[0.0], [4.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        caps=[np.inf, 3.0],
        box_lo=[-10.0],
        box_hi=[10.0],
        diff_bounds=np.full((1, 1), BOTTOM),
    )
    b = assemble_bounds(inst)
    assert b.fixed_lo[0] == 1.0  # only the finite cap pulls the envelope up
    assert b.fixed_hi[0] == 7.0


def test_scaled_requires_scale_vector():
    with pytest.raises(InstanceError, match="c is required"):
        ScaledChebyshevInstance(
            points=[[0.0]],
            weights=[1.0],
            addends=[0.0],
            box_lo=[0.0],
            box_hi=[1.0],
            diff_bounds=np.full((1, 1), BOTTOM),
        )
    with pytest.raises(InstanceError, match=r"c\[0\] must be a finite nonzero real"):
        ScaledChebyshevInstance(
            points=[[0.0]],
            weights=[1.0],
            addends=[0.0],
            box_lo=[0.0],
            box_hi=[1.0],
            diff_bounds=np.full((1, 1), BOTTOM),
            scale=[0.0],
        )


def test_assemble_bounds_example():
    # p = (0,0), (4,0), d = (10,10), box [-10,10]^2: s = (-6,-10), t = (10,10)
    b = assemble_bounds(two_point_instance())
    assert np.array_equal(b.fixed_lo, np.array([-6.0, -10.0]))
    assert np.array_equal(b.fixed_hi, np.array([10.0, 10.0]))
    assert np.all(b.level_lo == BOTTOM)
    assert np.all(b.level_hi == np.inf)
    # a degenerate axis with bounds -0.0 and 0.0 keeps each end's sign
    pinned = dataclasses.replace(two_point_instance(), caps=None, box_lo=[-10.0, -0.0], box_hi=[10.0, 0.0])
    b = assemble_bounds(pinned)
    assert np.signbit(b.fixed_lo[1]) and not np.signbit(b.fixed_hi[1])


def test_assemble_bounds_with_level():
    b = assemble_bounds(two_point_instance(), theta=2.0)
    # q_i = max_j (h_j - theta)/w_j + p_ji, r_i the mirror image
    assert np.array_equal(b.level_lo, np.array([2.0, -2.0]))
    assert np.array_equal(b.level_hi, np.array([2.0, 2.0]))


def _bounds_loop(inst, c, theta):
    # assemble_bounds' docstring formulas, one client at a time.  |c_i| times
    # ((h_j - theta) / w_j) is the grouping the envelopes are computed in.
    m, n = inst.points.shape
    caps = [np.inf] * m if inst.caps is None else inst.caps.tolist()
    out = {"fixed_lo": [], "fixed_hi": [], "level_lo": [], "level_hi": []}
    for i in range(n):
        ci, ai = float(c[i]), abs(float(c[i]))
        ends = (ci * inst.box_lo[i], ci * inst.box_hi[i])
        lo_end, hi_end = ends[::-1] if ci < 0 else ends
        cp = [ci * inst.points[j, i] for j in range(m)]
        out["fixed_lo"].append(max(max(cp[j] - ai * caps[j] for j in range(m)), lo_end))
        out["fixed_hi"].append(min(min(cp[j] + ai * caps[j] for j in range(m)), hi_end))
        if theta is None:
            out["level_lo"].append(BOTTOM)
            out["level_hi"].append(np.inf)
        else:
            h, w = inst.addends, inst.weights
            out["level_lo"].append(max(ai * ((h[j] - theta) / w[j]) + cp[j] for j in range(m)))
            out["level_hi"].append(min(ai * ((theta - h[j]) / w[j]) + cp[j] for j in range(m)))
    return {key: np.array(v) for key, v in out.items()}


def test_assemble_bounds_is_its_per_client_loop():
    # The envelopes hold the clients along the contiguous axis; each entry
    # must still be the docstring's max or min over the clients, bit for bit.
    rng = np.random.default_rng(21)
    for trial in range(240):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 5))
        pts = rng.normal(0.0, 3.0, (m, n))
        caps = [None, rng.uniform(5.0, 30.0, m), np.full(m, np.inf)][trial % 3]
        if trial % 3 == 2:
            caps[int(rng.integers(0, m))] = 9.0
        fields = dict(
            points=pts,
            weights=rng.uniform(0.2, 3.0, m),
            addends=rng.normal(0.0, 2.0, m),
            caps=caps,
            box_lo=pts.min(axis=0) - rng.uniform(0.0, 5.0, n),
            box_hi=pts.max(axis=0) + rng.uniform(0.0, 5.0, n),
            diff_bounds=np.full((n, n), BOTTOM),
        )
        if trial % 2:
            c = rng.choice([-2.0, -0.7, 0.3, 1.0, 5.1], n)
            inst = ScaledChebyshevInstance(**fields, scale=c)
        else:
            c = np.ones(n)
            inst = ChebyshevInstance(**fields)
        for theta in (None, float(rng.normal(5.0, 3.0))):
            got = assemble_bounds(inst, theta)
            want = _bounds_loop(inst, c, theta)
            for key, value in want.items():
                assert getattr(got, key).tobytes() == value.tobytes(), (trial, theta, key)


def test_certificates_pass_and_fail():
    ok = check_feasibility(two_point_instance())
    assert ok.feasible and ok.spectral_ok and ok.bounds_ok
    assert ok.cycle_gauge <= 0.0 and ok.bounds_gap <= 0.0

    bad = check_feasibility(tight_caps_instance())
    assert not bad.feasible and bad.spectral_ok and not bad.bounds_ok
    assert bad.bounds_gap == 8.0  # s - t = 9 - 1

    cyc = ChebyshevInstance(
        points=[[0.0, 0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-1.0, -1.0],
        box_hi=[1.0, 1.0],
        diff_bounds=[[BOTTOM, 2.0], [-1.0, BOTTOM]],
    )
    rep = check_feasibility(cyc)
    assert not rep.spectral_ok and rep.cycle_gauge == 1.0
    assert rep.bounds_gap is None and not rep.feasible


def test_theta_examples():
    assert compute_theta(two_point_instance()) == 2.0
    assert compute_theta(clipped_variant_instance()) == 3.0


def test_theta_requires_feasibility():
    with pytest.raises(ContractViolationError):
        compute_theta(tight_caps_instance())


def test_solution_box_two_point():
    box = solve_particular(two_point_instance())
    assert box.theta == 2.0
    assert np.array_equal(box.u_lo, np.array([2.0, -2.0]))
    assert np.array_equal(box.u_hi, np.array([2.0, 2.0]))
    assert np.array_equal(box.vertex_lo, np.array([2.0, -2.0]))
    assert np.array_equal(box.vertex_hi, np.array([2.0, 2.0]))
    inst = two_point_instance()
    assert is_member(box, inst, [2.0, 0.0])
    assert is_member(box, inst, [2.0, 2.0])
    assert not is_member(box, inst, [2.5, 0.0])
    assert not is_member(box, inst, [1.0, 0.0])  # feasible but not optimal


def test_solve_returns_typed_infeasible():
    out = solve_particular(tight_caps_instance())
    assert isinstance(out, Infeasible)
    assert out.cause == "bounds" and out.witness == 8.0


def test_weighted_and_addend_instance():
    # weights pull the optimum toward the heavy point; verified by replay
    inst = ChebyshevInstance(
        points=[[0.0, 0.0], [4.0, 0.0]],
        weights=[3.0, 1.0],
        addends=[0.5, 0.0],
        box_lo=[-10.0, -10.0],
        box_hi=[10.0, 10.0],
        diff_bounds=B2,
    )
    box = solve_particular(inst)
    rep = verify(box, inst, 12, seed=5)
    assert rep.passed
    # theta = (w2*h1 + w1*h2 + w1*w2*dist)/(w1+w2) = (0.5 + 12)/4
    assert box.theta == 3.125


def test_binding_difference_bounds_raise_theta():
    free = two_point_instance()
    bound = ChebyshevInstance(
        points=free.points,
        weights=free.weights,
        addends=free.addends,
        caps=free.caps,
        box_lo=free.box_lo,
        box_hi=free.box_hi,
        diff_bounds=[[BOTTOM, 6.0], [BOTTOM, BOTTOM]],  # x1 >= 6 + x2
    )
    tb = solve_particular(bound)
    assert tb.theta >= solve_particular(free).theta
    rep = verify(tb, bound, 10, seed=0)
    assert rep.passed
    for u in (tb.u_lo, tb.u_hi):
        x = tb.member(u)
        assert x[0] >= 6.0 + x[1] - 1e-12


def test_caps_monotone_in_theta():
    base = two_point_instance()
    tighter = ChebyshevInstance(
        points=base.points,
        weights=base.weights,
        addends=base.addends,
        caps=[3.0, 3.0],
        box_lo=base.box_lo,
        box_hi=base.box_hi,
        diff_bounds=B2,
    )
    assert compute_theta(tighter) >= compute_theta(base)


def test_scaled_one_dimensional_examples():
    for c in (2.0, -3.0):
        inst = ScaledChebyshevInstance(
            points=[[0.0], [4.0]],
            weights=[1.0, 1.0],
            addends=[0.0, 0.0],
            caps=[100.0, 100.0],
            box_lo=[-100.0],
            box_hi=[100.0],
            diff_bounds=np.full((1, 1), BOTTOM),
            scale=[c],
        )
        assert compute_theta_scaled(inst) == 2.0
        box = solve_scaled(inst)
        assert verify(box, inst, 10, seed=1).passed


def test_scaled_negative_axis_flips_box():
    # x in [-3, -1] with c = -1 puts y = -x in [1, 3]; nearest to y(p) = 0 is
    # y = 1, i.e. the original point x = -1 at scaled distance 1
    inst = ScaledChebyshevInstance(
        points=[[0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-3.0],
        box_hi=[-1.0],
        diff_bounds=np.full((1, 1), BOTTOM),
        scale=[-1.0],
    )
    box = solve_scaled(inst)
    assert box.theta == 1.0
    assert np.array_equal(box.u_lo, np.array([1.0]))
    assert np.array_equal(box.vertex_lo, np.array([-1.0]))


def test_dispatch_guards():
    # Each typed entry point accepts its own instance classes and raises
    # TypeError on the others, instead of an AttributeError from inside or,
    # for assemble_bounds on a strip, envelopes in mixed coordinates.
    plain = two_point_instance()
    scaled = ScaledChebyshevInstance(
        points=[[0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-1.0],
        box_hi=[1.0],
        diff_bounds=np.full((1, 1), BOTTOM),
        scale=[2.0],
    )
    strip, tilted = wide_strip_instance(), tilted_line_instance()
    accepts = {
        solve_particular: {plain},
        compute_theta: {plain},
        solve_scaled: {scaled},
        compute_theta_scaled: {scaled},
        chebyshev.check_feasibility: {plain, scaled},
        assemble_bounds: {plain, scaled},
        solve_strip: {strip},
        solve_tilted: {tilted},
    }
    for entry, own in accepts.items():
        for inst in (plain, scaled, strip, tilted):
            if inst in own:
                entry(inst)
            else:
                with pytest.raises(TypeError, match=entry.__name__):
                    entry(inst)


def test_all_ones_scale_reduces_to_particular():
    from tropiloc import random_instance

    for seed in range(30):
        plain = random_instance("chebyshev", 2, 3, seed)
        scaled = ScaledChebyshevInstance(
            points=plain.points,
            weights=plain.weights,
            addends=plain.addends,
            caps=plain.caps,
            box_lo=plain.box_lo,
            box_hi=plain.box_hi,
            diff_bounds=plain.diff_bounds,
            scale=np.ones(plain.dim),
        )
        a = solve_particular(plain)
        b = solve_scaled(scaled)
        assert a.theta == b.theta  # bit for bit, not approximately
        assert np.array_equal(a.u_lo, b.u_lo)
        assert np.array_equal(a.u_hi, b.u_hi)
        assert np.array_equal(a.generator, b.generator)
        assert b.transform.kind == "identity"


def _certificates_of(inst):
    # (check_feasibility's report, the solve's B* on demand or None where the
    # report fails, the fixed envelopes).  At n <= 41 that B* holds its closure.
    report = check_feasibility(inst)
    bounds = assemble_bounds(inst)
    star = chebyshev._Star(inst.diff_bounds) if report.feasible else None
    return report, star, bounds


@pytest.mark.parametrize("dyadic_data", [True, False], ids=["dyadic", "non-dyadic"])
def test_unit_magnitude_scale_theta_matches_scaled_loop(dyadic_data):
    # theta must equal the literal loop over closure entries and the pair
    # grid, which groups axes by |c_i|, bit for bit on these seeds: on plain
    # instances (one group), on c in {-1, 1}^n (one group of flipped axes)
    # and on general scales with repeated non-unit magnitudes (several
    # groups, some of them shared).
    rng = np.random.default_rng(5 if dyadic_data else 6)

    def data(shape, lo, hi):
        x = rng.uniform(lo, hi, shape)
        return np.round(x * 8.0) / 8.0 if dyadic_data else x

    def matches_loop(fields, scale) -> bool:
        # scale None builds a plain instance, which the kernel treats as c = 1
        if scale is None:
            inst, theta_of, solve_of = ChebyshevInstance(**fields), compute_theta, solve_particular
            scale = np.ones(inst.dim)
        else:
            inst, theta_of, solve_of = ScaledChebyshevInstance(**fields, scale=scale), compute_theta_scaled, solve_scaled
        report, star, bounds = _certificates_of(inst)
        if not report.feasible:
            return False
        args = (scale * inst.points, np.abs(scale), inst.weights, inst.addends, star.closure, bounds.fixed_lo, bounds.fixed_hi)
        loop = theta_reference(*args)
        assert theta_grid(*args) == loop
        assert theta_of(inst) == loop
        assert solve_of(inst).theta == loop
        return True

    magnitudes = [2.0, -2.0, 0.5, -0.25, 3.0] if dyadic_data else [2.0, -2.0, 0.5, 0.3, -7.1]
    scales = {
        "plain": lambda n: None,
        "unit": lambda n: rng.choice([-1.0, 1.0], n),
        "general": lambda n: rng.choice(magnitudes, n),
    }
    for kind, scale_of in scales.items():
        checked = 0
        for _ in range(80):
            m, n = int(rng.integers(1, 25)), int(rng.integers(1, 5))
            pts = data((m, n), -10.0, 10.0)
            fields = dict(
                points=pts,
                weights=rng.choice([0.5, 1.0, 2.0, 4.0], m) if dyadic_data else rng.uniform(0.3, 3.0, m),
                addends=data(m, -3.0, 3.0),
                caps=None if rng.random() < 0.3 else data(m, 15.0, 40.0),
                box_lo=pts.min(axis=0) - data(n, 1.0, 5.0),
                box_hi=pts.max(axis=0) + data(n, 1.0, 5.0),
                diff_bounds=nonpos_cycle_matrix(rng, n) * (1.0 if dyadic_data else 1.1),
            )
            checked += matches_loop(fields, scale_of(n))
        assert checked >= 50, kind
    # Large m gives Newton many lines and makes the pair grid take its
    # coupling product over several slices of a group: a plain instance (one
    # group of 4 axes) and c = (2, -2, 0.5), a repeated non-unit magnitude.
    # The points spread most along one axis, so theta binds through the first
    # or the last slice of its group.
    for m, scale, wide in ((800, None, 0), (800, None, 3), (1100, [2.0, -2.0, 0.5], 1)):
        n = 4 if scale is None else 3
        pts = data((m, n), -10.0, 10.0)
        pts[:, wide] *= 8.0
        fields = dict(
            points=pts,
            weights=data(m, 0.5, 4.0),
            addends=data(m, -3.0, 3.0),
            box_lo=np.full(n, -100.0),
            box_hi=np.full(n, 100.0),
            diff_bounds=nonpos_cycle_matrix(rng, n, density=1.0),
        )
        assert matches_loop(fields, scale)


def _kernel_theta(args, star) -> float:
    # The kernel's theta on the oracles' arguments, with cp as the solve's
    # (n, m) client rows and B* on demand in place of the matrix.
    return chebyshev._theta_kernel(np.ascontiguousarray(args[0].T), "C", *args[1:4], star, *args[5:])[0]


def _within_exact_bound(theta, args, b) -> bool:
    # theta is the term Newton stops on: one of the float terms the literal
    # loop maximizes on the float closure args[4], so never above its float
    # max, and within the derived rounding bound of the exact theta of the
    # float inputs, whose closure of B is exact too.
    exact = (*args[:4], closure_exact(b), *args[5:])
    return theta <= theta_reference(*args) and theta_error(theta, theta_exact(*exact)) <= theta_error_bound(*exact, theta)


def test_theta_kernel_matches_both_oracles_on_near_ties():
    # Newton's method on the existence condition stops on one term of the
    # closed form.  The float max of the literal loop and of the pair grid
    # is an upper bound on it, and the exact theta is within the derived
    # rounding bound.  Non-dyadic data rounds, so these shapes put many terms
    # within a few ulps of each other: equal weights and repeated points, a
    # coarse non-dyadic lattice, m = 1, B* with no finite off-diagonal entry,
    # a box side far from every point, repeated and per-axis |c|, all
    # rescaled from 1e-2 to 1e9.
    # Two points on a line: Newton stops at 0.001, the term of j = l = 0,
    # which is the exact theta; the (0, 1) term rounds to one ulp above it,
    # so the float max of the oracles is 0.0010000000000000005.
    pair = ScaledChebyshevInstance(
        points=[[0.0], [0.1]],
        weights=[0.1, 0.1],
        addends=[0.001, -0.009000000000000001],
        box_lo=[-1.0],
        box_hi=[1.0],
        diff_bounds=[[BOTTOM]],
        scale=[0.3],
    )
    report, star, bounds = _certificates_of(pair)
    args = (0.3 * pair.points, np.array([0.3]), pair.weights, pair.addends, star.closure, bounds.fixed_lo, bounds.fixed_hi)
    assert theta_exact(*args) == Fraction(0.001)
    assert theta_reference(*args) == theta_grid(*args) == 0.0010000000000000005
    assert _kernel_theta(args, star) == solve_scaled(pair).theta == 0.001
    rng = np.random.default_rng(11)
    shapes = ("repeated", "lattice", "single", "diagonal", "side")
    scales = ("plain", "unit", "repeated", "per-axis")
    side_binds = 0
    checked = {shape: 0 for shape in shapes}
    for trial in range(1500):
        shape = shapes[trial % len(shapes)]
        m = 1 if shape == "single" else int(rng.integers(2, 25))
        n = int(rng.integers(1, 5))
        if shape == "repeated":
            pts = rng.uniform(-1.0, 1.0, (3, n))[rng.integers(0, 3, m)]
            w = np.full(m, 0.3)
            h = rng.choice([0.1, 0.7, -0.3], m)
        else:
            pts = rng.integers(-5, 6, (m, n)) * 0.1
            w = rng.choice([0.1, 0.3, 0.7], m)
            h = rng.integers(-3, 4, m) * 0.1
        lo = pts.min(axis=0) - rng.integers(1, 6, n) * 0.1
        hi = pts.max(axis=0) + rng.integers(1, 6, n) * 0.1
        if shape == "side":
            axis = int(rng.integers(0, n))
            lo[axis] = hi[axis] = pts[:, axis].max() + 0.7
        if shape == "diagonal" or n == 1:
            b = np.full((n, n), BOTTOM)
        else:
            b = nonpos_cycle_matrix(rng, n) * 1.1
        f = float(rng.choice([1e-2, 1.0, 1.37, 1e6 + 0.3, 1e9 + 0.3]))
        fields = dict(
            points=pts * f,
            weights=w,
            addends=h * f,
            caps=None if rng.random() < 0.5 else rng.integers(15, 40, m) * 0.1 * f,
            box_lo=lo * f,
            box_hi=hi * f,
            diff_bounds=b * f,
        )
        kind = scales[int(rng.integers(0, len(scales)))]
        if kind == "plain":
            inst, c = ChebyshevInstance(**fields), np.ones(n)
        else:
            if kind == "unit":
                c = rng.choice([-1.0, 1.0], n)
            elif kind == "repeated":
                c = rng.choice([0.3, -0.3, 7.1, -2.0], n)
            else:
                c = rng.permutation([0.3, -7.1, 2.0, -0.7])[:n]
            inst = ScaledChebyshevInstance(**fields, scale=c)
        report, star, bounds = _certificates_of(inst)
        if not report.feasible:
            continue
        cp = c * inst.points
        args = (cp, np.abs(c), inst.weights, inst.addends, star.closure, bounds.fixed_lo, bounds.fixed_hi)
        theta = _kernel_theta(args, star)
        assert theta_reference(*args) == theta_grid(*args), (trial, shape, kind)
        assert _within_exact_bound(theta, args, inst.diff_bounds), (trial, shape, kind)
        checked[shape] += 1
        if shape == "side":
            own = inst.addends[:, None] + (inst.weights[:, None] / np.abs(c)) * (bounds.fixed_lo - cp)
            side_binds += theta == own.max()
    assert min(checked.values()) >= 120, checked
    assert side_binds >= 60, side_binds


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def test_theta_kernel_ignores_the_layout_of_cp():
    # The kernel takes the client rows c * p as (n, m); C-ordered, F-ordered
    # and strided views of the same values, with the level terms formed in
    # either memory order, give the same bits, within the rounding bound of
    # the exact theta.
    checked = 0
    for seed in range(60):
        variant = VARIANTS[seed % 2]
        inst = random_instance(variant, 2 + seed % 3, 2 + seed % 30, seed)
        report, star, bounds = _certificates_of(inst)
        if not report.feasible:
            continue
        c = chebyshev._scale_of(inst)
        cp = c * inst.points
        rows = np.ascontiguousarray(cp.T)
        wide = np.zeros((3 * inst.dim, 2 * inst.m))
        wide[::3, ::2] = rows
        rest = (np.abs(c), inst.weights, inst.addends)
        ends = (bounds.fixed_lo, bounds.fixed_hi)
        views = ((rows, "C"), (np.asfortranarray(rows), "F"), (wide[::3, ::2], "C"), (wide[::3, ::2], "F"))
        thetas = [chebyshev._theta_kernel(view, order, *rest, star, *ends)[0] for view, order in views]
        assert len({_bits(theta) for theta in thetas}) == 1, seed
        assert _within_exact_bound(thetas[0], (cp, *rest, star.closure, *ends), inst.diff_bounds), seed
        checked += 1
    assert checked >= 40, checked


def test_repeated_clients_cost_linear_terms(monkeypatch):
    # Each Newton step evaluates one pair term, so copies of one client cost
    # a few terms, not their full tie set of 4e8 per row at 20 000 copies.
    # theta is the theta of the single client.
    one = dict(points=[[0.3, -1.1]], weights=[0.7], addends=[0.1], caps=[5.0])
    box = dict(box_lo=[-4.0, -4.0], box_hi=[4.0, 4.0], diff_bounds=[[BOTTOM, -0.5], [BOTTOM, BOTTOM]])
    m = 20_000
    copies = {key: np.repeat(value, m, axis=0) for key, value in one.items()}
    counted = []
    terms = chebyshev._piece_root

    def counting(*args):
        out = terms(*args)
        counted.append(np.size(out))
        return out

    single = solve_particular(ChebyshevInstance(**one, **box)).theta
    monkeypatch.setattr(chebyshev, "_piece_root", counting)
    theta = solve_particular(ChebyshevInstance(**copies, **box)).theta
    assert _bits(theta) == _bits(single)
    assert 0 < sum(counted) <= m, sum(counted)


def test_distinct_tuples_keep_theta():
    # On repeated, non-dyadic clients theta stays within the rounding bound
    # of the exact theta.  Half the clients sit one ulp from the other half,
    # with the same weight, so their terms tie to within rounding.
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(200):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(1, 4))
        pick = rng.integers(0, 4, m)
        base = rng.integers(-5, 6, (2, n)) * 0.1
        pts = np.vstack([base, np.nextafter(base, np.inf)])[pick]
        w = np.tile(rng.choice([0.1, 0.3, 0.7], 2), 2)[pick]
        h = rng.choice([0.1, 0.7, -0.3], m)
        b = np.full((n, n), BOTTOM) if n == 1 else nonpos_cycle_matrix(rng, n) * 1.1
        c = rng.choice([0.3, -0.3, 7.1, -2.0], n)
        inst = ScaledChebyshevInstance(
            points=pts, weights=w, addends=h, box_lo=np.full(n, -3.0), box_hi=np.full(n, 3.0), diff_bounds=b, scale=c
        )
        report, star, bounds = _certificates_of(inst)
        if not report.feasible:
            continue
        args = (c * inst.points, np.abs(c), inst.weights, inst.addends, star.closure, bounds.fixed_lo, bounds.fixed_hi)
        assert _within_exact_bound(_kernel_theta(args, star), args, inst.diff_bounds), trial
        checked += 1
    assert checked >= 100, checked


@pytest.mark.parametrize("variant", VARIANTS)
def test_certificate_and_box_are_solve_double(variant):
    # The solve's bounds certificate is solve_double on the envelopes with no
    # level, and the optimal box is solve_double on them at level theta, u_lo
    # and u_hi bit for bit, except where rounding crossed the box: those axes
    # are closed up to u_lo, and only within the solver's derived bound.
    # Rescaled copies make rounding cross some boxes.
    verdicts = set()
    clamped = 0
    for seed in range(24):
        n = 2 if variant.startswith("rectilinear") else 2 + seed % 2
        inst = random_instance(variant, n, 2 + seed % 4, seed)
        if seed % 2:
            inst = dataclasses.replace(inst, caps=np.full(inst.m, 0.05 * (seed % 5 + 1)))
        for f in (1.0, 1e6 + 0.3, 1e9 + 0.3):
            scaled = _rescaled(inst, f)
            core = lookup(scaled).reduce(scaled)
            bounds = assemble_bounds(core)
            star = chebyshev._Star(core.diff_bounds)
            gap = chebyshev._bounds_gap(star, bounds.fixed_lo, bounds.fixed_hi)
            family = solve_double(core.diff_bounds, bounds.fixed_lo, bounds.fixed_hi)
            verdicts.add(gap <= 0.0)
            if not gap <= 0.0:
                assert (family.cause, _bits(family.witness)) == ("bounds", _bits(gap))
                continue
            assert _bits(np.max(family.u_lo - family.u_hi)) == _bits(gap)
            box = solve(scaled)
            level = assemble_bounds(core, box.theta)
            assert _bits(box.u_lo) == _bits(np.maximum(level.level_lo, level.fixed_lo)), (seed, f)
            # u_hi depends on q alone; the lower side stays open.
            open_lo = np.full(core.dim, BOTTOM)
            family = solve_double(core.diff_bounds, open_lo, np.minimum(level.level_hi, level.fixed_hi))
            assert np.all(box.u_lo <= box.u_hi), (seed, f)
            moved = family.u_hi.view(np.int64) != box.u_hi.view(np.int64)
            c = chebyshev._scale_of(core)
            args = (c * core.points, np.abs(c), core.weights, core.addends, star.closure, bounds.fixed_lo, bounds.fixed_hi)
            slack = chebyshev._box_slack(core.dim) * magnitude(*args, box.theta)
            assert np.array_equal(box.u_hi[moved], box.u_lo[moved]), (seed, f)
            assert np.all(box.u_lo[moved] - family.u_hi[moved] <= slack), (seed, f)
            clamped += int(moved.sum())
    assert verdicts == {True, False}
    assert clamped > 0


def test_check_feasibility_is_the_lemma_on_the_closure(monkeypatch):
    # The report is Tr(B) and the two-sided lemma on the closure, never the
    # solve's B* on demand: with _Star refused, every report equals
    # trace_and_closure and solve_double on the same envelopes, bit for bit.
    # The spectral side is the gauge, the witness where it fails; the bounds
    # side is the family's max(u_lo - u_hi), or Infeasible("bounds")'s
    # witness.  Feasible, bounds-infeasible and cycle instances of every
    # variant, on both sides of the solve's up-front cut (n <= 41).
    def refuse(*args):
        raise AssertionError("check_feasibility made the solve's B* on demand")

    monkeypatch.setattr(chebyshev, "_Star", refuse)
    seen = set()
    for seed in range(4):
        for variant in VARIANTS:
            for n in (2,) if variant.startswith("rectilinear") else (2, 5, 41, 42, 60):
                inst = random_instance(variant, n, 2 + seed % 5, seed)
                tight = dataclasses.replace(inst, caps=np.full(inst.m, 0.05))
                cases = [inst, tight]
                if variant == "chebyshev":
                    cases += [random_infeasible(n, 3 + seed, seed, mode) for mode in ("caps", "cycle")]
                for case in cases:
                    core = lookup(case).reduce(case)
                    bounds = assemble_bounds(core)
                    gauge = trace_and_closure(core.diff_bounds)[0]
                    family = solve_double(core.diff_bounds, bounds.fixed_lo, bounds.fixed_hi)
                    report = check_feasibility(case)
                    assert _bits(report.cycle_gauge) == _bits(gauge), (variant, n, seed)
                    if family == Infeasible("spectral", gauge):
                        assert (report.spectral_ok, report.bounds_ok, report.bounds_gap) == (False, False, None)
                        kind = "spectral"
                    elif isinstance(family, Infeasible):
                        assert family.cause == "bounds"
                        assert report.spectral_ok and not report.bounds_ok
                        assert _bits(report.bounds_gap) == _bits(family.witness), (variant, n, seed)
                        kind = "bounds"
                    else:
                        assert report.feasible
                        assert _bits(report.bounds_gap) == _bits(np.max(family.u_lo - family.u_hi)), (variant, n, seed)
                        kind = "feasible"
                    seen.add((variant, n, kind))
    for n in (2, 5, 41, 42, 60):
        assert {("chebyshev", n, kind) for kind in ("spectral", "bounds", "feasible")} <= seen, n
        assert ("chebyshev_scaled", n, "bounds") in seen and ("chebyshev_scaled", n, "feasible") in seen, n
    for variant in ("rectilinear_strip", "rectilinear_tilted"):
        assert (variant, 2, "bounds") in seen and (variant, 2, "feasible") in seen, variant


def _rescaled(inst, f: float):
    # inst with every length-valued field multiplied by f.
    fields = {name: getattr(inst, name) * f for name in ("points", "addends", "box_lo", "box_hi")}
    if inst.caps is not None:
        fields["caps"] = inst.caps * f
    if hasattr(inst, "strip_lo"):
        fields.update(strip_lo=inst.strip_lo * f, strip_hi=inst.strip_hi * f)
    else:
        fields["diff_bounds"] = inst.diff_bounds * f
    return dataclasses.replace(inst, **fields)


def test_large_m_solves_in_linear_memory():
    # theta costs O(m n) memory: the pair-term grid of m = 100 000 points
    # alone would need about 240 GB.  The optimum's member must attain theta.
    rng = np.random.default_rng(3)
    m = 100_000
    pts = rng.uniform(-100.0, 100.0, (m, 2))
    inst = ChebyshevInstance(
        points=pts,
        weights=rng.uniform(0.5, 2.0, m),
        addends=rng.uniform(-5.0, 5.0, m),
        caps=np.full(m, 400.0),
        box_lo=[-200.0, -200.0],
        box_hi=[200.0, 200.0],
        diff_bounds=[[BOTTOM, 3.0], [-250.0, BOTTOM]],
    )
    tracemalloc.start()
    try:
        box = solve_particular(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, peak
    x = box.vertex_lo
    assert x[0] - x[1] >= 3.0
    assert objective_value(inst, x) == pytest.approx(box.theta, rel=1e-12)


def test_instances_are_frozen():
    inst = two_point_instance()
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.weights = np.array([2.0, 2.0])
    with pytest.raises(ValueError):
        inst.points[0, 0] = 5.0


def test_bounds_gap_beyond_the_float_range_is_quiet():
    # A box spanning more than the float range has a bounds gap of -inf:
    # u_lo - u_hi overflows.  The solve, the report and solve_double read it
    # with no warning and keep its bits; so does a gap that overflows to +inf.
    wide = ChebyshevInstance(points=[[0.0]], weights=[1.0], addends=[0.0], box_lo=[-1.7e308], box_hi=[1.7e308], diff_bounds=[[BOTTOM]])
    tilted = TiltedStripInstance(points=[[1e308, 0.0]], weights=[1.0], addends=[0.0], box_lo=[-1.7e308] * 2, box_hi=[1.7e308] * 2,
                                 strip_lo=-1.0, strip_hi=1.0, slope=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst in (wide, tilted):
            box = solve(inst)
            assert box.theta == 0.0
            report = check_feasibility(inst)
            assert (report.feasible, report.bounds_gap) == (True, -np.inf)
            core = lookup(inst).reduce(inst)
            bounds = assemble_bounds(core)
            assert chebyshev._bounds_gap(chebyshev._Star(core.diff_bounds), bounds.fixed_lo, bounds.fixed_hi) == -np.inf
            family = solve_double(core.diff_bounds, bounds.fixed_lo, bounds.fixed_hi)
            assert not isinstance(family, Infeasible)
        far = solve_double([[BOTTOM]], [1.7e308], [-1.7e308])
        assert (far.cause, far.witness) == ("bounds", np.inf)


def _fresh_gap(inst) -> float:
    # The bounds gap as the solve read it before Newton: the gap helper on a
    # fresh B* on demand, its first product.
    _, _, _, fixed_lo, fixed_hi = chebyshev._fixed_envelopes(inst)
    return chebyshev._bounds_gap(chebyshev._Star(inst.diff_bounds), fixed_lo, fixed_hi)


@pytest.mark.parametrize("n", [1, 5, 41, 42, 60])
def test_a_caps_infeasible_solve_stops_on_the_bounds_term(n):
    # Newton runs on a bounds-infeasible instance too.  It climbs until the
    # argmax chain names the bounds certificate's own term, which no level
    # moves, and stops there; the solve then reads the gap.  Its witness has
    # the bits of the gap helper on a fresh B*, on both sides of the
    # up-front closure (n <= 41), where they are also check_feasibility's.
    source, start = inspect.getsourcelines(chebyshev._theta_kernel)
    stop = {start + i for i, line in enumerate(source) if "break  # the bounds certificate's own term" in line}
    assert len(stop) == 1
    for seed in range(4):
        inst = random_infeasible(n, 20, seed, mode="caps")
        results = []
        ran = python_lines([lambda: results.append(solve(inst))], chebyshev._theta_kernel)
        assert stop <= ran, seed
        assert (results[0].cause, _bits(results[0].witness)) == ("bounds", _bits(_fresh_gap(inst))), seed
        if n <= 41:
            assert _bits(results[0].witness) == _bits(check_feasibility(inst).bounds_gap), seed


def test_only_a_box_that_does_not_prove_the_bounds_certificate_reads_it(monkeypatch):
    # A feasible solve reads its bounds certificate off the last Newton box:
    # no row product starts from -fixed_hi.  A caps-infeasible one, whose
    # last box is crossed, reads the gap with exactly one such product.  At
    # n >= 42 every product is the iteration's, so each one counts.
    starts = []
    row = chebyshev._Star.row

    def spy(star, x):
        starts.append(_bits(x))
        return row(star, x)

    monkeypatch.setattr(chebyshev._Star, "row", spy)
    cases = [(random_instance(variant, n, 20, seed), 0) for variant in VARIANTS[:2] for n in (42, 60) for seed in range(3)]
    cases += [(random_infeasible(n, 20, seed, mode="caps"), 1) for n in (42, 60) for seed in range(3)]
    for inst, reads in cases:
        starts.clear()
        result = solve(inst)
        assert isinstance(result, Infeasible) == bool(reads)
        *_, fixed_hi = chebyshev._fixed_envelopes(inst)
        assert starts.count(_bits(np.negative(fixed_hi))) == reads
        assert len(starts) >= 1 + reads


def _bounds_ties():
    # Plain instances at n = 42 to 81 with no caps, each with one box_lo[k]
    # set to the closure's float u_hi[k], the upper end of the parameter box
    # with no level: the gap is 0 in the closure's arithmetic.  Each comes
    # plain and with box_lo[k] lifted by 1e-15 relative, a gap of a few ulps;
    # a lift beyond box_hi[k] is left out.
    for n in range(42, 82):
        for seed in range(6):
            base = dataclasses.replace(random_instance("chebyshev", n, 20, seed), caps=None)
            upper = parameter_upper_bound(trace_and_closure(base.diff_bounds)[1], base.box_hi)
            for k in {seed % n, (n - 1 - seed) % n}:
                for lift in (0.0, 1e-15):
                    lo = base.box_lo.copy()
                    lo[k] = upper[k] + abs(upper[k]) * lift
                    try:
                        yield dataclasses.replace(base, box_lo=lo)
                    except InstanceError:
                        pass


def test_a_box_that_rents_its_closure_has_a_bounds_gap_at_most_zero():
    # Soundness of the bounds certificate read off the last Newton box, on
    # ties of the gap: wherever solve returns a box without buying the
    # closure, the gap helper on a fresh B* (the iteration from -fixed_hi)
    # is <= 0.  The iteration and the closure add path weights in other
    # orders, so on ties solve and check_feasibility can disagree; they
    # disagree on no more instances than where the solve read the gap with
    # a product of its own before Newton (31 of these 764).
    total = rented = disagree = 0
    for inst in _bounds_ties():
        total += 1
        result = solve(inst)
        disagree += isinstance(result, Infeasible) == check_feasibility(inst).feasible
        if not isinstance(result, Infeasible) and result._star.closure is None:
            rented += 1
            assert _fresh_gap(inst) <= 0.0
    assert total == 764 and rented >= 400
    assert disagree <= 31, disagree


@pytest.mark.parametrize("n", [1, 45])
@pytest.mark.parametrize("p", [1.7e308, -1.7e308])
def test_a_cap_that_reaches_past_the_float_range_is_quiet(n, p):
    # A client at +-1.7e308 with a cap of 1e307, in a box that spans the
    # float range: the cap's side beyond the client, p +- 1e307, rounds to
    # +-inf, and the box end takes over.  solve, check_feasibility and
    # assemble_bounds all read the envelopes with no overflow warning.
    top = np.finfo(np.float64).max
    points = np.zeros((1, n))
    points[0, 0] = p
    inst = ChebyshevInstance(points=points, weights=[1.0], addends=[0.0], caps=[1e307],
                             box_lo=[-top] * n, box_hi=[top] * n, diff_bounds=np.full((n, n), BOTTOM))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        box = solve(inst)
        report = check_feasibility(inst)
        bounds = assemble_bounds(inst, box.theta)
    assert box.theta == 0.0 and report.feasible
    assert (bounds.fixed_lo[0], bounds.fixed_hi[0]) == ((p - 1e307, top) if p > 0 else (-top, p + 1e307))


@pytest.mark.parametrize("n", [1, 45])
def test_a_caps_infeasible_solve_near_the_float_maximum_is_quiet(n):
    # Two clients 1.6e308 apart with weight 2 make a pair term of Newton's
    # climb overflow; two at +-1.7e308 in a box that spans the float range
    # make the crossing u_lo - u_hi overflow.  Both are caps-infeasible.  The
    # solve reports them with the gap helper's witness and no warning.
    top = np.finfo(np.float64).max
    for p, w in ((8e307, 2.0), (1.7e308, 1.0)):
        points = np.zeros((2, n))
        points[:, 0] = (-p, p)
        inst = ChebyshevInstance(points=points, weights=[w, w], addends=[0.0, 0.0], caps=[1.0, 1.0],
                                 box_lo=[-top] * n, box_hi=[top] * n, diff_bounds=np.full((n, n), BOTTOM))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(inst)
            gap = _fresh_gap(inst)
        assert (result.cause, _bits(result.witness)) == ("bounds", _bits(gap)), p
        assert gap == (2 * p - 2.0 if p < 1e308 else np.inf)
