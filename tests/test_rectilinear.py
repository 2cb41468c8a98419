"""Plane variants: rotation isometry, strip reductions, frozen examples."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (
    degenerate_strip_instance,
    tilted_line_instance,
    wide_strip_instance,
)
from tropiloc import (
    ScaledChebyshevInstance,
    StripInstance,
    TiltedStripInstance,
    check_feasibility,
    is_member,
    random_instance,
    rotate,
    sample,
    solve,
    solve_strip,
    solve_tilted,
    strip_to_chebyshev,
    tilted_to_scaled,
    verify,
)
from tropiloc.boxes import rotate45, unrotate45
from tropiloc.chebyshev import solve_core
from tropiloc.errors import DimensionError, InstanceError
from tropiloc.linear import Infeasible
from tropiloc.semiring import BOTTOM, d1, dinf

dyadic = st.integers(-(2**20), 2**20).map(lambda k: k / 8.0)


def test_rotate_example():
    assert np.array_equal(rotate([4.0, 0.0]), np.array([4.0, -4.0]))
    assert np.array_equal(rotate([4.0, -4.0], "inverse"), np.array([4.0, 0.0]))
    with pytest.raises(DimensionError):
        rotate([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        rotate([1.0, 2.0], "sideways")


@given(dyadic, dyadic)
def test_rotation_roundtrips_exactly(x1, x2):
    x = np.array([x1, x2])
    assert np.array_equal(rotate(rotate(x), "inverse"), x)


@given(dyadic, dyadic, dyadic, dyadic)
def test_rotation_is_an_isometry(x1, x2, p1, p2):
    # rectilinear distance in the plane equals Chebyshev distance after
    # rotation; exact on dyadics because every sum is representable
    x = np.array([x1, x2])
    p = np.array([p1, p2])
    assert d1(x, p) == dinf(rotate(x), rotate(p))


def test_strip_reduction_shape():
    inst = wide_strip_instance()
    cheb = strip_to_chebyshev(inst)
    a, b = inst.strip_lo, inst.strip_hi
    assert cheb.diff_bounds[0, 1] == 2.0 * a
    assert cheb.diff_bounds[1, 0] == -2.0 * b
    assert cheb.diff_bounds[0, 0] == BOTTOM and cheb.diff_bounds[1, 1] == BOTTOM
    assert np.array_equal(cheb.points[0], rotate(inst.points[0]))
    assert np.array_equal(cheb.points[1], rotate(inst.points[1]))


def test_strip_validation():
    base = dict(
        points=[[0.0, 0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-8.0, -8.0],
        box_hi=[8.0, 8.0],
    )
    with pytest.raises(InstanceError, match="a exceeds b"):
        StripInstance(**base, strip_lo=1.0, strip_hi=0.0)
    with pytest.raises(InstanceError, match="a must be a finite real"):
        StripInstance(**base, strip_lo=np.nan, strip_hi=0.0)
    with pytest.raises(InstanceError, match="b must be a finite real"):
        StripInstance(**base, strip_lo=0.0, strip_hi=np.inf)
    with pytest.raises(InstanceError, match=r"points must be an \(m, 2\) array"):
        StripInstance(**{**base, "points": [[0.0, 0.0, 0.0]]}, strip_lo=0.0, strip_hi=1.0)
    for flag in (False, True, np.bool_(False)):
        with pytest.raises(InstanceError, match="a must be a finite real"):
            StripInstance(**base, strip_lo=flag, strip_hi=1.0)
        with pytest.raises(InstanceError, match="b must be a finite real"):
            StripInstance(**base, strip_lo=0.0, strip_hi=flag)
    inst = StripInstance(**base, strip_lo=np.int64(0), strip_hi=np.float32(0.5))
    assert (inst.strip_lo, inst.strip_hi) == (0.0, 0.5)
    assert type(inst.strip_lo) is float and type(inst.strip_hi) is float


def test_tilted_rejects_unit_slopes():
    base = dict(
        points=[[0.0, 0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-8.0, -8.0],
        box_hi=[8.0, 8.0],
        strip_lo=0.0,
        strip_hi=0.0,
    )
    for c in (1, -1, 1.0, -1.0):
        with pytest.raises(InstanceError, match="c must differ from 1 and -1"):
            TiltedStripInstance(**base, slope=c)
    with pytest.raises(InstanceError, match="c must be a finite real"):
        TiltedStripInstance(**base, slope=np.inf)
    with pytest.raises(InstanceError, match="c must be a finite real"):
        TiltedStripInstance(**base)
    for flag in (False, True, np.bool_(False)):
        with pytest.raises(InstanceError, match="c must be a finite real"):
            TiltedStripInstance(**base, slope=flag)
    assert TiltedStripInstance(**base, slope=np.int64(0)).slope == 0.0
    assert TiltedStripInstance(**base, slope=np.float32(0.5)).slope == 0.5


def test_reduction_answers_do_not_depend_on_the_points_layout():
    # The reduction freezes the rotation's fresh array as it comes, the
    # F-ordered transpose of a (2, m) array, with no copy.  solve_core on it
    # equals solve_core on a C-ordered copy bit for bit.
    cases = [(wide_strip_instance(), strip_to_chebyshev), (tilted_line_instance(), tilted_to_scaled)]
    cases += [(random_instance("rectilinear_strip", 2, 40, 3), strip_to_chebyshev)]
    cases += [(random_instance("rectilinear_tilted", 2, 40, 3), tilted_to_scaled)]
    for inst, reduce in cases:
        core = reduce(inst)
        assert not core.points.flags.writeable and not core.points.flags.c_contiguous
        assert not core.diff_bounds.flags.writeable
        assert np.array_equal(core.points, rotate45(inst.points))
        copy = dataclasses.replace(core, points=np.ascontiguousarray(core.points))
        assert copy.points.flags.c_contiguous
        got, want = solve_core(core, rotate45=True), solve_core(copy, rotate45=True)
        for a, b in ((got.theta, want.theta), (got.generator, want.generator), (got.u_lo, want.u_lo), (got.u_hi, want.u_hi)):
            assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
        assert (got.transform.scale, got.transform.rotate45) == (want.transform.scale, want.transform.rotate45)


def test_reductions_reject_overflow_with_the_constructor_messages():
    # The rotation and the doubled strip ends can overflow data that the
    # plane instance accepted; the core instance rejects it with the messages
    # of the core constructor, whether reduced alone or inside solve.
    base = dict(weights=[1.0], addends=[0.0], box_lo=[-8.0, -8.0], box_hi=[8.0, 8.0])
    far = dict(base, points=[[1e308, 1e308]], strip_lo=0.0, strip_hi=1.0)
    with np.errstate(over="ignore"):
        strip, tilted = StripInstance(**far), TiltedStripInstance(**far, slope=2.0)
        for inst, reduce in ((strip, strip_to_chebyshev), (tilted, tilted_to_scaled)):
            for call in (reduce, solve):
                with pytest.raises(InstanceError, match=r"^points\[0\]\[0\] must be finite$"):
                    call(inst)
        wide = StripInstance(**base, points=[[0.0, 0.0]], strip_lo=1e308, strip_hi=1e308)
        for call in (strip_to_chebyshev, solve):
            with pytest.raises(InstanceError, match=r"^B\[0\]\[1\] must be real or absent$"):
                call(wide)


@pytest.mark.parametrize("cls, reduce, extra", [(StripInstance, strip_to_chebyshev, {}), (TiltedStripInstance, tilted_to_scaled, {"slope": 0.0})])
def test_points_that_rotate_beyond_the_float_range_are_rejected_quietly(cls, reduce, extra):
    # x1 + x2 = 3e308 overflows.  The reduction rejects the point with the
    # constructor's message and no overflow warning before it, through
    # every entry point that reduces.  Points as large whose rotation stays
    # finite keep the plain formula's bits.
    base = dict(weights=[1.0], addends=[0.0], box_lo=[-1.0, -1.0], box_hi=[1.0, 1.0], strip_lo=0.0, strip_hi=1.0, **extra)
    inst = cls(points=[[1.5e308, 1.5e308]], **base)
    near = np.array([[1e308, -1e307], [0.5, 5e-324]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (reduce, solve, check_feasibility):
            with pytest.raises(InstanceError, match=r"^points\[0\]\[0\] must be finite$"):
                call(inst)
        points = reduce(cls(points=near, **dict(base, weights=[1.0, 1.0], addends=[0.0, 0.0]))).points
    plain = np.array([[x1 + x2, x2 - x1] for x1, x2 in near.tolist()])
    assert np.array_equal(points.view(np.int64), plain.view(np.int64))


def test_constructors_reject_ints_beyond_the_float_range():
    # 10**400 in any array field or strip end or slope is an InstanceError,
    # as every other bad value is, and not float()'s OverflowError.
    plane = dict(points=[[0.0, 0.0]], weights=[1.0], addends=[0.0], caps=[4.0], box_lo=[-8.0, -8.0], box_hi=[8.0, 8.0])
    huge = 10**400
    arrays = dict(points=[[0.0, huge]], weights=[huge], addends=[-huge], caps=[huge], box_lo=[-huge, 0.0], box_hi=[huge, 0.0])
    arrays.update(diff_bounds=[[BOTTOM, huge], [BOTTOM, BOTTOM]], scale=[1.0, huge])
    hints = dict(box_lo="lower", box_hi="upper", diff_bounds="B", scale="c")
    for name, value in arrays.items():
        fields = {**plane, "diff_bounds": [[BOTTOM] * 2] * 2, "scale": [1.0, 1.0], name: value}
        with pytest.raises(InstanceError, match=rf"^{hints.get(name, name)} must be numeric: int too large"):
            ScaledChebyshevInstance(**fields)
    for name, label in (("strip_lo", "a"), ("strip_hi", "b"), ("slope", "c")):
        for value in (huge, -huge):
            fields = {**plane, "strip_lo": -1.0, "strip_hi": 1.0, "slope": 2.0, name: value}
            with pytest.raises(InstanceError, match=rf"^{label} must be a finite real$"):
                TiltedStripInstance(**fields)


def test_degenerate_strip_pinned_solution():
    # strip a = b = 0 forces x1 = 0; unique optimum (0, 0) at value 4
    inst = degenerate_strip_instance()
    box = solve_strip(inst)
    assert box.theta == 4.0
    assert np.array_equal(box.vertex_lo, np.array([0.0, 0.0]))
    assert np.array_equal(box.vertex_hi, np.array([0.0, 0.0]))
    # the parameter interval may be fat even when its image is one point
    assert is_member(box, inst, [0.0, 0.0])
    assert not is_member(box, inst, [0.0, 1.0])
    assert verify(box, inst, 6, seed=3).passed


def test_wide_strip_pinned_solution():
    inst = wide_strip_instance()
    box = solve_strip(inst)
    assert box.theta == 2.0
    assert is_member(box, inst, [1.0, 1.0])
    assert verify(box, inst, 10, seed=7).passed
    rep = check_feasibility(inst)
    assert rep.feasible


def test_tilted_line_pinned_solution():
    # band 0 <= 2*x1 - x2 <= 0 pins the line x2 = 2*x1; optimum (1, 2)
    inst = tilted_line_instance()
    box = solve_tilted(inst)
    assert box.theta == 3.0
    assert np.array_equal(box.vertex_lo, np.array([1.0, 2.0]))
    assert np.array_equal(box.vertex_hi, np.array([1.0, 2.0]))
    assert is_member(box, inst, [1.0, 2.0])
    assert not is_member(box, inst, [0.0, 0.0])
    assert verify(box, inst, 5, seed=1).passed


def test_tilted_members_satisfy_band():
    inst = tilted_line_instance()
    box = solve_tilted(inst)
    x = box.member(box.u_lo)
    c = inst.slope
    assert inst.strip_lo - 1e-12 <= c * x[0] - x[1] <= inst.strip_hi + 1e-12


def test_tilted_scaled_reduction_scale():
    inst = tilted_line_instance()
    scaled = tilted_to_scaled(inst)
    assert np.array_equal(scaled.scale, np.array([inst.slope - 1.0, inst.slope + 1.0]))


def test_solve_strip_rejects_tilted():
    with pytest.raises(TypeError):
        solve_strip(tilted_line_instance())
    with pytest.raises(TypeError):
        solve_tilted(wide_strip_instance())


def test_nonbinding_band_matches_plain_strip():
    # a slack band around slope 3 changes nothing; the optimal value agrees
    # with the unconstrained strip formulation
    pts = [[0.0, 0.0], [2.0, 2.0], [-1.0, 3.0]]
    common = dict(
        points=pts,
        weights=[1.0, 1.0, 1.0],
        addends=[0.0, 0.0, 0.0],
        box_lo=[-50.0, -50.0],
        box_hi=[50.0, 50.0],
    )
    tilted = TiltedStripInstance(**common, strip_lo=-500.0, strip_hi=500.0, slope=3.0)
    plain = StripInstance(**common, strip_lo=-500.0, strip_hi=500.0)
    bt = solve_tilted(tilted)
    bp = solve_strip(plain)
    assert bt.theta == pytest.approx(bp.theta, abs=1e-9)
    assert verify(bt, tilted, 10, seed=2).passed
    assert verify(bp, plain, 10, seed=2).passed


def test_infeasible_strip_reports_bounds_cause():
    # strip [5, 6] against a rotated box that forces x1 <= 0
    inst = StripInstance(
        points=[[0.0, 0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-4.0, 0.0],
        box_hi=[0.0, 4.0],  # x1 + x2 <= 0 and x2 - x1 >= 0 imply x1 <= 0
        strip_lo=5.0,
        strip_hi=6.0,
    )
    rep = check_feasibility(inst)
    assert not rep.feasible
    out = solve_strip(inst)
    assert out.cause in ("spectral", "bounds")


def _far(cls, strip_lo, strip_hi, points=((1.5e308, 0.0),), **extra):
    # One client near the float range in a box that spans almost all of it.
    return cls(points=list(points), weights=[1.0] * len(points), addends=[0.0] * len(points),
               box_lo=[-1.7e308, -1.7e308], box_hi=[1.7e308, 1.7e308], strip_lo=strip_lo, strip_hi=strip_hi, **extra)


@pytest.mark.parametrize("ends, entry", [((0.0, 1e308), r"B\[1\]\[0\]"), ((-1e308, 0.0), r"B\[0\]\[1\]")])
@pytest.mark.parametrize("cls, reduce, extra", [(StripInstance, strip_to_chebyshev, {}), (TiltedStripInstance, tilted_to_scaled, {"slope": 0.0})])
def test_reductions_reject_strip_ends_that_double_beyond_the_float_range(ends, entry, cls, reduce, extra):
    # 2a and -2b are the bounds of the rotated instance.  An end that doubles
    # to -inf would read as no bound: the strip [0, 1e308] would lose its
    # right side, and the client at x1 = 1.5e308 would be served where it
    # stands, at theta = 0, outside the strip.
    inst = _far(cls, *ends, **extra)
    for call in (reduce, solve):
        with pytest.raises(InstanceError, match=rf"^{entry} must be real or absent$"):
            call(inst)


def test_a_pair_term_that_overflows_keeps_a_float_optimum():
    # One client an ulp above max/2 on the x1 axis, the strip x1 = 0 and a
    # box of reach max/2 around the origin: the optimum is (0, 0) at the
    # client's distance.  Its rotated coordinates are (h, -h), so the pair
    # term's x = b - cp_ij + cp_kl is 2h, beyond the float range; the term is
    # evaluated again on halved lengths, and theta is that float, not inf.
    half = np.finfo(np.float64).max / 2
    p = np.nextafter(half, np.inf)
    inst = StripInstance(points=[[p, 0.0]], weights=[1.0], addends=[0.0], box_lo=[-half, -half], box_hi=[half, half],
                         strip_lo=0.0, strip_hi=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        box = solve(inst)
    assert box.theta == p
    assert np.array_equal(box.vertex_lo, [0.0, 0.0]) and np.array_equal(box.vertex_hi, [0.0, 0.0])


@pytest.mark.parametrize("cls, extra, member", [(TiltedStripInstance, {"slope": 0.0}, (1e308, 0.0)), (StripInstance, {}, (0.0, 1.5e308))])
def test_members_near_the_float_range_rotate_back_finite(cls, extra, member):
    # The client is served where it stands, inside the band -1 <= x2 <= 1 or
    # the strip -1 <= x1 <= 1.  Its rotated coordinates are each within the
    # float range, but their difference (the band) or sum (the strip) is
    # not: the rotation back halves them first, and returns the member itself.
    inst = _far(cls, -1.0, 1.0, [member], **extra)
    box = solve(inst)
    assert box.theta == 0.0
    members = sample(box, 4)
    assert np.array_equal(members, np.tile(member, (4, 1)))
    assert verify(box, inst, 4).passed


def test_unrotate45_keeps_the_plain_formula_bits():
    # Where (y1 - y2) / 2 and (y1 + y2) / 2 are finite, the rotation back
    # gives their bits, also beside a row that must be halved first; a
    # subnormal survives the round trip, which halving first would lose.
    tiny = np.array([5e-324, 0.0])
    assert np.array_equal(unrotate45(rotate45(tiny)), tiny)
    rng = np.random.default_rng(7)
    scales = 2.0 ** rng.integers(-1074, 1023, (400, 1))
    ys = rng.uniform(-2.0, 2.0, (400, 2)) * scales
    ys[:8] = [[5e-324, -5e-324], [1.7e308, -1.7e308], [1.7e308, 1.7e308], [-1e308, 1e308], [1e308, 5e-324], [3e-323, 0.0], [2.0**1022, -(2.0**1022)], [8e307, -9e307]]
    with np.errstate(over="ignore"):
        plain = np.array([(ys[:, 0] - ys[:, 1]) / 2.0, (ys[:, 0] + ys[:, 1]) / 2.0]).T
    got = unrotate45(ys)
    finite = np.isfinite(plain)
    assert np.array_equal(got[finite], plain[finite])
    assert np.isfinite(got).all() and not finite.all()
    for y, want in zip(ys, got):
        assert np.array_equal(unrotate45(y), want)


_HALF = np.finfo(np.float64).max / 2
# A coordinate or strip end beyond half the float range, of either sign, or a small one.
_edge = st.one_of(st.floats(_HALF, 1.79e308), st.floats(-1.79e308, -_HALF), st.integers(-8, 8).map(float))


@settings(max_examples=300, deadline=None)
@given(
    tilted=st.booleans(),
    first=st.tuples(_edge, _edge),
    spread=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=2),
    ends=st.tuples(_edge, _edge),
    slope=st.sampled_from([0.0, 2.0, -3.0, 0.5]),
    reach=st.one_of(st.floats(0.0, _HALF), st.integers(0, 8).map(float)),
)
# A pair term whose x = b - cp_ij + cp_kl overflows though theta is a float,
# 8.988465674311578e307; it once came out inf.
@example(tilted=True, first=(_HALF, 0.0), spread=[], ends=(_HALF, _HALF), slope=0.0, reach=_HALF)
def test_plane_instances_at_the_edge_of_the_float_range(tilted, first, spread, ends, slope, reach):
    # m = 1 to 3 clients close together, the others a few ulps from the
    # first, in a box of the given reach around the first (in rotated
    # coordinates): every member is within reach of it, so the optimum stays
    # a float.  The reduction rejects the instance or keeps both strip
    # bounds; the solve rejects it, proves it infeasible, or answers with
    # finite members.  The property is about the answers: sums that overflow
    # on the way (the rotation of a point that is then rejected, a
    # bottom-like sum in a product) are quiet here, as in the overflow test
    # above.
    points = [first] + [tuple(np.array(first) + np.spacing(np.array(first)) * d) for d in spread]
    a, b = sorted(ends)
    cls, reduce, extra = (TiltedStripInstance, tilted_to_scaled, {"slope": slope}) if tilted else (StripInstance, strip_to_chebyshev, {})
    with np.errstate(over="ignore"):
        centre = rotate45(np.array(first))
        try:
            inst = cls(points=points, weights=[1.0] * len(points), addends=[0.0] * len(points),
                       box_lo=centre - reach, box_hi=centre + reach, strip_lo=a, strip_hi=b, **extra)
        except InstanceError:
            return  # the box reaches beyond the float range
        try:
            core = reduce(inst)
        except InstanceError:
            pass
        else:
            assert np.isfinite(core.diff_bounds[0, 1]) and np.isfinite(core.diff_bounds[1, 0])
        try:
            result = solve(inst)
        except InstanceError:
            return
        if not isinstance(result, Infeasible):
            assert np.isfinite(result.theta)
            assert np.isfinite(sample(result, 3)).all()
