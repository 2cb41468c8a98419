"""Plane variants: rotation isometry, strip reductions, frozen examples."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import (
    degenerate_strip_instance,
    tilted_line_instance,
    wide_strip_instance,
)
from tropiloc import (
    StripInstance,
    TiltedStripInstance,
    check_feasibility,
    is_member,
    rotate,
    solve_strip,
    solve_tilted,
    strip_to_chebyshev,
    tilted_to_scaled,
    verify,
)
from tropiloc.errors import DimensionError, InstanceError
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
