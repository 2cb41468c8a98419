"""Chebyshev location solver: bounds, certificates, theta, solution boxes."""

import dataclasses

import numpy as np
import pytest

from support import (
    B2,
    clipped_variant_instance,
    nonpos_cycle_matrix,
    tight_caps_instance,
    two_point_instance,
)
from tropiloc import (
    ChebyshevInstance,
    ScaledChebyshevInstance,
    assemble_bounds,
    check_feasibility,
    compute_theta,
    compute_theta_scaled,
    is_member,
    solve_particular,
    solve_scaled,
    verify,
)
from tropiloc import chebyshev
from tropiloc.errors import ContractViolationError, InstanceError
from tropiloc.linear import Infeasible
from tropiloc.semiring import BOTTOM


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
    scaled = ScaledChebyshevInstance(
        points=[[0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-1.0],
        box_hi=[1.0],
        diff_bounds=np.full((1, 1), BOTTOM),
        scale=[2.0],
    )
    with pytest.raises(TypeError):
        solve_particular(scaled)
    with pytest.raises(TypeError):
        compute_theta(scaled)
    with pytest.raises(TypeError):
        solve_scaled(two_point_instance())
    with pytest.raises(TypeError):
        compute_theta_scaled(two_point_instance())


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


@pytest.mark.parametrize("dyadic_data", [True, False], ids=["dyadic", "non-dyadic"])
def test_unit_magnitude_scale_theta_matches_scaled_loop(dyadic_data):
    # With every |c_i| = 1 the solver evaluates theta with the dense plain
    # kernel on c * p; it must equal the per-entry scaled loop bit for bit.
    rng = np.random.default_rng(5 if dyadic_data else 6)

    def data(shape, lo, hi):
        x = rng.uniform(lo, hi, shape)
        return np.round(x * 8.0) / 8.0 if dyadic_data else x

    checked = 0
    for _ in range(80):
        m, n = int(rng.integers(1, 25)), int(rng.integers(1, 5))
        pts = data((m, n), -10.0, 10.0)
        inst = ScaledChebyshevInstance(
            points=pts,
            weights=rng.choice([0.5, 1.0, 2.0, 4.0], m) if dyadic_data else rng.uniform(0.3, 3.0, m),
            addends=data(m, -3.0, 3.0),
            caps=None if rng.random() < 0.3 else data(m, 15.0, 40.0),
            box_lo=pts.min(axis=0) - data(n, 1.0, 5.0),
            box_hi=pts.max(axis=0) + data(n, 1.0, 5.0),
            diff_bounds=nonpos_cycle_matrix(rng, n) * (1.0 if dyadic_data else 1.1),
            scale=rng.choice([-1.0, 1.0], n),
        )
        report, star, bounds = chebyshev._certificates(inst)
        if not report.feasible:
            continue
        loop = chebyshev._theta_scaled(
            inst.scale * inst.points, np.abs(inst.scale), inst.weights, inst.addends,
            star, bounds.fixed_lo, bounds.fixed_hi,
        )
        assert compute_theta_scaled(inst) == loop
        assert solve_scaled(inst).theta == loop
        checked += 1
    assert checked >= 50


def test_instances_are_frozen():
    inst = two_point_instance()
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.weights = np.array([2.0, 2.0])
    with pytest.raises(ValueError):
        inst.points[0, 0] = 5.0
