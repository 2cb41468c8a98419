"""Objective replay, constraint violations, membership, sampling, verify."""

import dataclasses
import warnings

import numpy as np
import pytest

from support import (
    tilted_line_instance,
    two_point_instance,
    wide_strip_instance,
)
from tropiloc import (
    ScaledChebyshevInstance,
    SolutionBox,
    StripInstance,
    Transform,
    constraint_violation,
    is_member,
    objective_value,
    random_instance,
    sample,
    solve,
    solve_particular,
    solve_scaled,
    solve_strip,
    solve_tilted,
    verify,
)
from tropiloc.errors import DimensionError, DomainError
from tropiloc.linear import Infeasible, parameter_upper_bound
from tropiloc.semiring import BOTTOM, mat_vec, trace_and_closure
from tropiloc.solutions import MEMBERSHIP_ATOL, objective_batch, violation_batch
from tropiloc.variants import lookup

VARIANTS = ("chebyshev", "chebyshev_scaled", "rectilinear_strip", "rectilinear_tilted")


def test_objective_values_two_point():
    inst = two_point_instance()
    assert objective_value(inst, [2.0, 0.0]) == 2.0
    assert objective_value(inst, [2.0, 2.0]) == 2.0
    assert objective_value(inst, [0.0, 0.0]) == 4.0


def test_objective_batch_matches_scalar():
    inst = two_point_instance()
    xs = np.array([[2.0, 0.0], [2.0, 2.0], [0.0, 0.0], [-1.0, 3.0]])
    batch = objective_batch(inst, xs)
    assert batch.shape == (4,)
    for row, val in zip(xs, batch):
        assert objective_value(inst, row) == val


def test_objective_rectilinear_uses_d1():
    inst = wide_strip_instance()
    # d1((1,1),(0,0)) = 2, d1((1,1),(2,2)) = 2
    assert objective_value(inst, [1.0, 1.0]) == 2.0
    assert objective_value(inst, [0.0, 0.0]) == 4.0


def test_constraint_violation_box_and_caps():
    inst = two_point_instance()
    assert constraint_violation(inst, [0.0, 0.0]) <= 0.0
    assert constraint_violation(inst, [11.0, 0.0]) == 1.0  # box overshoot
    assert constraint_violation(inst, [0.0, -12.5]) == 2.5
    # caps are 10; standing 11 away from point 2 violates its cap by 1
    assert constraint_violation(inst, [-7.0, 0.0]) == 1.0


def test_constraint_violation_diff_bounds():
    from tropiloc import ChebyshevInstance

    inst = ChebyshevInstance(
        points=[[0.0, 0.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-10.0, -10.0],
        box_hi=[10.0, 10.0],
        diff_bounds=[[BOTTOM, 3.0], [BOTTOM, BOTTOM]],  # x1 >= 3 + x2
    )
    assert constraint_violation(inst, [5.0, 1.0]) <= 0.0
    assert constraint_violation(inst, [2.0, 1.0]) == 2.0  # short by 2
    # a point at infinity is outside the box by inf, though bottom + inf is nan
    assert constraint_violation(inst, [np.inf, 0.0]) == np.inf


def test_constraint_violation_strip_band():
    inst = wide_strip_instance()
    a, b = inst.strip_lo, inst.strip_hi
    inside = [(a + b) / 2.0, 0.0]
    assert constraint_violation(inst, inside) <= 0.0
    assert constraint_violation(inst, [b + 0.5, 0.0]) == 0.5

    tilted = tilted_line_instance()
    # band is 0 <= 2 x1 - x2 <= 0; at (1, 0) the band term is 2
    assert constraint_violation(tilted, [1.0, 2.0]) <= 0.0
    assert constraint_violation(tilted, [1.0, 0.0]) == 2.0


def test_constraint_violation_scaled_coordinates():
    # scale enters through the difference bounds, which act on y = c * x;
    # caps and objective use the plain distance in original coordinates
    inst = ScaledChebyshevInstance(
        points=[[0.0, 0.0]],
        weights=[1.0],
        addends=[0.0],
        caps=[2.0],
        box_lo=[-3.0, -3.0],
        box_hi=[3.0, 3.0],
        diff_bounds=[[BOTTOM, 0.0], [BOTTOM, BOTTOM]],  # y1 >= y2
        scale=[-2.0, 1.0],
    )
    assert constraint_violation(inst, [-1.0, 1.0]) <= 0.0  # y = (2, 1)
    assert constraint_violation(inst, [1.0, 1.0]) == 3.0  # y = (-2, 1)
    assert constraint_violation(inst, [-1.5, -3.0]) == 1.0  # cap overshoot
    assert objective_value(inst, [-1.0, 1.0]) == 1.0


def test_membership_two_point():
    inst = two_point_instance()
    box = solve_particular(inst)
    for x in sample(box, 8, seed=11):
        assert is_member(box, inst, x)
    assert not is_member(box, inst, [2.5, 0.0])
    assert not is_member(box, inst, [1.0, 0.0])


def test_membership_checks_dimensions():
    inst = two_point_instance()
    box = solve_particular(inst)
    with pytest.raises(DimensionError):
        is_member(box, inst, [1.0, 2.0, 3.0])


def test_sample_vertices_first_and_deterministic():
    inst = two_point_instance()
    box = solve_particular(inst)
    one = sample(box, 1, seed=4)
    assert one.shape == (1, 2)
    assert np.array_equal(one[0], box.vertex_lo)
    two = sample(box, 2, seed=4)
    assert np.array_equal(two[1], box.vertex_hi)
    a = sample(box, 7, seed=9)
    b = sample(box, 7, seed=9)
    assert np.array_equal(a, b)
    c = sample(box, 7, seed=10)
    assert not np.array_equal(a, c)
    with pytest.raises(DomainError):
        sample(box, 0)


def test_sample_rejects_a_crossed_box():
    # A box built by hand whose u_lo exceeds u_hi on one axis has no member.
    box = solve_particular(two_point_instance())
    crossed = dataclasses.replace(box, u_lo=box.u_hi + np.array([0.0, 1.0]), u_hi=box.u_lo)
    with pytest.raises(DomainError, match="^cannot sample from an empty box$"):
        sample(crossed, 3)


def test_sample_rows_are_members_bit_for_bit():
    # sample forms its members in one max-plus product over the parameter
    # rows and maps them back through one transform; each row is member() of
    # the same draw, bit for bit.  At n = 40, 700 rows take two chunks.
    variants = ("chebyshev_scaled", "rectilinear_strip", "rectilinear_tilted")
    cases = [(random_instance(v, 2, 5, seed), 9) for v in variants for seed in range(4)]
    cases += [(two_point_instance(), 9), (random_instance("chebyshev", 40, 3, 1), 700)]
    for inst, k in cases:
        box = solve(inst)
        draws = np.random.default_rng(5).random((k - 2, box.u_lo.shape[0]))
        us = [box.u_lo, box.u_hi, *(box.u_lo + draws * (box.u_hi - box.u_lo))]
        want = np.array([box.member(u) for u in us])
        assert sample(box, k, seed=5).tobytes() == want.tobytes()
        assert sample(box, 1, seed=5).tobytes() == want[:1].tobytes()


def test_to_original_maps_rows():
    ys = np.array([[4.0, -2.0], [1.0, 3.0], [-0.5, 0.25]])
    for transform in (Transform(), Transform((2.0, -4.0)), Transform(None, True), Transform((3.0, 0.5), True)):
        rows = transform.to_original(ys)
        assert rows.tobytes() == np.array([transform.to_original(y) for y in ys]).tobytes()
    for bad in (np.zeros((3, 3)), np.zeros((2, 2, 2)), np.zeros(3)):
        with pytest.raises(DimensionError):
            Transform(None, True).to_original(bad)


def test_sampled_points_are_members_across_variants():
    cases = [
        (two_point_instance(), solve_particular),
        (wide_strip_instance(), solve_strip),
        (tilted_line_instance(), solve_tilted),
    ]
    for inst, solver in cases:
        box = solver(inst)
        for x in sample(box, 9, seed=2):
            assert is_member(box, inst, x)
            assert constraint_violation(inst, x) <= 1e-12


def test_verify_report_fields():
    inst = two_point_instance()
    box = solve_particular(inst)
    rep = verify(box, inst, 10, seed=0)
    assert rep.passed
    assert rep.checked_count == 10
    assert rep.max_objective_deviation <= 1e-9
    assert rep.max_constraint_violation <= 1e-12


def test_verify_catches_tampered_theta():
    inst = two_point_instance()
    box = solve_particular(inst)
    forged = dataclasses.replace(box, theta=box.theta + 0.1)
    rep = verify(forged, inst, 10, seed=0)
    assert not rep.passed
    assert rep.max_objective_deviation >= 0.1 - 1e-12


def test_verify_catches_shifted_box():
    inst = two_point_instance()
    box = solve_particular(inst)
    forged = dataclasses.replace(box, u_lo=box.u_lo + 5.0, u_hi=box.u_hi + 5.0)
    rep = verify(forged, inst, 10, seed=0)
    assert not rep.passed


def test_violation_batch_shape():
    inst = wide_strip_instance()
    xs = np.array([[1.0, 1.0], [150.0, 0.0]])
    v = violation_batch(inst, xs)
    assert v.shape == (2,)
    assert v[0] <= 0.0 and v[1] == 50.0  # strip and rotated box overshoot


def _violation_per_entry(inst, xs):
    # violation_batch of a Chebyshev instance as a literal loop over every
    # finite difference bound B[i, k]: B[i, k] + c_k x_k - c_i x_i.
    dist = np.abs(xs[:, None, :] - inst.points[None, :, :]).max(axis=2)
    worst = np.full(xs.shape[0], -np.inf)
    if inst.caps is not None:
        worst = np.maximum(worst, np.max(dist - inst.caps[None, :], axis=1))
    worst = np.maximum(worst, np.max(inst.box_lo[None, :] - xs, axis=1))
    worst = np.maximum(worst, np.max(xs - inst.box_hi[None, :], axis=1))
    y = xs * (inst.scale if isinstance(inst, ScaledChebyshevInstance) else 1.0)
    for i, k in np.argwhere(inst.diff_bounds > BOTTOM):
        worst = np.maximum(worst, inst.diff_bounds[i, k] + y[:, k] - y[:, i])
    return worst


def test_violation_batch_replays_bounds_bit_for_bit():
    # The replay takes max_i (B (x) y)_i - y_i in one max-plus product; it
    # must give the per-entry loop's bits, also on non-dyadic large data and
    # on instances whose B is all bottom.
    rng = np.random.default_rng(5)
    cases = bottom = 0
    for variant in ("chebyshev", "chebyshev_scaled"):
        for seed in range(40):
            base = random_instance(variant, 1 + seed % 6, 2 + seed % 5, seed)
            for f in (1.0, 1e6 + 0.3, 1e9 + 0.3):
                inst = dataclasses.replace(
                    base,
                    points=base.points * f,
                    addends=base.addends * f,
                    caps=None if base.caps is None else base.caps * f,
                    box_lo=base.box_lo * f,
                    box_hi=base.box_hi * f,
                    diff_bounds=base.diff_bounds * f,
                )
                xs = rng.normal(size=(12, inst.dim)) * 3.0 * f
                got = violation_batch(inst, xs)
                assert np.array_equal(got.view(np.int64), _violation_per_entry(inst, xs).view(np.int64))
                cases += 1
                bottom += not np.isfinite(inst.diff_bounds).any()
    assert cases == 240 and 0 < bottom < cases


def _rescaled(inst, magnitude: float):
    # Every length times one factor that maps the largest datum to magnitude.
    lengths = ["points", "addends", "box_lo", "box_hi"] + (["caps"] if inst.caps is not None else [])
    lengths += ["strip_lo", "strip_hi"] if isinstance(inst, StripInstance) else ["diff_bounds"]
    data = np.concatenate([np.ravel(getattr(inst, name)) for name in lengths])
    f = magnitude / np.max(np.abs(data[np.isfinite(data)]))
    return dataclasses.replace(inst, **{name: getattr(inst, name) * f for name in lengths})


def _upper_bound_rule(box, inst, x) -> bool:
    # Membership by the largest parameter below y, (y~ B*)~, clipped to u_hi:
    # it must still dominate u_lo and reproduce y.
    star = trace_and_closure(lookup(inst).reduce(inst).diff_bounds)[1]
    y = box.transform.to_internal(x)
    u = np.minimum(parameter_upper_bound(star, y), box.u_hi)
    return bool(np.all(u >= box.u_lo - MEMBERSHIP_ATOL)) and bool(np.max(np.abs(mat_vec(star, u) - y)) <= MEMBERSHIP_ATOL)


def test_is_member_is_the_upper_bound_rule():
    # Every member is its own parameter, so is_member clips y itself instead
    # of its largest parameter; both rules give the same answers on members,
    # on members moved by less and by more than the tolerance, and on n >= 42
    # where the box's products iterate on B.
    answers = {True: 0, False: 0}
    wide = 0
    for variant in VARIANTS:
        for seed in range(0, 42, 3):
            n = 2 if variant.startswith("rect") else 1 + seed % 5 + (45 if seed % 7 == 0 else 0)
            for magnitude in (1.0, 1.37):
                inst = _rescaled(random_instance(variant, n, 2 + seed % 9, seed), magnitude)
                box = solve(inst)
                if isinstance(box, Infeasible):
                    continue
                wide += box._star.closure is None
                members = sample(box, 6, seed)
                rng = np.random.default_rng(seed)
                points = list(members)
                for s in (1e-12, 1e-6, 0.1):
                    points += [x + rng.normal(size=x.shape) * s * max(1.0, np.max(np.abs(x))) for x in members[:3]]
                for x in points:
                    got = is_member(box, inst, x)
                    assert got == _upper_bound_rule(box, inst, x), (variant, seed, magnitude, x)
                    answers[got] += 1
    assert wide >= 4 and min(answers.values()) >= 200, (wide, answers)


def test_finite_points_whose_scaled_coordinates_overflow_do_not_warn():
    # c x can overflow to inf for a finite x, and B (x) y - y then meets
    # bottom + inf or inf - inf.  The violation is the box term's, or inf
    # where the bounds term itself passes the largest float, without a
    # warning, and the other rows of the batch keep their bits.
    assert constraint_violation(random_instance("chebyshev_scaled", 2, 3, 0), [1.7e308, 0.0]) == 1.7e308
    far = np.array([[1.7e308, 0.0], [0.0, -1.7e308], [1.79e308, -1.79e308]])
    for variant in ("chebyshev", "chebyshev_scaled"):
        for seed in range(3):
            inst = random_instance(variant, 2, 3, seed)
            near = inst.points + 0.5
            got = violation_batch(inst, np.vstack([far, near]))
            assert np.all(got[: len(far)] >= 1.7e308), (variant, seed)
            assert got[len(far):].tobytes() == violation_batch(inst, near).tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_infinite_coordinates_violate_by_inf(variant):
    # The box is finite, so a point with an infinite coordinate violates it
    # by +inf, whatever inf - inf (an infinite cap against the infinite
    # distance) or 0 * inf (a flat band) would make of the other terms; a nan
    # point is nan, finite rows keep their bits, and nothing warns.
    for seed in range(30):
        inst = random_instance(variant, 2 if variant.startswith("rect") else 1 + seed % 5, 4, seed)
        box = solve(inst)
        finite = inst.points + 0.5
        far = []
        for i in range(inst.dim):
            for inf in (np.inf, -np.inf):
                x = inst.points[0].copy()
                x[i] = inf
                far.append(x)
                assert constraint_violation(inst, x) == np.inf
                assert isinstance(box, Infeasible) or not is_member(box, inst, x)
        nan = np.full(inst.dim, np.nan)
        got = violation_batch(inst, np.vstack([finite[:1], *far, nan, finite[1:]]))
        assert np.all(got[1:-len(finite)] == np.inf)
        assert np.isnan(got[-len(finite)])
        want = violation_batch(inst, finite)
        assert np.concatenate([got[:1], got[-len(finite) + 1:]]).tobytes() == want.tobytes()


def test_a_point_is_one_row():
    # A single row of shape (1, n) is a point; two rows are not, where
    # objective_value and constraint_violation answered for the first row
    # and is_member accepted a far point behind a member.
    inst = two_point_instance()
    box = solve_particular(inst)
    member = box.vertex_lo
    far = np.array([50.0, -50.0])
    for fn in (objective_value, constraint_violation):
        assert fn(inst, member[None, :]) == fn(inst, member)
        with pytest.raises(DimensionError, match=r"point of dimension 2 expected, got shape \(2, 2\)"):
            fn(inst, [member, far])
    assert is_member(box, inst, member[None, :])
    with pytest.raises(DimensionError, match=r"point of dimension 2 expected, got shape \(2, 2\)"):
        is_member(box, inst, [member, far])


def test_sampling_a_box_near_the_float_maximum_warns_nothing():
    # B*[1][0] = -2b = -1.6e308 beside u_0 near -8e307: their sum leaves the
    # float range.  The members product, as the solve's own, passes over the
    # -inf it rounds to with overflow quiet, on the solve's box and on a box
    # built by hand from its generator.
    big = 4e307
    inst = StripInstance(
        points=[[-big, -big], [-big, -big + 1e293]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=[-2 * big, -2 * big],
        box_hi=[2 * big, 2 * big],
        strip_lo=-2 * big,
        strip_hi=2 * big,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        box = solve_strip(inst)
        assert float(box.u_lo[0]) + float(box.generator[1, 0]) == -np.inf
        members = sample(box, 6, seed=1)
        assert is_member(box, inst, members[0])
        by_hand = SolutionBox(box.theta, box.generator, box.u_lo, box.u_hi, box.transform)
        assert np.array_equal(sample(by_hand, 6, seed=1), members)
    assert np.all(np.isfinite(members))
