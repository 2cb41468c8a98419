"""Max-plus kernel tests: axioms, conjugation, trace, closure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import closure_reference, dyadic_with_bottom, nonpos_cycle_matrix
import tropiloc
from tropiloc import ChebyshevInstance, cli, emit_instance, semiring
from tropiloc.errors import DimensionError, DomainError
from tropiloc.linear import Infeasible, solve_double, solve_fixed_point
from tropiloc.semiring import (
    BOTTOM,
    ONE,
    as_matrix,
    as_vector,
    conjugate_transpose,
    d1,
    dinf,
    identity,
    is_bottom,
    is_regular,
    mat_add,
    mat_mul,
    mat_vec,
    power_closure,
    power_trace,
    scalar_add,
    scalar_inv,
    scalar_mul,
    scalar_pow,
    trace,
    trace_and_closure,
    vec_dot,
    vec_mat,
)

finite = st.integers(-(2**20), 2**20).map(lambda k: k / 8.0)
scalars = st.one_of(st.just(BOTTOM), finite)


@given(scalars, scalars, scalars)
def test_addition_axioms(x, y, z):
    assert scalar_add(x, y) == scalar_add(y, x)
    assert scalar_add(scalar_add(x, y), z) == scalar_add(x, scalar_add(y, z))
    assert scalar_add(x, x) == x
    assert scalar_add(x, BOTTOM) == x


@given(scalars, scalars, scalars)
def test_multiplication_axioms(x, y, z):
    assert scalar_mul(x, y) == scalar_mul(y, x)
    assert scalar_mul(scalar_mul(x, y), z) == scalar_mul(x, scalar_mul(y, z))
    assert scalar_mul(x, ONE) == x
    assert is_bottom(scalar_mul(x, BOTTOM))


@given(scalars, scalars, scalars)
def test_distributivity(x, y, z):
    left = scalar_mul(x, scalar_add(y, z))
    right = scalar_add(scalar_mul(x, y), scalar_mul(x, z))
    assert left == right


@given(finite)
def test_inverse_and_powers(x):
    assert scalar_mul(x, scalar_inv(x)) == ONE
    assert scalar_pow(x, 2.0) == 2.0 * x
    assert scalar_pow(x, -1.0) == scalar_inv(x)


def test_bottom_has_no_inverse():
    with pytest.raises(DomainError):
        scalar_inv(BOTTOM)
    assert is_bottom(scalar_pow(BOTTOM, 0.5))
    with pytest.raises(DomainError):
        scalar_pow(BOTTOM, 0.0)


def test_constructors_reject_non_elements():
    with pytest.raises(DomainError):
        as_vector([1.0, np.nan])
    with pytest.raises(DomainError):
        as_matrix([[np.inf]])
    with pytest.raises(DimensionError):
        as_vector([])
    with pytest.raises(DimensionError):
        as_vector([[1.0]])
    assert as_vector([1.0, BOTTOM])[1] == BOTTOM


matrices_3 = st.integers(0, 2**32 - 1).map(
    lambda s: dyadic_with_bottom(np.random.default_rng(s), (3, 3))
)


@settings(max_examples=60)
@given(matrices_3, matrices_3, matrices_3)
def test_matrix_algebra_identities(a, b, c):
    # dyadic entries keep every sum exact, so equality is legitimate
    assert np.array_equal(mat_mul(mat_mul(a, b), c), mat_mul(a, mat_mul(b, c)))
    assert np.array_equal(mat_mul(a, mat_add(b, c)), mat_add(mat_mul(a, b), mat_mul(a, c)))
    assert np.array_equal(mat_add(a, a), a)
    e = identity(3)
    assert np.array_equal(mat_mul(a, e), a)
    assert np.array_equal(mat_mul(e, a), a)


def test_product_examples():
    a = np.array([[BOTTOM, 2.0], [-2.0, BOTTOM]])
    sq = mat_mul(a, a)
    assert np.array_equal(sq, np.array([[0.0, BOTTOM], [BOTTOM, 0.0]]))
    assert vec_dot(np.array([-3.0, -3.0]), np.array([0.0, 2.0])) == -1.0


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
def test_mat_mul_is_its_definition(layout):
    # The max of the same rounded sums, whatever the operands' memory layout.
    rng = np.random.default_rng(17)
    shapes = [(1, 1, 1), (40, 40, 40), (1, 40, 1), (40, 1, 40)]
    shapes += [tuple(int(v) for v in rng.integers(1, 41, 3)) for _ in range(30)]
    for p, k, q in shapes:
        if layout == "transposed":
            a = dyadic_with_bottom(rng, (k, p)).T
            b = dyadic_with_bottom(rng, (q, k)).T
        else:
            a = dyadic_with_bottom(rng, (p, k))
            b = dyadic_with_bottom(rng, (k, q))
            if layout == "F":
                a, b = np.asfortranarray(a), np.asfortranarray(b)
        want = np.max(a[:, :, None] + b[None], axis=1)
        assert mat_mul(a, b).tobytes() == want.tobytes(), (p, k, q)


def test_mat_mul_runs_along_the_longer_output_axis():
    # Tall, wide and square products: every bit, signed zeros included,
    # matches the fold over k in the given orientation.
    rng = np.random.default_rng(23)
    for p, k, q in [(60, 3, 2), (2, 3, 60), (7, 9, 7), (300, 20, 1)]:
        a = rng.choice([0.0, -0.0, 0.5, -0.5, BOTTOM], size=(p, k))
        b = rng.choice([0.0, -0.0, 0.25, -0.25, BOTTOM], size=(k, q))
        fold = a[:, 0, None] + b[0]
        for kk in range(1, k):
            fold = np.maximum(fold, a[:, kk, None] + b[kk])
        out = mat_mul(a, b)
        assert out.shape == (p, q) and out.tobytes() == fold.tobytes(), (p, k, q)


def test_mat_mul_shape_guard():
    # An empty contraction has no max: k = 0 is rejected like a mismatch.
    for ashape, bshape in [((2, 0), (0, 3)), ((2, 3), (2, 3)), ((2,), (2, 2))]:
        with pytest.raises(DimensionError):
            mat_mul(np.zeros(ashape), np.zeros(bshape))


def test_mat_mul_memory_is_the_output_and_one_term():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1.0, 1.0, (1500, 2))
    b = rng.uniform(-1.0, 1.0, (2, 1500))
    tracemalloc.start()
    try:
        out = mat_mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * out.nbytes, peak / out.nbytes


def test_vector_matrix_agreement():
    rng = np.random.default_rng(7)
    a = dyadic_with_bottom(rng, (4, 4))
    x = dyadic_with_bottom(rng, 4, p_bottom=0.1)
    assert np.array_equal(mat_vec(a, x), mat_mul(a, x[:, None])[:, 0])
    assert np.array_equal(vec_mat(x, a), mat_mul(x[None, :], a)[0])


def test_conjugate():
    x = np.array([3.0, BOTTOM, -1.5])
    cx = conjugate_transpose(x)
    assert np.array_equal(cx, np.array([-3.0, BOTTOM, 1.5]))
    assert np.array_equal(conjugate_transpose(cx), x)
    assert vec_dot(conjugate_transpose(x), x) == ONE  # x regular in some entry
    with pytest.raises(DomainError):
        conjugate_transpose(np.array([BOTTOM, BOTTOM]))


def test_regular_conjugate_normalizes():
    x = np.array([2.0, -4.0, 0.5])
    assert is_regular(x)
    assert vec_dot(conjugate_transpose(x), x) == ONE


def test_trace_and_closure_2x2_example():
    a = np.array([[BOTTOM, 2.0], [-2.0, BOTTOM]])
    gauge, star = trace_and_closure(a)
    assert gauge == 0.0
    assert np.array_equal(star, np.array([[0.0, 2.0], [-2.0, 0.0]]))
    assert power_trace(a) == 0.0
    assert np.array_equal(power_closure(a), star)


def test_positive_cycle_has_no_closure():
    gauge, star = trace_and_closure(np.array([[1.0]]))
    # the diagonal is checked before the first pivot, so the entry itself is reported
    assert gauge == 1.0
    assert star is None
    g2, s2 = trace_and_closure(np.array([[BOTTOM, 3.0], [-1.0, BOTTOM]]))
    assert g2 == 2.0 and s2 is None


def test_spectral_verdict_matches_power_sum():
    # The relaxation's verdict agrees in sign with Tr, and on a positive cycle
    # the witness is a finite positive closed-walk weight.  Non-dyadic entries
    # come from a normal draw, so no cycle weight sits within rounding of 0.
    rng = np.random.default_rng(7)
    seen = {True: 0, False: 0}
    for trial in range(800):
        n = int(rng.integers(1, 9))
        if trial % 4 == 0:
            a = nonpos_cycle_matrix(rng, n)
        elif trial % 4 == 1:
            a = dyadic_with_bottom(rng, (n, n), p_bottom=0.5, limit=64) - 4.0
        else:
            a = rng.normal(-1.5 if trial % 4 == 2 else -4.0, 2.0, (n, n))
            a[rng.random((n, n)) < 0.5] = BOTTOM
        gauge, star = trace_and_closure(a)
        positive = power_trace(a) > 0.0
        assert (star is None) == positive
        if positive:
            assert np.isfinite(gauge) and gauge > 0.0
        seen[positive] += 1
    assert min(seen.values()) > 100, seen


def test_nan_entries_get_no_closure():
    # Both oracles of Tr propagate NaN.
    nan = float("nan")
    for a in ([[nan]], [[-1.0, nan], [-1.0, -1.0]], [[0.0, nan], [BOTTOM, 0.0]]):
        gauge, star = trace_and_closure(np.array(a))
        assert np.isnan(gauge) and star is None
        assert np.isnan(power_trace(np.array(a)))


def test_witness_is_a_closed_walk_not_the_power_sum():
    # a 2-cycle of weight 3 - 1 = 2; Tr = 4 counts it walked twice
    a = np.full((4, 4), BOTTOM)
    a[0, 1] = 3.0
    a[1, 0] = -1.0
    gauge, star = trace_and_closure(a)
    assert gauge == 2.0 and star is None
    assert power_trace(a) == 4.0


def test_spectral_verdicts_never_call_the_power_sum(monkeypatch, tmp_path, capsys):
    def refuse(a):
        raise AssertionError("power_trace called on a solve path")

    monkeypatch.setattr(semiring, "power_trace", refuse)
    n = 400
    bounds = np.full((n, n), BOTTOM)
    bounds[n - 2, n - 1] = 0.5
    bounds[n - 1, n - 2] = 0.25
    inst = ChebyshevInstance(
        points=np.zeros((2, n)),
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=np.full(n, -1.0),
        box_hi=np.full(n, 1.0),
        diff_bounds=bounds,
    )
    rep = tropiloc.check_feasibility(inst)
    assert not rep.spectral_ok and rep.cycle_gauge == 0.75 and rep.bounds_gap is None
    spectral = Infeasible("spectral", 0.75)
    assert tropiloc.solve(inst) == spectral
    assert solve_double(bounds, np.full(n, BOTTOM), np.zeros(n)) == spectral
    assert solve_fixed_point(bounds, np.zeros(n)) == spectral
    path = tmp_path / "cycle.json"
    path.write_text(emit_instance(inst))
    assert cli.main(["check", str(path)]) == 2
    assert "spectral certificate: FAILED (cycle gauge 0.75)" in capsys.readouterr().out
    assert cli.main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "infeasible: positive cycle among difference bounds (weight 0.75)\n"


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_closure_matches_power_sum(n):
    for seed in range(40):
        a = nonpos_cycle_matrix(np.random.default_rng(seed * 100 + n), n)
        gauge, star = trace_and_closure(a)
        assert gauge <= 0.0
        assert gauge == power_trace(a)
        assert np.array_equal(star, power_closure(a))


def test_closure_monotone_in_entries():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = nonpos_cycle_matrix(rng, 4)
        b = a.copy()
        finite_mask = b > BOTTOM
        b[finite_mask] -= rng.integers(0, 9, int(finite_mask.sum())) / 8.0
        _, star_a = trace_and_closure(a)
        _, star_b = trace_and_closure(b)
        assert np.all(star_b <= star_a)


def test_trace_shape_guard():
    with pytest.raises(DimensionError):
        trace(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        trace_and_closure(np.zeros(3))


@pytest.mark.parametrize(
    "fn, args",
    [
        (trace_and_closure, (np.zeros((0, 0)),)),
        (trace, (np.zeros((0, 0)),)),
        (power_trace, (np.zeros((0, 0)),)),
        (vec_dot, (np.zeros(0), np.zeros(0))),
        (mat_vec, (np.zeros((2, 0)), np.zeros(0))),
        (vec_mat, (np.zeros(0), np.zeros((0, 2)))),
        (power_closure, (np.zeros((0, 0)),)),
        (conjugate_transpose, (np.zeros(0),)),
    ],
    ids=["trace_and_closure", "trace", "power_trace", "vec_dot", "mat_vec", "vec_mat", "power_closure", "conjugate_transpose"],
)
def test_empty_operands_raise_dimension_error(fn, args):
    with pytest.raises(DimensionError, match="must be nonempty"):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (mat_add, (np.zeros((2, 2)), np.zeros((2, 3))), r"shape mismatch \(2, 2\) vs \(2, 3\)"),
        (mat_vec, (np.zeros((2, 3)), np.zeros(2)), r"incompatible shapes \(2, 3\) and \(2,\)"),
        (vec_mat, (np.zeros(3), np.zeros((2, 2))), r"incompatible shapes \(3,\) and \(2, 2\)"),
        (vec_dot, (np.zeros(2), np.zeros(3)), r"incompatible shapes \(2,\) and \(3,\)"),
        (conjugate_transpose, (np.zeros((2, 2)),), r"vector expected, got shape \(2, 2\)"),
    ],
    ids=["mat_add", "mat_vec", "vec_mat", "vec_dot", "conjugate_transpose"],
)
def test_mismatched_operands_raise_dimension_error(fn, args, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        fn(*args)


def _potential_matrix(rng, n, p_bottom):
    # Non-dyadic entries phi_i - phi_k - slack: every cycle weighs minus its
    # slacks, far below the rounding of the differences, so Tr <= 0.
    phi = rng.normal(0.0, 100.0, n)
    a = phi[:, None] - phi[None, :] - rng.exponential(1.0, (n, n))
    a[rng.random((n, n)) < p_bottom] = BOTTOM
    return a, phi


def _same_bits(got, want):
    g_gauge, g_star = got
    w_gauge, w_star = want
    assert np.float64(g_gauge).view(np.int64) == np.float64(w_gauge).view(np.int64)
    assert (g_star is None) == (w_star is None)
    if w_star is not None:
        assert np.array_equal(g_star.view(np.int64), w_star.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 16, 17, 90, 91, 100, 301])
def test_closure_is_the_default_buffer_relaxation_bit_for_bit(n):
    # Either side of the buffer rule (n^2 > 8192 from n = 91) gives the bits of
    # the one-line relaxation run under numpy's default buffer.
    rng = np.random.default_rng(1000 + n)
    closed = 0
    for p_bottom in (0.05, 0.3, 0.6, 0.9):
        a, phi = _potential_matrix(rng, n, p_bottom)
        want = closure_reference(a)
        _same_bits(trace_and_closure(a), want)
        closed += want[1] is not None
        if n >= 2:
            # a planted 2-cycle of weight about 0.5: the witness matches too
            i, j = rng.choice(n, 2, replace=False)
            a[i, j] = phi[i] - phi[j] + 0.5
            a[j, i] = phi[j] - phi[i]
            want = closure_reference(a)
            assert want[1] is None and want[0] > 0.0
            _same_bits(trace_and_closure(a), want)
        # random entries, most with positive cycles found mid-relaxation
        b = rng.normal(-2.0, 1.0, (n, n))
        b[rng.random((n, n)) < p_bottom] = BOTTOM
        _same_bits(trace_and_closure(b), closure_reference(b))
    assert closed == 4
    a = _potential_matrix(rng, n, 0.3)[0]
    a[n // 2, (n + 1) // 3] = float("nan")
    gauge, star = trace_and_closure(a)
    assert math.isnan(gauge) and star is None
    assert math.isnan(closure_reference(a)[0])


def test_closure_sets_the_buffer_only_when_n_squared_outgrows_it(monkeypatch):
    calls = []
    real = np.setbufsize
    monkeypatch.setattr(np, "setbufsize", lambda size: calls.append(size) or real(size))
    size = np.getbufsize()
    fits = math.isqrt(size)
    rng = np.random.default_rng(3)
    trace_and_closure(_potential_matrix(rng, fits, 0.3)[0])
    assert calls == []
    trace_and_closure(_potential_matrix(rng, fits + 1, 0.3)[0])
    assert calls == [16, size]


def test_closure_restores_the_buffer_size(tmp_path, capsys):
    rng = np.random.default_rng(4)
    before = np.getbufsize()
    for n in (5, 100):
        feasible, phi = _potential_matrix(rng, n, 0.3)
        cycle = feasible.copy()
        cycle[0, n - 1] = phi[0] - phi[n - 1] + 0.5
        cycle[n - 1, 0] = phi[n - 1] - phi[0]
        nan = feasible.copy()
        nan[1, 2] = float("nan")
        for a, closes in ((feasible, True), (cycle, False), (nan, False)):
            assert (trace_and_closure(a)[1] is not None) == closes
            assert np.getbufsize() == before
    with np.errstate():
        saved = np.setbufsize(4096)
        try:
            assert trace_and_closure(_potential_matrix(rng, 91, 0.3)[0])[1] is not None
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(saved)
    assert np.getbufsize() == before
    n = 120
    inst = ChebyshevInstance(
        points=np.zeros((2, n)),
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=np.full(n, -100.0),
        box_hi=np.full(n, 100.0),
        diff_bounds=nonpos_cycle_matrix(rng, n, density=0.3),
    )
    assert not isinstance(tropiloc.solve(inst), Infeasible)
    assert np.getbufsize() == before
    path = tmp_path / "wide.json"
    path.write_text(emit_instance(inst))
    assert cli.main(["solve", str(path)]) == 0
    capsys.readouterr()
    assert np.getbufsize() == before


def test_distances():
    assert dinf([1.0, 5.0], [3.0, 4.0]) == 2.0
    assert d1([1.0, 5.0], [3.0, 4.0]) == 3.0
    assert dinf([2.0], [2.0]) == 0.0
