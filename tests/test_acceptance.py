"""Acceptance suite: one test per shipped guarantee, with pinned tolerances.

Each test prints and records a single PASS/FAIL line (collected into the
"acceptance criteria" section of the terminal summary).  Numeric data is
dyadic wherever exact equality is asserted.
"""

import time

import numpy as np
import pytest

from conftest import record_acceptance
from support import (
    clipped_variant_instance,
    degenerate_strip_instance,
    dyadic,
    dyadic_with_bottom,
    nonpos_cycle_matrix,
    tilted_line_instance,
    two_point_instance,
    wide_strip_instance,
)
from tropiloc import (
    ScaledChebyshevInstance,
    check_feasibility,
    compute_theta,
    grid_feasible,
    grid_minimize,
    random_infeasible,
    random_instance,
    rotate,
    solve_particular,
    solve_scaled,
    solve_strip,
    solve_tilted,
    verify,
)
from tropiloc.chebyshev import _Star, _theta_kernel
from tropiloc.linear import solve_upper
from tropiloc.semiring import (
    BOTTOM,
    ONE,
    d1,
    dinf,
    mat_vec,
    power_closure,
    scalar_add,
    scalar_mul,
    trace_and_closure,
)

EXTENT_FOR = {1: 12, 2: 8, 3: 4}


def _criterion(tag: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def solved_corpus():
    """200 random feasible Chebyshev instances (n <= 3, m <= 4), solved."""
    corpus = []
    for i in range(200):
        pick = np.random.default_rng(5000 + i)
        n = int(pick.integers(1, 4))
        m = int(pick.integers(1, 5))
        inst = None
        for attempt in range(5):
            try:
                inst = random_instance("chebyshev", n, m, 9000 + 97 * i + attempt, extent=EXTENT_FOR[n])
                break
            except RuntimeError:
                continue
        assert inst is not None, f"corpus instance {i} failed to generate"
        box = solve_particular(inst)
        assert not hasattr(box, "cause"), f"corpus instance {i} came out infeasible"
        corpus.append((inst, box))
    return corpus


def test_c1_semiring_axioms():
    rng = np.random.default_rng(11)
    pool = dyadic(rng, 35_000, limit=2**16)
    pool[rng.random(35_000) < 0.12] = BOTTOM
    start = time.perf_counter()
    checked = 0
    for idx in range(0, 30_000, 3):
        a, b, c = pool[idx], pool[idx + 1], pool[idx + 2]
        assert scalar_add(scalar_add(a, b), c) == scalar_add(a, scalar_add(b, c))
        assert scalar_add(a, b) == scalar_add(b, a)
        assert scalar_add(a, a) == a
        assert scalar_mul(scalar_mul(a, b), c) == scalar_mul(a, scalar_mul(b, c))
        assert scalar_mul(a, b) == scalar_mul(b, a)
        assert scalar_mul(a, scalar_add(b, c)) == scalar_add(scalar_mul(a, b), scalar_mul(a, c))
        assert scalar_mul(scalar_add(b, c), a) == scalar_add(scalar_mul(b, a), scalar_mul(c, a))
        assert scalar_mul(a, BOTTOM) == BOTTOM
        assert scalar_add(a, BOTTOM) == a
        assert scalar_mul(a, ONE) == a
        checked += 1
    elapsed = time.perf_counter() - start
    _criterion(
        "C1 semiring axioms",
        checked == 10_000 and elapsed < 5.0,
        f"{checked} triples, exact, {elapsed:.2f}s < 5s",
    )


def test_c2_solution_bound_equivalence():
    rng = np.random.default_rng(23)
    cases = 0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = dyadic_with_bottom(rng, (m, n), p_bottom=0.3)
        for k in range(n):  # keep every column regular
            a[int(rng.integers(0, m)), k] = dyadic(rng, limit=2**16)
        d = dyadic(rng, m, limit=2**16)
        xbar = solve_upper(a, d)
        # forward: the bound itself solves the system
        assert np.all(mat_vec(a, xbar) <= d)
        # both directions on a random probe point
        x = xbar + dyadic(rng, n, limit=16)
        assert np.all(mat_vec(a, x) <= d) == np.all(x <= xbar)
        # strictly above the bound in any coordinate breaks the system
        j = int(rng.integers(0, n))
        bumped = xbar.copy()
        bumped[j] += 0.125
        assert not np.all(mat_vec(a, bumped) <= d)
        cases += 1
    _criterion("C2 solution-bound equivalence", cases == 1000, f"{cases} cases, both directions, exact")


def test_c3_closure_power_sum_and_speed():
    rng = np.random.default_rng(31)
    agreements = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = nonpos_cycle_matrix(rng, n, density=float(rng.uniform(0.2, 0.9)))
        gauge, star = trace_and_closure(a)
        assert gauge <= 0.0 and star is not None
        assert np.array_equal(star, power_closure(a))
        agreements += 1
    worst = 0.0
    for seed in range(3):
        big_rng = np.random.default_rng(400 + seed)
        big = nonpos_cycle_matrix(big_rng, 200, density=0.05)
        start = time.perf_counter()
        gauge, star = trace_and_closure(big)
        took = time.perf_counter() - start
        assert gauge <= 0.0 and star is not None
        worst = max(worst, took)
    _criterion(
        "C3 closure correctness and speed",
        agreements == 500 and worst < 2.0,
        f"{agreements}/500 exact power-sum matches; n=200 closure worst {worst:.2f}s < 2s",
    )


def test_c4_solver_vs_grid_oracle(solved_corpus):
    start = time.perf_counter()
    worst_gap = 0.0
    within = 0
    for inst, box in solved_corpus:
        res = grid_minimize(inst, inst.box_lo, inst.box_hi, 0.05)
        assert res.feasible, "oracle found no feasible lattice point on a feasible instance"
        gap = abs(box.theta - res.best_value)
        tol = float(np.max(inst.weights)) * 0.05 * inst.dim
        worst_gap = max(worst_gap, gap)
        if gap <= tol:
            within += 1
    elapsed = time.perf_counter() - start
    _criterion(
        "C4 solver vs grid oracle",
        within == 200 and elapsed < 60.0,
        f"{within}/200 within (max w)*0.05*n at step 0.05, worst gap {worst_gap:.2e}, {elapsed:.1f}s < 60s",
    )


def test_c5_attainment_replay(solved_corpus):
    worst_dev = 0.0
    worst_violation = -np.inf
    passed = 0
    for idx, (inst, box) in enumerate(solved_corpus):
        rep = verify(box, inst, 10, seed=idx)
        worst_dev = max(worst_dev, rep.max_objective_deviation)
        worst_violation = max(worst_violation, rep.max_constraint_violation)
        if rep.passed and rep.checked_count == 10:
            passed += 1
    _criterion(
        "C5 attainment replay",
        passed == 200,
        f"{passed}/200 instances x 10 members; worst objective dev {worst_dev:.1e} <= 1e-9, "
        f"worst violation {worst_violation:.1e} <= 1e-12",
    )


def test_c6_pinned_worked_examples():
    checks = []

    inst = two_point_instance()
    oracle = grid_minimize(inst, [-10.0, -10.0], [10.0, 10.0], 0.05)
    checks.append(oracle.best_value == 2.0)
    checks.append(compute_theta(inst) == 2.0)

    inst = clipped_variant_instance()
    oracle = grid_minimize(inst, [-10.0, -10.0], [1.0, 10.0], 0.05)
    checks.append(oracle.best_value == 3.0)
    checks.append(compute_theta(inst) == 3.0)

    inst = degenerate_strip_instance()
    oracle = grid_minimize(inst, [-1.0, -5.0], [1.0, 5.0], 0.05)
    checks.append(oracle.best_value == 4.0)
    checks.append(oracle.best_points.tolist() == [[0.0, 0.0]])
    box = solve_strip(inst)
    checks.append(box.theta == 4.0)
    checks.append(box.vertex_lo.tolist() == [0.0, 0.0] and box.vertex_hi.tolist() == [0.0, 0.0])

    inst = tilted_line_instance()
    oracle = grid_minimize(inst, [-2.0, -4.0], [3.0, 6.0], 0.05)
    checks.append(oracle.best_value == 3.0)
    checks.append(oracle.best_points.tolist() == [[1.0, 2.0]])
    box = solve_tilted(inst)
    checks.append(box.theta == 3.0)
    checks.append(box.vertex_lo.tolist() == [1.0, 2.0])

    _criterion(
        "C6 pinned worked examples",
        all(checks),
        "theta = 2, 3, 4 (unique at (0,0)), 3 (at (1,2)); each re-confirmed by the grid oracle in-test",
    )


def test_c7_reduction_consistency():
    exact = 0
    for seed in range(100):
        pick = np.random.default_rng(700 + seed)
        n = int(pick.integers(1, 4))
        m = int(pick.integers(1, 5))
        plain = random_instance("chebyshev", n, m, 7000 + seed, extent=EXTENT_FOR[n])
        embedded = ScaledChebyshevInstance(
            points=plain.points,
            weights=plain.weights,
            addends=plain.addends,
            caps=plain.caps,
            box_lo=plain.box_lo,
            box_hi=plain.box_hi,
            diff_bounds=plain.diff_bounds,
            scale=np.ones(n),
        )
        a = solve_particular(plain)
        b = solve_scaled(embedded)
        if (
            a.theta == b.theta
            and np.array_equal(a.generator, b.generator)
            and np.array_equal(a.u_lo, b.u_lo)
            and np.array_equal(a.u_hi, b.u_hi)
        ):
            exact += 1

    rng = np.random.default_rng(77)
    xs = dyadic(rng, (10_000, 2))
    ps = dyadic(rng, (10_000, 2))
    isometric = 0
    for x, p in zip(xs, ps):
        if d1(x, p) == dinf(rotate(x), rotate(p)):
            isometric += 1

    _criterion(
        "C7 reduction consistency",
        exact == 100 and isometric == 10_000,
        f"{exact}/100 all-ones scale solutions bit-for-bit; {isometric}/10000 rotation isometries exact",
    )


def test_c8_certificate_equivalence(solved_corpus):
    agree = 0
    total = 0
    for inst, _ in solved_corpus[::2]:  # 100 feasible
        claimed = check_feasibility(inst).feasible
        observed = grid_feasible(inst, inst.box_lo, inst.box_hi, 0.05)
        agree += claimed == observed == True  # noqa: E712
        total += 1
    modes = ("caps", "cycle")
    for i in range(100):  # 100 engineered infeasible
        n = 1 + i % 3
        m = 1 + i % 4
        mode = modes[i % 2] if n >= 2 else "caps"
        inst = random_infeasible(n, m, 8000 + i, mode=mode)
        claimed = check_feasibility(inst).feasible
        observed = grid_feasible(inst, inst.box_lo, inst.box_hi, 0.05)
        agree += claimed == observed == False  # noqa: E712
        total += 1
    _criterion(
        "C8 certificate equivalence",
        agree == total == 200,
        f"{agree}/{total} agreements between check_feasibility and grid_feasible (half engineered infeasible)",
    )


def _best_of(fn, reps: int = 40) -> float:
    fn()  # warm-up
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def _time_theta_public(m: int, seed: int) -> float:
    # n fixed at 16; the public op includes the (constant-size) closure
    inst = random_instance("chebyshev", 16, m, seed)
    return _best_of(lambda: compute_theta(inst))


def _time_theta_parts(n: int, seed: int) -> float:
    # m fixed at 16; closure precomputed, only the theta assembly is timed
    rng = np.random.default_rng(seed)
    pts = dyadic(rng, (16, n), limit=2**10)
    w = rng.choice([1.0, 2.0, 4.0], size=16)
    h = dyadic(rng, 16, limit=2**10)
    star = _Star(nonpos_cycle_matrix(rng, n, density=0.4))
    star._buy()  # the closure, built here at every n
    lo = pts.min(axis=0) - 50.0
    hi = pts.max(axis=0) + 50.0
    unit = np.ones(n)
    rows = np.ascontiguousarray(pts.T)  # the solve's (n, m) client rows
    return _best_of(lambda: _theta_kernel(rows, "C", unit, w, h, star, lo, hi))


def test_c9_theta_scaling():
    sizes = np.array([10, 20, 40, 80], dtype=np.float64)
    t_m = [_time_theta_public(int(s), 900 + int(s)) for s in sizes]
    t_n = [_time_theta_parts(int(s), 950 + int(s)) for s in sizes]
    slope_m = float(np.polyfit(np.log(sizes), np.log(t_m), 1)[0])
    slope_n = float(np.polyfit(np.log(sizes), np.log(t_n), 1)[0])
    fmt = lambda ts: "/".join(f"{t * 1e6:.0f}" for t in ts)  # noqa: E731
    _criterion(
        "C9 theta scaling",
        slope_m <= 2.35 and slope_n <= 2.35,
        f"m sweep {fmt(t_m)}us slope {slope_m:.2f}, n sweep (post-closure) {fmt(t_n)}us "
        f"slope {slope_n:.2f}; both <= 2.35 over sizes 10/20/40/80",
    )
