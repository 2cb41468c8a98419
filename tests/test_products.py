"""B* on demand: the solver's products by iteration on B, and the closure only when it is cheaper.

chebyshev._Star forms x (x) B* and B* (x) u by iterating on B, reads the
entry of B* that a Newton step goes through off the row product's own
predecessors (a column B*[:, k] only where that walk finds no origin), and
builds the closure trace_and_closure(B) up front at n <= 41, or once the
iteration has cost as much as the closure.  These tests pin what that must
keep: theta within the derived rounding bound of the exact closed form,
verdicts and witnesses equal to the closure's, cycles lighter than an ulp
of the iterates still found, a product count within the budget on the worst
cases, planted positive cycles caught by the iteration far below it and
only cycles of positive exact weight caught, and no closure built behind a
replay.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from exact import closure_exact, cycle_weight, theta_error, theta_error_bound, theta_exact
from support import fixed_point_reference, rescaled
from tropiloc import (
    ChebyshevInstance,
    check_feasibility,
    is_member,
    random_infeasible,
    random_instance,
    sample,
    solve,
    verify,
)
from tropiloc import chebyshev, cli, emit_instance
from tropiloc.boxes import SolutionBox, Transform
from tropiloc.chebyshev import assemble_bounds
from tropiloc.errors import DimensionError
from tropiloc.linear import Infeasible
from tropiloc.semiring import BOTTOM, trace_and_closure


@pytest.fixture
def stars(monkeypatch):
    """Every _Star the solver makes, in order; each counts its products in spent."""
    made = []

    class Counted(chebyshev._Star):
        __slots__ = ()

        def __init__(self, b):
            made.append(self)
            super().__init__(b)

    monkeypatch.setattr(chebyshev, "_Star", Counted)
    return made


@pytest.fixture
def iterate(monkeypatch):
    """Iterate at every n, as the solve does from n = 42 on, so that small instances take that path."""
    monkeypatch.setattr(chebyshev, "_TYPICAL_PRODUCTS", 0)


def test_budget_builds_the_closure_up_front_only_at_n_up_to_41():
    budgets = [chebyshev._closure_products(n) for n in range(1, 400)]
    assert all(b <= chebyshev._TYPICAL_PRODUCTS for b in budgets[:41])
    assert all(b > chebyshev._TYPICAL_PRODUCTS for b in budgets[41:])
    assert budgets == sorted(budgets)


def test_iterated_solves_keep_theta_within_the_exact_bound(stars, iterate):
    # Iterating on B, the solve buys the closure on the way if the iteration
    # costs as much.  On both paths theta must stay within the
    # derived bound of the exact theta of its float inputs, whose closure is
    # exact too, and the box must stay nonempty; both scales, native and
    # rescaled by a non-dyadic factor, so that path sums round.
    checked = iterated = 0
    for seed in range(36):
        variant = ("chebyshev", "chebyshev_scaled")[seed % 2]
        inst = random_instance(variant, 5 + seed % 16, 2 + seed % 5, seed)
        if seed % 3 == 2:
            inst = rescaled(inst, 1e6 + 0.3)
        stars.clear()
        box = solve(inst)
        if isinstance(box, Infeasible):
            continue
        iterated += stars[0].closure is None
        c = chebyshev._scale_of(inst)
        fixed = assemble_bounds(inst)
        args = (c * inst.points, np.abs(c), inst.weights, inst.addends, closure_exact(inst.diff_bounds), fixed.fixed_lo, fixed.fixed_hi)
        assert theta_error(box.theta, theta_exact(*args)) <= theta_error_bound(*args, box.theta), seed
        assert np.all(box.u_lo <= box.u_hi), seed
        checked += 1
    assert checked >= 30, checked
    assert 6 <= iterated <= checked - 5, (iterated, checked)


def _chain(n: int, weight: float, seed: int):
    inst = random_instance("chebyshev", n, 20, seed)
    b = np.full((n, n), BOTTOM)
    b[np.arange(n - 1), np.arange(1, n)] = weight
    return dataclasses.replace(inst, diff_bounds=b)


def _same_verdict(result, inst) -> bool:
    # The verdict and witness trace_and_closure gives through check_feasibility.
    report = check_feasibility(inst)
    if not report.spectral_ok:
        return isinstance(result, Infeasible) and (result.cause, result.witness) == ("spectral", report.cycle_gauge)
    if not report.bounds_ok:
        return isinstance(result, Infeasible) and (result.cause, result.witness) == ("bounds", report.bounds_gap)
    return not isinstance(result, Infeasible)


@pytest.mark.parametrize("weight", [0.001, 1.0])
def test_a_300_chain_spends_at_most_the_budget(stars, weight):
    # x_i >= B[i, i+1] + x_{i+1} along a 300-chain: (-q) (x) B* needs 300
    # products, more than the closure costs, so the solve buys the closure
    # once the budget is spent.  A weight of 1 crosses the box (the bounds
    # certificate fails); 0.001 is feasible.
    inst = _chain(300, weight, 4)
    stars.clear()
    result = solve(inst)
    (star,) = stars
    assert star.closure is not None
    assert star.spent == math.ceil(star.budget), star.spent
    assert _same_verdict(result, inst)
    assert isinstance(result, Infeasible) == (weight == 1.0)


@pytest.mark.parametrize("n", [60, 80, 100])
def test_a_planted_cycle_spends_at_most_the_budget(stars, n):
    # A positive cycle never converges, but the certificate's product finds
    # it among the predecessors of its steps at its first checks, far below
    # the budget, and the closure then reports the cycle with its own witness.
    for seed in range(3):
        inst = random_infeasible(n, 20, seed, mode="cycle")
        stars.clear()
        result = solve(inst)
        (star,) = stars
        assert star.spent <= 2 * chebyshev._CHECK_PRODUCTS + 1 < star.budget / 4, (n, seed, star.spent)
        assert _same_verdict(result, inst), (n, seed)
        assert result.witness == trace_and_closure(inst.diff_bounds)[0]


@pytest.fixture
def early_buys(monkeypatch):
    """(B, cycle) of every cycle a check of the certificate's product proved positive."""
    found = []
    check = chebyshev._Star._positive_cycle

    def spy(self, before, z, moved):
        cycle = check(self, before, z, moved)
        if cycle is not None:
            found.append((self.b, cycle))
        return cycle

    monkeypatch.setattr(chebyshev._Star, "_positive_cycle", spy)
    return found


def _unchecked(monkeypatch, inst):
    # The solve with no cycle check: its first check would come after step n.
    with monkeypatch.context() as patch:
        patch.setattr(chebyshev, "_CHECK_PRODUCTS", inst.dim)
        return _bits(solve(inst))


def _bits(result):
    if isinstance(result, Infeasible):
        return result.cause, float(result.witness).hex()
    return float(result.theta).hex(), result.u_lo.tobytes(), result.u_hi.tobytes(), result._star.spent


def _light_cycle(n: int):
    # x_i >= x_{i+1} along a chain that x_{n-1} >= 0.001 + x_0 closes: one
    # positive cycle of n edges and weight 0.001.
    inst = _chain(n, 0.0, 5)
    b = inst.diff_bounds.copy()
    b[n - 1, 0] = 1e-3
    return dataclasses.replace(inst, diff_bounds=b)


def _rounded_cycle():
    # The 4-cycle of exact weight 9 * 2^-56 - 0.6 * 2^-52 < 0 at n = 48, which
    # the closure's relaxation rounds positive.
    n = 48
    b = np.full((n, n), BOTTOM)
    b[0, 1], b[1, 2], b[2, 3], b[3, 0] = 1.0, -1.0, 9 * 2.0**-56, -0.6 * 2.0**-52
    return ChebyshevInstance(
        points=[[0.0] * n], weights=[1.0], addends=[0.0], box_lo=[-2.0] * n, box_hi=[0.0] * n, diff_bounds=b,
    )


def _zero_cycle(n: int):
    # A 3-cycle of exact weight 0.317 + 0.321 - 0.638 = 0 whose sums round
    # up on every pass from x_0 = 1.755: the iteration never converges and
    # spends the budget, and the closure finds no positive cycle.
    b = np.full((n, n), BOTTOM)
    b[0, 1], b[1, 2], b[2, 0] = 0.317, 0.321, -0.638
    hi = np.full(n, 10.0)
    hi[0] = -1.755
    return ChebyshevInstance(
        points=[[0.0] * n], weights=[1.0], addends=[0.0], box_lo=[-10.0] * n, box_hi=hi, diff_bounds=b,
    )


def test_the_iteration_buys_early_only_on_a_cycle_of_positive_exact_weight(monkeypatch, early_buys):
    # A check changes nothing but the time, unless it proves a positive
    # cycle: every solve keeps the verdict, witness, theta, box and products
    # spent of the solve with no check.  Planted cycles buy the closure
    # early; cycles of exact weight <= 0 that rounding lifts (the 4-cycle,
    # which the closure reports, and the zero cycle, whose iteration never
    # converges) never do; a long light cycle and the chains x_i >=
    # w + x_{i+1} keep their answers whether or not a check finds anything.
    # The random instances pass a check that finds nothing and spend just
    # under their budgets: counted in spent, it would make them buy the
    # closure, and their boxes would change bits.
    assert sum(map(Fraction, (0.317, 0.321, -0.638))) == 0
    never = [_rounded_cycle(), _zero_cycle(48), _zero_cycle(100)]
    others = [_light_cycle(n) for n in (60, 150, 300)] + [_chain(300, w, 4) for w in (0.001, 1.0)]
    others += [random_instance("chebyshev_scaled", 42 + s % 80, 3 + s % 7, s) for s in (19, 31, 83, 85)]
    planted = [random_infeasible(n, 20, seed, mode="cycle") for n, seed in ((60, 0), (100, 1), (200, 2), (300, 3))]
    for inst in never + others + planted + _lighter_cycles(48):
        before = len(early_buys)
        assert _bits(solve(inst)) == _unchecked(monkeypatch, inst)
        if inst in never:
            assert len(early_buys) == before
        if inst in planted:
            assert len(early_buys) == before + 1
        assert _same_verdict(solve(inst), inst) or inst is never[0]
    for b, cycle in early_buys:
        assert cycle_weight(b, cycle) > 0, cycle


def test_a_candidate_cycle_proves_only_a_positive_exact_weight(iterate):
    # Each entry of the cycle 0 -> 1 -> ... has one finite predecessor, so
    # every candidate is the whole cycle; only a positive exact weight makes
    # it a proof, however its float sums round: a positive one lighter than
    # an ulp of its edges, not one of weight 0, nor the rounded 4-cycle of
    # weight < 0, nor one whose partial sums overflow.
    def candidate(edges):
        n = 6
        b = np.full((n, n), BOTTOM)
        for i, w in enumerate(edges):
            b[i, (i + 1) % len(edges)] = w
        moved = np.arange(n) < len(edges)
        return chebyshev._Star(b)._positive_cycle(np.zeros(n, dtype=bool), np.zeros(n), moved), b

    cycle, b = candidate([1.0, -1.0 + 2.0**-53])
    assert sorted(cycle) == [0, 1] and cycle_weight(b, cycle) == Fraction(2.0**-53)
    assert candidate([0.1, 0.1, -0.2])[0] is None
    assert candidate([1.0, -1.0, 9 * 2.0**-56, -0.6 * 2.0**-52])[0] is None
    assert candidate([1.7e308, 1.7e308])[0] is None


def test_replays_build_no_closure(monkeypatch):
    # member, sample, is_member and verify use the box's own products: they
    # must not build the closure that the solve did without, or every checked
    # call would pay for it after the timed one.  The generator, read later,
    # is trace_and_closure(B) bit for bit, and reading it changes no member.
    boxes = []
    for seed in range(40):
        inst = random_instance(("chebyshev", "chebyshev_scaled")[seed % 2], 42 + seed % 16, 3 + seed % 7, seed)
        box = solve(inst)
        if not isinstance(box, Infeasible) and box._star.closure is None:
            boxes.append((inst, box))
    assert len(boxes) >= 15, len(boxes)

    def refuse(*args, **kwargs):
        raise AssertionError("a replay built the closure")

    monkeypatch.setattr(chebyshev, "trace_and_closure", refuse)
    before = []
    for inst, box in boxes:
        members = sample(box, 7, seed=1)
        assert np.array_equal(box.member(box.u_lo), members[0])
        assert all(is_member(box, inst, x) for x in members)
        assert verify(box, inst, 8).passed
        before.append(members)
    monkeypatch.undo()
    for (inst, box), members in zip(boxes, before):
        assert box.generator.tobytes() == trace_and_closure(inst.diff_bounds)[1].tobytes()
        assert sample(box, 7, seed=1).tobytes() == members.tobytes()


def test_instances_up_to_41_keep_the_closure_path():
    # At n <= 41 the closure is built up front: the answer is that of the
    # closure's products, bit for bit, whatever the members are asked.
    for seed in range(20):
        inst = random_instance("chebyshev", 1 + 2 * seed + seed % 2, 3, seed)
        box = solve(inst)
        if isinstance(box, Infeasible):
            continue
        assert box._star.closure is not None
        star = trace_and_closure(inst.diff_bounds)[1]
        assert box.generator.tobytes() == star.tobytes()
        assert box.member(box.u_hi).tobytes() == np.maximum.reduce(star + box.u_hi, axis=1).tobytes()


def test_member_checks_its_parameter():
    inst = ChebyshevInstance(
        points=[[0.0] * 5], weights=[1.0], addends=[0.0], box_lo=[-1.0] * 5, box_hi=[1.0] * 5,
        diff_bounds=np.full((5, 5), BOTTOM),
    )
    box = solve(inst)
    with pytest.raises(DimensionError, match="parameter of shape"):
        box.member(np.zeros(4))


def test_iterated_products_are_the_closures_on_exact_data(iterate):
    # On dyadic data every path sum is exact, so the iteration's products are
    # the closure's bit for bit, signed zeros included: the closure's zero
    # diagonal turns a -0.0 parameter into +0.0, and so must the iteration.
    b = np.full((5, 5), BOTTOM)
    b[0, 1], b[1, 2], b[3, 0], b[2, 2] = -1.0, 0.5, -0.25, -2.0
    star = chebyshev._Star(b)
    assert star.closure is None
    closure = trace_and_closure(b)[1]
    us = np.array([[-0.0, -0.0, 1.0, -0.0, 2.0], [0.0, -3.0, -0.0, 4.0, -0.0]])
    want = np.maximum.reduce(closure + us[:, None, :], axis=-1)
    assert star.members(us).tobytes() == want.tobytes()
    x = -us[1]
    assert star.row(x).tobytes() == np.maximum.reduce(x[:, None] + closure, axis=0).tobytes()
    assert star.closure is None
    star = chebyshev._Star(b)
    assert star.column(2).tobytes() == closure[:, 2].tobytes()
    assert star.closure is None


def _frontier_matrices():
    # Random B at n = 42 to 80 and densities 0.1, 0.45 and 1, one from a
    # non-dyadic potential (no positive cycle, sums that round) and one of
    # plain normal entries (positive cycles at the higher densities); the
    # chain B[i, i+1], whose products move one entry a step; planted cycles.
    rng = np.random.default_rng(20)
    for n, density in ((42, 0.1), (57, 0.45), (80, 1.0), (61, 0.1), (70, 0.45), (45, 1.0)):
        phi = rng.normal(size=n) * 10.0
        potential = phi[:, None] - phi[None, :] - rng.exponential(0.3, size=(n, n))
        for b in (potential, rng.normal(size=(n, n)) - 1.0):
            b[rng.random((n, n)) >= density] = BOTTOM
            yield b
    yield _chain(60, 0.001, 4).diff_bounds
    for seed in range(2):
        yield random_infeasible(48 + 20 * seed, 5, seed, mode="cycle").diff_bounds


def _starts(rng, n: int):
    # (rows, x): row products from vectors with bottom entries, one of them
    # with a single finite entry, and columns from unit vectors and the same.
    spread = rng.normal(size=n) * 10.0
    spread[rng.random(n) < 0.3] = BOTTOM
    single = np.full(n, BOTTOM)
    single[n // 3] = 1.5
    units = []
    for k in (0, n // 2, n - 1):
        e = np.full(n, BOTTOM)
        e[k] = 0.0
        units.append((False, e))
    return [(True, spread), (True, single), (False, spread), (False, single)] + units


def test_frontier_products_are_the_full_products():
    # Each step of _Star folds in only the entries that moved in the step
    # before.  Every product must still be that of the full product at every
    # step, bit for bit, with the same products spent and the same stop:
    # budgeted (the solve's row products and columns), unbudgeted and on
    # stacks (members).
    rng = np.random.default_rng(7)
    gave_up = converged = 0
    for b in _frontier_matrices():
        n = b.shape[0]
        starts = _starts(rng, n)
        for rows, x in starts:
            star = chebyshev._Star(b)
            assert star.closure is None
            got = star._fixed_point(x if rows else x[None], rows, True)
            want, spent = fixed_point_reference(b, x, rows, star.budget)
            assert star.spent == spent
            assert (got is None) == (want is None)
            if want is None:
                gave_up += 1
            else:
                assert (got if rows else got[0]).tobytes() == want.tobytes()
                converged += 1
            got = star._fixed_point(x if rows else x[None], rows, False)
            assert (got if rows else got[0]).tobytes() == fixed_point_reference(b, x, rows)[0].tobytes()
        us = np.array([x for rows, x in starts if not rows])
        want = np.array([fixed_point_reference(b, u, False)[0] for u in us])
        assert chebyshev._Star(b).members(us).tobytes() == want.tobytes()
    assert gave_up >= 40 and converged >= 40, (gave_up, converged)


def test_a_column_spends_what_the_full_product_spends_each_time():
    # Only a walk that names no origin asks for a column (_Star.chain), and
    # no column is kept: each request returns the full-product iteration's
    # bits and spends what it spends, a repeat as much as the first.
    for b in list(_frontier_matrices())[::2][:6]:
        n = b.shape[0]
        for k in (1, n - 2):
            e = np.full(n, BOTTOM)
            e[k] = 0.0
            want, spent = fixed_point_reference(b, e, False)
            star = chebyshev._Star(b)
            for _ in range(2):
                before = star.spent
                assert star.column(k).tobytes() == want.tobytes()
                assert star.spent - before == spent
            assert star.closure is None


def _on_the_integer_grid(inst):
    # random_instance draws its lengths on a grid of tenths: ten times them,
    # rounded, is the same instance in units ten times smaller, whose path
    # sums are all exact.
    fields = {name: np.round(getattr(inst, name) * 10.0) for name in ("points", "addends", "box_lo", "box_hi", "diff_bounds")}
    if inst.caps is not None:
        fields["caps"] = np.round(inst.caps * 10.0)
    return dataclasses.replace(inst, **fields)


def test_iterated_solves_read_each_chain_off_the_row_product(monkeypatch):
    # From n = 42 on a solve iterates on B, and each Newton step that moves
    # reads its pair (i, b*_ik) off the row product's own fixed point: no
    # column is formed while the iteration serves the products.  On the
    # integer grid every sum is exact, so the walk's pair attains the entry,
    # x_i + b == z_k, and b is the column's entry b*_ik, bit for bit.
    columns, walks = [], []
    column, chain = chebyshev._Star.column, chebyshev._Star.chain

    def column_spy(star, k):
        columns.append(star.closure is None)
        return column(star, k)

    def chain_spy(star, k, x, z):
        i, b = chain(star, k, x, z)
        if star.closure is None:
            e = np.full(star.n, BOTTOM)
            e[k] = 0.0
            want = fixed_point_reference(star.b, e, False)[0]
            walks.append((x[i] + b == z[k], want[i].tobytes() == np.float64(b).tobytes()))
        return i, b

    monkeypatch.setattr(chebyshev._Star, "column", column_spy)
    monkeypatch.setattr(chebyshev._Star, "chain", chain_spy)
    solved = 0
    for n in (42, 60, 100, 150, 200, 250, 300):
        for seed in range(4):
            inst = random_instance(("chebyshev", "chebyshev_scaled")[seed % 2], n, 20, seed)
            grid = _on_the_integer_grid(inst)
            for case in (inst, grid):
                result = solve(case)
                if isinstance(result, Infeasible):
                    continue
                assert result._star.closure is None, (n, seed)
                solved += 1
            walked = len(walks)
            assert not any(columns), (n, seed)
            assert walks[walked:] == [(True, True)] * (len(walks) - walked)
    assert solved >= 40 and len(walks) >= 40, (solved, len(walks))


def test_a_walk_round_a_tight_zero_cycle_takes_the_column(monkeypatch):
    # x_0 >= 3 + x_5 and the cycle 0 -> 1 -> 2 -> 0 of weight 1 + 1 - 2 = 0.
    # At the first level z_0 = 3 has two tight predecessors, 5 and 2, and
    # the argmax takes 2, so the walk from k = 2 goes round the cycle and
    # meets 2 again.  It names no origin and forms the column instead, by
    # the iteration: theta and the box are those of the column path at
    # every step, and theta is exact, 2.5.
    n = 48
    b = np.full((n, n), BOTTOM)
    b[5, 0], b[0, 1], b[1, 2], b[2, 0] = 3.0, 1.0, 1.0, -2.0
    inst = ChebyshevInstance(
        points=[[0.0] * n], weights=[1.0], addends=[0.0], box_lo=[-10.0] * n, box_hi=[10.0] * n, diff_bounds=b,
    )
    columns = []
    column = chebyshev._Star.column

    def column_spy(star, k):
        columns.append((k, star.closure is None))
        return column(star, k)

    def column_path(star, k, x, z):
        col = star.column(k)
        i = int((col + x).argmax())
        return i, col[i]

    monkeypatch.setattr(chebyshev._Star, "column", column_spy)
    walked = solve(inst)
    assert columns == [(2, True)] and walked._star.closure is None
    # So does a seeded family whose bounds pin 2-10% of the pairs at
    # b_ik = phi_i - phi_k in both directions, each pinned pair a tight cycle
    # of weight 0: the only input class on which a solve forms a column.
    family = _zero_cycle_family()
    walks = [solve(case) for case in family]
    formed = sum(by_iteration for _, by_iteration in columns[1:])
    monkeypatch.setattr(chebyshev._Star, "chain", column_path)
    by_column = solve(inst)
    assert walked.theta == by_column.theta == 2.5
    assert (walked.u_lo.tobytes(), walked.u_hi.tobytes()) == (by_column.u_lo.tobytes(), by_column.u_hi.tobytes())
    assert formed >= 1
    for case, walked in zip(family, walks):
        by_column = solve(case)
        assert isinstance(walked, SolutionBox) and isinstance(by_column, SolutionBox)
        assert walked.theta == by_column.theta
        assert (walked.u_lo.tobytes(), walked.u_hi.tobytes()) == (by_column.u_lo.tobytes(), by_column.u_hi.tobytes())


def _zero_cycle_family():
    # Integer data at n = 48 to 100, so every path sum is exact and the box
    # of +-20 holds phi + t for some t: feasible by construction.
    family = []
    for n in (48, 60, 80, 100):
        for m in (5, 20):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                phi = rng.integers(-3, 4, n).astype(np.float64)
                i, k = np.nonzero(np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.10), 1))
                b = np.full((n, n), BOTTOM)
                b[i, k] = phi[i] - phi[k]
                b[k, i] = phi[k] - phi[i]
                family.append(
                    ChebyshevInstance(
                        points=rng.integers(-10, 11, (m, n)).astype(np.float64),
                        weights=rng.choice([1.0, 2.0], m),
                        addends=rng.integers(-4, 5, m).astype(np.float64),
                        box_lo=np.full(n, -20.0),
                        box_hi=np.full(n, 20.0),
                        diff_bounds=b,
                    )
                )
    return family


def _lighter_cycles(n: int):
    # Positive cycles lighter than half an ulp of the iterates, which start
    # at -q with |q| near 1 to 12: a self-loop of 1e-17, and a 2-cycle whose
    # weight 2^-53 only the exact sum b_01 + b_10 shows.
    base = random_instance("chebyshev", n, 4, 3)
    loop = base.diff_bounds.copy()
    loop[0, 0] = 1e-17
    pair = np.full((n, n), BOTTOM)
    pair[0, 1], pair[1, 0] = 1.0, -1.0 + 2.0**-53
    return [dataclasses.replace(base, diff_bounds=b) for b in (loop, pair)]


@pytest.mark.parametrize("n", [5, 48])
def test_cycles_lighter_than_an_ulp_fail_the_spectral_certificate(tmp_path, capsys, monkeypatch, n):
    # The iteration's float fixed point absorbs such a cycle, so it is raised
    # to an exact potential first, which a positive cycle never reaches.
    # solve, check_feasibility and the command line's solve and check must
    # all report the closure's Infeasible("spectral"), at n = 48 on the
    # iteration path and at n = 5 on both.
    for inst in _lighter_cycles(n):
        report = check_feasibility(inst)
        assert not report.spectral_ok and report.cycle_gauge > 0.0
        path = tmp_path / "cycle.json"
        path.write_text(emit_instance(inst))
        for cut in (chebyshev._TYPICAL_PRODUCTS, 0):
            monkeypatch.setattr(chebyshev, "_TYPICAL_PRODUCTS", cut)
            assert solve(inst) == Infeasible("spectral", report.cycle_gauge)
            capsys.readouterr()
            assert cli.main(["solve", str(path)]) == 2
            assert "infeasible" in capsys.readouterr().err
            assert cli.main(["check", str(path)]) == 2
            assert "spectral certificate: FAILED" in capsys.readouterr().out


def test_the_certificate_does_not_take_a_float_fixed_point_for_a_potential(iterate):
    # The fixed point of -q (x) B* in floats is no potential of the self-loop
    # instance, and raising it never ends: the budget runs out and the
    # closure decides.  A feasible instance reaches an exact potential.
    loop, _ = _lighter_cycles(48)
    star = chebyshev._Star(loop.diff_bounds)
    z = star._fixed_point(np.full(48, -12.0), True, True)
    assert z is not None
    assert not star._proves_acyclic(z)
    assert star.spent == math.ceil(star.budget)
    feasible = random_instance("chebyshev", 48, 4, 3)
    star = chebyshev._Star(feasible.diff_bounds)
    star.row(-feasible.box_hi)
    assert star.acyclic and star.closure is None


def test_generator_falls_back_to_the_iteration_where_the_closure_reports_a_cycle(tmp_path, capsys):
    # The 4-cycle weighs 9 * 2^-56 - 0.6 * 2^-52 < 0 exactly, but the
    # closure's relaxation rounds 1 - 0.6 * 2^-52 up on its first pivot and
    # reports a positive cycle.  The solve's exact potential (0, 1, 0, c)
    # rules one out, so it returns a box, and its generator is read from the
    # iteration column by column instead of raising.
    n = 48
    b = np.full((n, n), BOTTOM)
    b[0, 1], b[1, 2], b[2, 3], b[3, 0] = 1.0, -1.0, 9 * 2.0**-56, -0.6 * 2.0**-52
    inst = ChebyshevInstance(
        points=[[0.0] * n], weights=[1.0], addends=[0.0], box_lo=[-2.0] * n, box_hi=[0.0] * n, diff_bounds=b,
    )
    exact = closure_exact(b)
    assert trace_and_closure(b)[1] is None
    box = solve(inst)
    assert not isinstance(box, Infeasible)
    want = exact.astype(float)
    assert np.array_equal(np.isfinite(box.generator), np.isfinite(want))
    assert np.allclose(box.generator, want, rtol=0.0, atol=1e-15)
    assert np.all(np.diagonal(box.generator) == 0.0)
    path = tmp_path / "rounded_cycle.json"
    path.write_text(emit_instance(inst))
    capsys.readouterr()
    assert cli.main(["solve", str(path)]) == 0
    assert '"theta": 1.0' in capsys.readouterr().out


def test_a_box_built_by_hand_takes_its_generator_as_a_matrix():
    g = trace_and_closure(random_instance("chebyshev", 6, 3, 2).diff_bounds)[1]
    u = np.arange(6.0)
    box = SolutionBox(1.0, g, u, u + 1.0, Transform(None, False))
    assert box.generator is box._star.closure and np.array_equal(box.generator, g)
    assert np.array_equal(box.member(u), np.maximum.reduce(g + u, axis=1))
    assert "_star" not in repr(box)
