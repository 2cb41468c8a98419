"""Tropical linear inequality solvers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import dyadic, dyadic_with_bottom
from tropiloc.errors import DimensionError, DomainError
from tropiloc.linear import (
    Infeasible,
    ParametricFamily,
    parameter_upper_bound,
    solve_double,
    solve_fixed_point,
    solve_upper,
)
from tropiloc.semiring import BOTTOM, mat_vec

B = BOTTOM


def test_upper_example():
    # A = [[0], [2]], d = (3, 3): largest solution is x = (1)
    x = solve_upper(np.array([[0.0], [2.0]]), np.array([3.0, 3.0]))
    assert np.array_equal(x, np.array([1.0]))


def test_upper_guards():
    with pytest.raises(DomainError):
        solve_upper(np.array([[B], [B]]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        solve_upper(np.array([[0.0], [1.0]]), np.array([1.0, B]))
    with pytest.raises(DomainError):
        solve_upper(np.array([[0.0]]), np.array([[1.0]]))
    # Empty operands raise DimensionError, as in solve_double and solve_fixed_point.
    with pytest.raises(DimensionError, match="must be nonempty"):
        solve_upper(np.zeros((0, 0)), np.zeros(0))


def _upper_case(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    a = dyadic_with_bottom(rng, (m, n), p_bottom=0.3)
    # keep every column alive
    for j in range(n):
        if not np.any(a[:, j] > B):
            a[int(rng.integers(0, m)), j] = dyadic(rng)
    d = dyadic(rng, m, limit=2**16)
    return rng, a, d


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_upper_bound_is_complete(seed):
    """Ax <= d holds exactly when x is below the closed-form bound."""
    rng, a, d = _upper_case(seed)
    xbar = solve_upper(a, d)
    assert np.all(mat_vec(a, xbar) <= d)
    # any x <= xbar solves, any x exceeding xbar somewhere may not; test the
    # equivalence on random probes
    for _ in range(10):
        x = xbar + rng.integers(-8, 9, xbar.shape[0]) / 8.0
        assert np.all(mat_vec(a, x) <= d) == np.all(x <= xbar)


def test_fixed_point_example():
    a = np.array([[B, 2.0], [-2.0, B]])
    fam = solve_fixed_point(a, np.zeros(2))
    assert isinstance(fam, ParametricFamily)
    assert np.array_equal(fam.generator, np.array([[0.0, 2.0], [-2.0, 0.0]]))
    assert np.array_equal(fam.u_lo, np.zeros(2))
    assert fam.u_hi is None
    assert not fam.is_empty


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_fixed_point_members_solve(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    phi = dyadic(rng, n, limit=2**10)
    a = np.full((n, n), B)
    for i in range(n):
        for k in range(n):
            if rng.random() < 0.5:
                a[i, k] = phi[i] - phi[k] - rng.integers(0, 9) / 8.0
    b = dyadic(rng, n, limit=2**10)
    fam = solve_fixed_point(a, b)
    assert isinstance(fam, ParametricFamily)
    for _ in range(5):
        u = fam.u_lo + rng.integers(0, 33, n) / 8.0
        x = fam.member(u)
        assert np.all(np.maximum(mat_vec(a, x), b) <= x)


def test_fixed_point_spectral_failure():
    bad = solve_fixed_point(np.array([[1.0]]), np.array([0.0]))
    assert isinstance(bad, Infeasible)
    assert bad.cause == "spectral"
    assert bad.witness == 1.0


def test_fixed_point_checks_shape_before_closure():
    # a positive cycle must not hide a mismatched b
    with pytest.raises(DomainError):
        solve_fixed_point(np.array([[1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        solve_fixed_point(1.0, np.array([0.0]))


def test_double_example():
    a = np.array([[B, 2.0], [-2.0, B]])
    fam = solve_double(a, np.zeros(2), np.full(2, 5.0))
    assert isinstance(fam, ParametricFamily)
    assert np.array_equal(fam.u_lo, np.zeros(2))
    assert np.array_equal(fam.u_hi, np.array([5.0, 3.0]))
    assert not fam.is_empty


def test_double_bounds_failure():
    a = np.array([[B, 2.0], [-2.0, B]])
    bad = solve_double(a, np.array([6.0, 6.0]), np.full(2, 5.0))
    assert isinstance(bad, Infeasible)
    assert bad.cause == "bounds"
    assert bad.witness == 3.0  # p_2 - u_hi_2 = 6 - 3


def test_double_guards():
    a = np.array([[B, 2.0], [-2.0, B]])
    with pytest.raises(DomainError):
        solve_double(a, np.zeros(2), np.array([5.0, B]))
    with pytest.raises(DomainError):
        solve_double(a, np.zeros(3), np.full(2, 5.0))
    for flat in (1.0, [0.0]):
        with pytest.raises(DomainError):
            solve_double(flat, [0.0], [0.0])


def test_double_family_is_complete_against_dense_scan():
    """Integer scan of a small window: family membership matches the raw
    inequalities point for point."""
    a = np.array([[B, 2.0], [-2.0, B]])
    p = np.array([0.0, 0.0])
    q = np.array([5.0, 5.0])
    fam = solve_double(a, p, q)
    grid = np.arange(-1.0, 7.0)
    for x1, x2 in itertools.product(grid, grid):
        x = np.array([x1, x2])
        solves = bool(np.all(np.maximum(mat_vec(a, x), p) <= x) and np.all(x <= q))
        # a solution is exactly a fixed point A* x = x inside [p, u_hi]
        in_family = bool(
            np.array_equal(mat_vec(fam.generator, x), x)
            and np.all(fam.u_lo <= x)
            and np.all(x <= fam.u_hi)
        )
        assert solves == in_family


def test_parameter_upper_bound_matches_definition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        star = dyadic_with_bottom(rng, (n, n), p_bottom=0.4)
        np.fill_diagonal(star, np.maximum(np.diagonal(star), 0.0))
        q = dyadic(rng, n, limit=2**10)
        u = parameter_upper_bound(star, q)
        assert np.all(mat_vec(star, u) <= q)
        bigger = u + 1.0 / 8.0
        assert not np.all(mat_vec(star, bigger) <= q)
