"""Brute-force lattice oracle: exhaustiveness, ordering, resource guards."""

import tracemalloc

import numpy as np
import pytest

from support import tight_caps_instance, two_point_instance
from tropiloc import ChebyshevInstance, grid_feasible, grid_minimize
from tropiloc.errors import DomainError, ResourceError
from tropiloc.semiring import BOTTOM


def test_two_point_minimum_on_aligned_lattice():
    inst = two_point_instance()
    res = grid_minimize(inst, [-10.0, -10.0], [10.0, 10.0], 0.05)
    assert res.feasible
    # the optimum sits on the lattice, so the bracket collapses
    assert res.best_value == 2.0
    assert res.grid_step == 0.05
    assert res.evaluated == 401 * 401


def test_minimizers_come_back_lexicographically():
    inst = two_point_instance()
    res = grid_minimize(inst, [-10.0, -10.0], [10.0, 10.0], 0.05)
    pts = res.best_points
    # optimal set is the segment x1 = 2, -2 <= x2 <= 2: 81 lattice points
    assert pts.shape == (81, 2)
    assert np.all(pts[:, 0] == 2.0)
    assert np.array_equal(pts[0], np.array([2.0, -2.0]))
    assert np.array_equal(pts[-1], np.array([2.0, 2.0]))
    assert np.all(np.diff(pts[:, 1]) > 0)


def test_points_kept_from_earlier_chunks_are_dropped():
    from tropiloc.oracle import _CHUNK

    inst = ChebyshevInstance(
        points=[[140.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-400.0],
        box_hi=[150.0],
        diff_bounds=np.full((1, 1), BOTTOM),
    )
    # 563,201 lattice points make three chunks for m = n = 1.  The running
    # best improves in every chunk, so the points each earlier chunk kept
    # (its last one) must not survive into best_points.
    res = grid_minimize(inst, [-400.0], [150.0], 2.0**-10)
    assert res.evaluated == 563201
    assert res.evaluated > 2 * _CHUNK
    assert res.best_value == 0.0
    assert np.array_equal(res.best_points, np.array([[140.0]]))


def test_infeasible_instance_reports_no_value():
    inst = tight_caps_instance()
    res = grid_minimize(inst, [-20.0], [20.0], 0.05)
    assert not res.feasible
    assert res.best_value is None
    assert res.best_points.shape == (0, 1)
    assert not grid_feasible(inst, [-20.0], [20.0], 0.05)


def test_feasibility_probe_positive():
    assert grid_feasible(two_point_instance(), [-10.0, -10.0], [10.0, 10.0], 0.5)


def test_window_validation():
    inst = two_point_instance()
    with pytest.raises(DomainError, match="window dimension"):
        grid_minimize(inst, [-1.0], [1.0], 0.1)
    with pytest.raises(DomainError):
        grid_minimize(inst, [-1.0, -1.0], [1.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        grid_minimize(inst, [-1.0, -1.0], [1.0, 1.0], -0.5)
    with pytest.raises(DomainError):
        grid_minimize(inst, [1.0, 1.0], [-1.0, -1.0], 0.1)
    with pytest.raises(DomainError):
        grid_minimize(inst, [-1.0, np.nan], [1.0, 1.0], 0.1)
    # a bool is not a step, though bool subclasses int
    with pytest.raises(DomainError, match="step must be a positive real"):
        grid_minimize(inst, [-1.0, -1.0], [1.0, 1.0], True)
    with pytest.raises(DomainError, match="step must be a positive real"):
        grid_feasible(inst, [-1.0, -1.0], [1.0, 1.0], True)


def test_window_bounds_of_unequal_length():
    from tropiloc.oracle import _lattice_axes

    with pytest.raises(DomainError, match=r"^window bounds must be equal-length vectors, got \(2,\) and \(1,\)$"):
        _lattice_axes([0.0, 0.0], [1.0], 0.5)


def test_dimension_cap():
    from tropiloc.oracle import _lattice_axes

    with pytest.raises(DomainError, match="dimension <= 3"):
        _lattice_axes([0.0] * 4, [1.0] * 4, 0.5)


def test_resource_guard():
    inst = two_point_instance()
    with pytest.raises(ResourceError):
        grid_minimize(inst, [-10.0, -10.0], [10.0, 10.0], 0.05, max_points=1000)
    with pytest.raises(ResourceError):
        grid_feasible(inst, [-10.0, -10.0], [10.0, 10.0], 0.05, max_points=1000)


def test_lattice_cap_checked_before_allocating():
    # a window of 1e7 + 1 points: the cap must trip on the per-axis counts,
    # before any per-point array exists
    inst = tight_caps_instance()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="exceeds the cap of 1000"):
            grid_minimize(inst, [0.0], [1.0], 1e-7, max_points=1000)
        with pytest.raises(ResourceError, match="exceeds the cap of 1000"):
            grid_feasible(inst, [0.0], [1.0], 1e-7, max_points=1000)
        with pytest.raises(ResourceError, match="lattice of inf points"):
            grid_feasible(inst, [-1e308], [1e308], 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_chunk_size_follows_instance_size():
    # (chunk, m, n) distance arrays: with m = 1000, n = 2 a chunk of the
    # whole 3600-point lattice would build 55 MiB temporaries
    rng = np.random.default_rng(0)
    m = 1000
    inst = ChebyshevInstance(
        points=rng.random((m, 2)),
        weights=np.ones(m),
        addends=np.zeros(m),
        caps=np.full(m, 2.0),
        box_lo=[0.0, 0.0],
        box_hi=[1.0, 1.0],
        diff_bounds=np.full((2, 2), BOTTOM),
    )
    tracemalloc.start()
    try:
        res = grid_minimize(inst, [0.0, 0.0], [59.0 / 64.0, 59.0 / 64.0], 1.0 / 64.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.evaluated == 3600 and res.feasible
    assert peak < 16 << 20


def test_chunked_scan_crosses_chunk_boundary():
    from tropiloc.oracle import _CHUNK

    inst = ChebyshevInstance(
        points=[[100.0]],
        weights=[1.0],
        addends=[0.0],
        box_lo=[-150.0],
        box_hi=[150.0],
        diff_bounds=np.full((1, 1), BOTTOM),
    )
    # 300,001 lattice points spill past one 262,144-point chunk (m = n = 1),
    # so the minimum (at x = 100) lives in the second chunk
    res = grid_minimize(inst, [-150.0], [150.0], 0.001)
    assert res.evaluated == 300001
    assert res.evaluated > _CHUNK
    assert res.best_value == 0.0
    assert np.array_equal(res.best_points, np.array([[100.0]]))


def test_oracle_respects_boundary_slack():
    # a minimizer exactly on the box face must not be lost to float fuzz
    inst = two_point_instance()
    res = grid_minimize(inst, [-10.0, -10.0], [10.0, 10.0], 2.5)
    assert res.feasible
    assert res.best_value == 2.5  # lattice hits x1 = 2.5, not 2.0
