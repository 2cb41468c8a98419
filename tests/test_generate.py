"""Random instance generators: determinism, feasibility, engineered failure."""

import tracemalloc

import numpy as np
import pytest

from tropiloc import (
    StripInstance,
    TiltedStripInstance,
    check_feasibility,
    emit_instance,
    grid_feasible,
    random_infeasible,
    random_instance,
    solve,
    verify,
)
from tropiloc import generate
from tropiloc.chebyshev import FeasibilityReport
from tropiloc.generate import VARIANTS, _certified, _diameter


def test_same_seed_same_instance():
    for variant in VARIANTS:
        a = random_instance(variant, 2, 3, 42)
        b = random_instance(variant, 2, 3, 42)
        assert emit_instance(a) == emit_instance(b)
    a = random_instance("chebyshev", 2, 3, 42)
    c = random_instance("chebyshev", 2, 3, 43)
    assert emit_instance(a) != emit_instance(c)


def test_argument_validation():
    with pytest.raises(ValueError, match="variant must be one of"):
        random_instance("euclidean", 2, 3, 0)
    with pytest.raises(ValueError, match="must be positive"):
        random_instance("chebyshev", 0, 3, 0)
    with pytest.raises(ValueError, match="must be positive"):
        random_instance("chebyshev", 2, 0, 0)
    with pytest.raises(ValueError, match="plane"):
        random_instance("rectilinear_strip", 3, 3, 0)
    with pytest.raises(ValueError, match="plane"):
        random_instance("rectilinear_tilted", 1, 3, 0)
    # points are drawn from -extent + 2 to extent - 2 grid units
    for extent in (1, 0, -3):
        with pytest.raises(ValueError, match="extent must be at least 2"):
            random_instance("chebyshev", 2, 3, 0, extent=extent)
    assert random_instance("rectilinear_strip", 2, 3, 0, extent=2).points.tolist() == [[0.0, 0.0]] * 3
    # random_infeasible checks its shape and mode before any draw, so that no
    # unknown mode falls through to the cycle construction.
    with pytest.raises(ValueError, match="must be positive"):
        random_infeasible(0, 3, 0)
    with pytest.raises(ValueError, match="must be positive"):
        random_infeasible(2, 0, 0)
    with pytest.raises(ValueError, match="mode must be"):
        random_infeasible(2, 3, 0, mode="foo")


def test_generated_instances_solve_and_verify():
    for variant in VARIANTS:
        for seed in range(12):
            inst = random_instance(variant, 2, 3, seed)
            assert check_feasibility(inst).feasible
            box = solve(inst)
            rep = verify(box, inst, 6, seed=seed)
            assert rep.passed, f"{variant} seed {seed}: {rep}"


def test_generated_dimension_spread():
    for n in (1, 2, 3, 5):
        inst = random_instance("chebyshev", n, 4, 7)
        assert inst.dim == n and inst.m == 4
        assert solve(inst).theta is not None


def test_variant_types():
    assert isinstance(random_instance("rectilinear_tilted", 2, 2, 1), TiltedStripInstance)
    strip = random_instance("rectilinear_strip", 2, 2, 1)
    assert isinstance(strip, StripInstance) and not isinstance(strip, TiltedStripInstance)


def _on_lattice(arr, pitch=0.05):
    arr = np.asarray(arr, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    return np.allclose(arr / pitch, np.round(arr / pitch), atol=1e-9)


def test_instance_data_sits_on_oracle_lattice():
    # everything finite in a generated instance is a multiple of 0.05, so a
    # 0.05 oracle scan can land exactly on optimal points
    for variant in VARIANTS:
        for seed in range(8):
            inst = random_instance(variant, 2, 3, seed)
            assert _on_lattice(inst.points)
            assert _on_lattice(inst.addends)
            assert _on_lattice(inst.box_lo)
            assert _on_lattice(inst.box_hi)
            if inst.caps is not None:
                assert _on_lattice(inst.caps)
            if hasattr(inst, "strip_lo"):
                assert _on_lattice([inst.strip_lo, inst.strip_hi])
            else:
                assert _on_lattice(inst.diff_bounds)


@pytest.mark.parametrize("variant", VARIANTS)
def test_generation_gives_up_after_ten_tries(monkeypatch, variant):
    # With every try reported infeasible the generator widens caps and box
    # ten times, then raises; each try is certified once.
    tries = []

    def refuse(inst):
        tries.append(inst)
        return FeasibilityReport(True, 0.0, False, 1.0)

    monkeypatch.setattr(generate, "check_feasibility", refuse)
    with pytest.raises(RuntimeError, match="^instance generation failed to reach feasibility$"):
        random_instance(variant, 2, 3, 0)
    assert len(tries) == 10
    assert np.all(tries[-1].box_lo < tries[0].box_lo) and np.all(tries[-1].box_hi > tries[0].box_hi)


def test_infeasible_caps_mode():
    for m in (1, 2, 4):
        for seed in range(6):
            inst = random_infeasible(2, m, seed, mode="caps")
            rep = check_feasibility(inst)
            assert not rep.feasible
            assert rep.spectral_ok and not rep.bounds_ok
            assert not grid_feasible(inst, inst.box_lo, inst.box_hi, 0.05)


def test_infeasible_caps_pair_is_the_widest():
    # the capped pair (0, 1) is the one the pairwise argmax picks, 16 units apart
    for seed in range(300):
        m, n = 2 + seed % 9, 1 + seed % 4
        inst = random_infeasible(n, m, seed, mode="caps")
        pts_u = np.round(inst.points / 0.1)
        diffs = np.abs(pts_u[:, None, :] - pts_u[None, :, :]).max(axis=2)
        j, l = np.unravel_index(np.argmax(diffs), diffs.shape)
        assert (j, l) == (0, 1) and diffs[j, l] == 16.0
        assert np.array_equal(inst.caps, np.where(np.arange(m) < 2, 7.0, 32.0) * 0.1)


def test_infeasible_caps_mode_in_linear_memory():
    tracemalloc.start()
    try:
        inst = random_infeasible(2, 100_000, 1, "caps")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, peak
    assert inst.m == 100_000


def test_infeasible_cycle_mode():
    for seed in range(6):
        inst = random_infeasible(2, 3, seed, mode="cycle")
        rep = check_feasibility(inst)
        assert not rep.feasible
        assert not rep.spectral_ok
        assert not grid_feasible(inst, inst.box_lo, inst.box_hi, 0.05)


def test_infeasible_default_mode_is_seeded():
    seen = {random_infeasible(2, 3, seed).caps is not None for seed in range(20)}
    # both modes occur: cycle mode leaves caps unset, caps mode sets them
    assert seen == {True, False}
    assert not check_feasibility(random_infeasible(1, 1, 5)).feasible


def test_infeasible_cycle_needs_two_dims():
    inst = random_infeasible(1, 2, 3, mode="cycle")
    # silently falls back to the caps construction in one dimension
    rep = check_feasibility(inst)
    assert not rep.feasible and rep.spectral_ok


def test_diameter_matches_pairwise_formula():
    # _diameter reads the point-set diameter off O(m n) ranges; it must equal
    # the max over all pairs that the generator used to compute.
    rng = np.random.default_rng(2)
    for _ in range(2000):
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        pts = rng.integers(-10, 11, (m, n)).astype(np.float64)
        diffs = np.abs(pts[:, None, :] - pts[None, :, :])
        assert _diameter(pts, "dinf") == int(np.max(diffs.max(axis=2)))
        plane = pts[:, :2] if n >= 2 else np.hstack([pts, pts])
        diffs = np.abs(plane[:, None, :] - plane[None, :, :])
        assert _diameter(plane, "d1") == int(np.max(diffs.sum(axis=2)))


def test_large_m_generation():
    # the diameter no longer builds an (m, m, n) array: m = 100 000 would need 149 GiB
    for variant in ("chebyshev", "rectilinear_strip"):
        inst = random_instance(variant, 2, 100_000, 4)
        assert inst.m == 100_000 and inst.caps is not None


def test_zero_width_strip_ends_keep_their_sign():
    # A zero-width strip is drawn as a = b = round(mean x1), which is -0.0
    # when the mean lies in (-0.5, 0).  Both ends keep that zero's sign, in
    # the instance and in its JSON: -0.0 + 0 would write 0.0 instead.
    zero_ends = {}
    for seed in range(80):
        inst = random_instance("rectilinear_strip", 2, 3, seed)
        if inst.strip_lo != inst.strip_hi:
            continue
        assert np.signbit(inst.strip_lo) == np.signbit(inst.strip_hi)
        a = repr(inst.strip_lo)
        assert f'"strip": {{\n    "a": {a},\n    "b": {a}\n  }}' in emit_instance(inst)
        if inst.strip_lo == 0.0:
            zero_ends[seed] = a
    assert zero_ends == {8: "-0.0", 23: "-0.0", 62: "0.0", 75: "0.0"}


def test_widening_moves_caps_and_box_and_keeps_the_strip():
    # No random_instance seed widens a plane instance, so drive the loop with
    # a box 5 units outside a 1-unit cap: one widening (caps 1 -> 6, box out
    # by 4) makes it feasible.  Strips, of nonzero width or none, keep their
    # ends, sign bit included.
    for ends in ((-1.0, 1.0), (-0.0, -0.0)):
        units = dict(
            points=np.zeros((1, 2)),
            addends=np.zeros(1),
            caps=np.array([1.0]),
            box_lo=np.array([5.0, 5.0]),
            box_hi=np.array([6.0, 6.0]),
            strip_lo=ends[0],
            strip_hi=ends[1],
        )
        inst = _certified(StripInstance, 0.2, units, weights=np.ones(1))
        assert inst.caps.tolist() == [6.0 * 0.2]
        assert inst.box_lo.tolist() == [1.0 * 0.2] * 2 and inst.box_hi.tolist() == [10.0 * 0.2] * 2
        kept = (ends[0] * 0.2, ends[1] * 0.2)
        assert (inst.strip_lo, inst.strip_hi) == kept
        assert np.signbit([inst.strip_lo, inst.strip_hi]).tolist() == np.signbit(kept).tolist()
