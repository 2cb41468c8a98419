"""Shared test data builders, and recorders of the Python frames and lines calls run.

Random numeric data is dyadic (integer / 8, magnitudes well under 2**20) so
every float addition in the code under test is exact and equality checks are
meaningful.  The frozen example instances were each confirmed against the
grid oracle before their values were pinned in the tests.
"""

import dataclasses
import sys

import numpy as np

from tropiloc import ChebyshevInstance, StripInstance, TiltedStripInstance
from tropiloc.semiring import BOTTOM, conjugate_transpose, mat_mul, mat_vec, vec_mat

DY_LIMIT = 2**20


def dyadic(rng, shape=None, limit=DY_LIMIT):
    """Dyadic floats k/8 with |k| <= limit; exact under addition."""
    return rng.integers(-limit, limit + 1, shape).astype(np.float64) / 8.0


def dyadic_with_bottom(rng, shape, p_bottom=0.15, limit=2**16):
    out = dyadic(rng, shape, limit)
    mask = rng.random(shape) < p_bottom
    out[mask] = BOTTOM
    return out


def nonpos_cycle_matrix(rng, n, density=0.5, limit=64):
    """Random matrix with Tr <= 0, built from a potential so cycle sums
    telescope to -(slack sum) <= 0 exactly (dyadic entries)."""
    a = np.full((n, n), BOTTOM)
    phi = rng.integers(-limit, limit + 1, n).astype(np.float64) / 8.0
    for i in range(n):
        for k in range(n):
            if rng.random() < density:
                slack = rng.integers(0, 17) / 8.0
                a[i, k] = phi[i] - phi[k] - slack
    return a


def potential_bounds_reference(rng, n, density):
    """generate._potential_bounds as the literal loop: per off-diagonal entry
    in row-major order one rng.random(), and one rng.integers(1, 5) for an
    entry it keeps."""
    units = np.full((n, n), BOTTOM)
    if rng.random() < 0.35 or n == 1:
        return units
    phi = rng.integers(-3, 4, n)
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            if rng.random() < density:
                units[i, k] = float(phi[i] - phi[k] - rng.integers(1, 5))
    if rng.random() < 0.2:
        d = rng.integers(0, n)
        units[d, d] = float(-rng.integers(0, 3))
    return units


def rescaled(inst, f: float):
    """inst with every length-valued field (points, caps, box, difference
    bounds or strip ends) and every addend multiplied by f > 0."""
    fields = {name: getattr(inst, name) * f for name in ("points", "addends", "box_lo", "box_hi")}
    if inst.caps is not None:
        fields["caps"] = inst.caps * f
    if hasattr(inst, "strip_lo"):
        fields.update(strip_lo=inst.strip_lo * f, strip_hi=inst.strip_hi * f)
    else:
        fields["diff_bounds"] = inst.diff_bounds * f
    return dataclasses.replace(inst, **fields)


def closure_reference(a):
    """trace_and_closure as the literal one-line relaxation, under numpy's
    default ufunc buffer of 8192 elements: the same pivots, the same early exit
    on the first positive diagonal entry and the same returned bits."""
    d = np.array(a, dtype=np.float64)
    n = d.shape[0]
    saved = np.setbufsize(8192)
    try:
        for k in range(n + 1):
            gauge = float(np.diagonal(d).max())
            if not gauge <= 0.0:
                return gauge, None
            if k < n:
                d = np.maximum(d, d[:, k, None] + d[None, k, :])
    finally:
        np.setbufsize(saved)
    np.fill_diagonal(d, np.maximum(np.diagonal(d), 0.0))
    return gauge, d


def fixed_point_reference(b, x, rows, budget=None):
    """(z, products): chebyshev._Star's iteration with the full product at every step.

    z <- max(z, z (x) B) for rows, else z <- max(z, B (x) z), from x + 0, one
    vector x, at most n products.  With a budget, z is None where the
    iteration gives up: on reaching budget products, or after n products
    that all moved z.  Without one, z is the last iterate.
    """
    z = x + 0.0
    n = b.shape[0]
    for spent in range(n):
        if budget is not None and spent >= budget:
            return None, spent
        y = np.max(z[:, None] + b, axis=0) if rows else np.max(b + z[None, :], axis=1)
        if not np.any(y > z):
            return z, spent + 1
        z = np.maximum(z, y)
    return (z if budget is None else None), n


def theta_reference(cp, absc, w, h, star, fixed_lo, fixed_hi):
    """Closed-form theta as the literal loop over closure entries (i, k).

    cp are the scaled points c * p, absc = |c|; fixed_lo/fixed_hi are the
    cap/box envelopes in scaled coordinates.  Each finite b = B*[i, k] couples
    every point pair (j, l) and bounds each point against the box sides.
    """
    best = BOTTOM
    hj = h[:, None]
    hl = h[None, :]
    wj = w[:, None]
    wl = w[None, :]
    for i in range(cp.shape[1]):
        col_i = cp[:, i]
        for k in range(cp.shape[1]):
            b = star[i, k]
            if b == BOTTOM:
                continue
            base = (b - col_i)[:, None] + cp[:, k][None, :]
            num = absc[i] * wl * hj + absc[k] * wj * hl + (wj * wl) * base
            den = absc[i] * wl + absc[k] * wj
            best = max(best, float(np.max(num / den)))
            lo_side = h + (w / absc[i]) * ((b - col_i) + fixed_lo[k])
            best = max(best, float(np.max(lo_side)))
            hi_side = h + (w / absc[k]) * ((b - fixed_hi[i]) + cp[:, k])
            best = max(best, float(np.max(hi_side)))
    return best


def theta_grid(cp, absc, w, h, star, fixed_lo, fixed_hi):
    """Closed-form theta as the full (j, l) grid of pair terms per |c| group pair.

    Same arguments as theta_reference.  Axes of equal |c| share the
    denominator and each pair term is monotone in b - cp_ji + cp_lk, so for a
    group pair the max over closure entries (i, k) is two max-plus products:
    O(m^2) time and memory per group pair.
    """
    hj = h[:, None]
    hl = h[None, :]
    wj = w[:, None]
    wl = w[None, :]
    hi_row = vec_mat(conjugate_transpose(fixed_hi), star)   # row k: max_i b_ik - fixed_hi_i
    groups = [(a, np.flatnonzero(absc == a)) for a in set(absc.tolist())]
    best = BOTTOM
    for alpha, ia in groups:
        cpa = cp[:, ia]
        reach = mat_mul(-cpa, star[ia])                     # (m, n): max_{i in ia} b_ik - cp_ji
        sides = np.maximum(mat_vec(reach, fixed_lo), mat_vec(cpa, hi_row[ia]))
        best = max(best, float((h + (w / alpha) * sides).max()))
        awl = alpha * wl
        for beta, ib in groups:
            block = reach[:, ib]
            if block.max() == BOTTOM:
                continue                                    # no closure entry couples the two groups
            coupling = mat_mul(block, cp[:, ib].T)          # (m, m): max_{k in ib} reach_jk + cp_lk
            bwj = beta * wj
            best = max(best, float(((awl * hj + bwj * hl + (wj * wl) * coupling) / (awl + bwj)).max()))
    return best


B2 = np.full((2, 2), BOTTOM)
B1 = np.full((1, 1), BOTTOM)


def two_point_instance():
    # oracle-confirmed: theta = 2
    return ChebyshevInstance(
        points=[[0.0, 0.0], [4.0, 0.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        caps=[10.0, 10.0],
        box_lo=[-10.0, -10.0],
        box_hi=[10.0, 10.0],
        diff_bounds=B2,
    )


def clipped_variant_instance():
    # two_point_instance with upper box (1, 10); oracle-confirmed theta = 3
    return ChebyshevInstance(
        points=[[0.0, 0.0], [4.0, 0.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        caps=[10.0, 10.0],
        box_lo=[-10.0, -10.0],
        box_hi=[1.0, 10.0],
        diff_bounds=B2,
    )


def tight_caps_instance():
    # infeasible on the line: caps of 1 around 0 and 10; bounds gap 8
    return ChebyshevInstance(
        points=[[0.0], [10.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        caps=[1.0, 1.0],
        box_lo=[-100.0],
        box_hi=[100.0],
        diff_bounds=B1,
    )


def degenerate_strip_instance():
    # strip pinched to the line x1 = 0; oracle-confirmed theta = 4 at (0, 0)
    return StripInstance(
        points=[[0.0, 0.0], [4.0, 0.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=[-100.0, -100.0],
        box_hi=[100.0, 100.0],
        strip_lo=0.0,
        strip_hi=0.0,
    )


def wide_strip_instance():
    # non-binding strip; oracle-confirmed theta = 2
    return StripInstance(
        points=[[0.0, 0.0], [2.0, 2.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=[-100.0, -100.0],
        box_hi=[100.0, 100.0],
        strip_lo=-100.0,
        strip_hi=100.0,
    )


def tilted_line_instance():
    # constrained to x2 = 2*x1; oracle-confirmed theta = 3 at (1, 2)
    return TiltedStripInstance(
        points=[[0.0, 0.0], [0.0, 4.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=[-100.0, -100.0],
        box_hi=[100.0, 100.0],
        strip_lo=0.0,
        strip_hi=0.0,
        slope=2.0,
    )


def python_frames(calls) -> set[tuple[str, str]]:
    # (file, function) of every Python frame entered while calls run.
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    return seen


def python_lines(calls, function) -> set[int]:
    # The line numbers of function's source that ran while calls run.  A
    # tracer already installed (a coverage tool's) goes on tracing every frame.
    seen = set()
    code = function.__code__
    previous = sys.gettrace()

    def hook(frame, event, arg):
        inner = previous(frame, event, arg) if previous is not None else None
        if frame.f_code is not code:
            return inner

        def lines(frame, event, arg):
            nonlocal inner
            if event == "line":
                seen.add(frame.f_lineno)
            if inner is not None:
                inner = inner(frame, event, arg)
            return lines

        return lines

    sys.settrace(hook)
    try:
        for call in calls:
            call()
    finally:
        sys.settrace(previous)
    return seen
