"""Random instance generation.

Feasible instances are drawn on a per-instance data grid chosen from the
weight scheme so that, in exact arithmetic, an optimal point and the
feasibility witness both land on the 0.05 reference lattice used by the
grid oracle: unit weights use grid 0.1, equal integer weights w use 0.1*w,
mixed {1, 2} weights use 0.6 (strips double these, because the rotation
back to plane coordinates halves coordinates once more).

Two builders draw the data in grid units: one for the Chebyshev variants
(plain, or scaled with c drawn first) and one for the plane variants (the
vertical strip or the tilted band).  Both hand it to one loop that builds
the instance, runs the feasibility certificates and, on failure, widens the
caps and the box before the next of at most 10 tries.  Widening terminates
because large enough caps and box always admit a point for
potential-generated difference bounds; a strip or band is drawn to hold
every point, or as a line that growing caps and box reach.

Difference bounds keep each off-diagonal entry with a fixed probability and
give it a random slack, as a loop over the n (n - 1) entries of one
rng.random() and, for a kept entry, one rng.integers(1, 5) would.  The
loop itself took about 0.1 s at n = 300, so the draws are replayed in bulk
instead: the generator's raw 64-bit outputs are drawn at once, and the
rules by which numpy turns them into floats and bounded integers (with the
32-bit half that PCG64 keeps pending between integer draws) pick out
which outputs the loop would have read, and how.  The generator is then
moved to where the loop would leave it, so every later draw, and every
generated instance, keeps its bytes (D. Lemire, "Fast random integer
generation in an interval", ACM TOMACS 2019; M. E. O'Neill, "PCG: a
family of simple fast space-efficient statistically good algorithms for
random number generation", 2014).

Engineered infeasible instances come in two flavors: caps too tight across
the widest point pair (bounds certificate fails with a margin of at least
one grid unit) and a positive cycle planted in the difference bounds
(spectral certificate fails).  Both are infeasible in truth, not just by
certificate, so lattice scans agree.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import rotate45
from .chebyshev import ChebyshevInstance, ScaledChebyshevInstance
from .rectilinear import TiltedStripInstance
from .semiring import BOTTOM
from .variants import BY_NAME, TABLE, check_feasibility

VARIANTS = tuple(v.name for v in TABLE)

_SCHEMES = ("ones", "equal", "mixed")


def _pick_scheme(rng, m: int) -> tuple[np.ndarray, float]:
    scheme = _SCHEMES[rng.integers(0, len(_SCHEMES))]
    if scheme == "ones":
        return np.ones(m), 0.1
    if scheme == "equal":
        w0 = float(rng.choice([2.0, 4.0]))
        return np.full(m, w0), 0.1 * w0
    return rng.choice([1.0, 2.0], size=m), 0.6


def _potential_bounds(rng, n: int, density: float) -> np.ndarray:
    """Difference bounds with no positive cycle, in grid units.

    Off-diagonal entries keep at least one unit of slack under the
    potential phi, so every cycle through two or more nodes weighs <= -2
    units exactly and stays negative under float rounding of unit * grid
    products (the spectral certificate is a strict sign test with no
    tolerance).  The optional planted loop on one node weighs 0, -1 or -2
    units: never positive.  Entry (i, k) is kept with probability density,
    at phi_i - phi_k minus a slack of 1 to 4 units, in row-major order, as
    _replayed_slack draws them.
    """
    units = np.full((n, n), BOTTOM)
    if rng.random() < 0.35 or n == 1:
        return units
    phi = rng.integers(-3, 4, n)
    kept, slack = _replayed_slack(rng.bit_generator, n * (n - 1), density)
    i, r = np.divmod(kept.nonzero()[0], n - 1)
    k = r + (r >= i)  # the entries skip the diagonal
    units[i, k] = phi[i] - phi[k] - slack
    if rng.random() < 0.2:
        d = rng.integers(0, n)
        units[d, d] = float(-rng.integers(0, 3))
    return units


def _replayed_slack(bits, entries: int, density: float) -> tuple[np.ndarray, np.ndarray]:
    """(kept, slack): what a loop over the entries draws, read off bits' raw stream at once.

    The loop keeps an entry if rng.random() < density and then draws its
    slack, rng.integers(1, 5); bits is the loop's PCG64.  random() is
    (r >> 11) 2**-53 for the next 64-bit output r, so it is < density
    exactly when r < ceil(density 2**53) 2**11.  integers(1, 5) is
    1 + (h >> 30) for the next 32-bit half h: Lemire's method never rejects
    for a range of 4.  PCG64 serves halves from a one-slot buffer.  With
    the slot empty it draws an output, returns its low half and keeps the
    high half pending; 64-bit reads neither use nor clear the slot.

    So each output is in one of three states as the loop reaches it: 0, the
    slot is empty; 1, the kept entry before it splits it into halves; 2, a
    half is pending.  An output below density moves the state from s to
    s + 1 mod 3 (it is a kept entry, or it is split); any other output moves
    1 to 2 and keeps 0 and 2.  So a run of outputs below density starts in
    state 0 or 2, the state climbs through it, and the output that ends the
    run (span outputs in all) leaves the state as the run found it when
    span = 1 mod 3, swaps 0 and 2 when span = 2 mod 3, and leaves 2 when
    span = 0 mod 3.  That gives the state at the start of every run in a few
    vector operations, and with it the outputs that the run splits.  At most
    entries + ceil(entries / 2) outputs cover the loop.  bits is then set to
    where the loop leaves it: past the outputs it used, with its slot.
    """
    start = bits.state
    pending = start["has_uint32"]
    total = entries + (entries + 1) // 2
    raw = bits.random_raw(total)
    keep = raw < (math.ceil(density * 2.0**53) << 11)  # (r >> 11) 2**-53 < density, as integers
    padded = np.concatenate(([False], keep, [False]))
    starts, stops = (padded[1:] != padded[:-1]).nonzero()[0].reshape(-1, 2).T  # the runs below density
    span = stops - starts + 1  # the run and the output that ends it
    move = span[:-1] % 3  # 1 keeps the state, 2 swaps 0 and 2, 0 leaves 2
    swaps = np.logical_xor.accumulate(move == 2)
    reset = np.maximum.accumulate(np.where(move == 0, np.arange(move.size), -1))
    held = np.concatenate(([pending], np.where(reset >= 0, ~swaps[reset], pending) ^ swaps))  # 1 where the run starts in state 2
    first = starts + 1 + held  # the run splits first, first + 3, ... up to its end
    splits = (span + 1 - held) // 3
    drawn = np.ones(total + 1, dtype=bool)  # the outputs that random() returns, and one to spare
    for k in range(np.maximum.reduce(splits, initial=0)):
        drawn[first[splits > k] + 3 * k] = False
    at = drawn.nonzero()[0]
    kept = keep[at[:entries]]
    used = int(at[entries])  # past the last entry, and past the output it split if it split one
    split = raw[np.logical_not(drawn[:used]).nonzero()[0]]
    halves = np.concatenate((np.array([start["uinteger"]] * pending, np.uint32), split.astype("<u8", copy=False).view("<u4")))
    slack = (halves[: np.count_nonzero(kept)] >> 30) + 1
    bits.state = start
    bits.advance(used)
    end = bits.state
    end["has_uint32"] = halves.size - slack.size
    end["uinteger"] = int(halves[-1]) if halves.size else start["uinteger"]
    bits.state = end
    return kept, slack


def _diameter(pts_units: np.ndarray, metric: str) -> int:
    """Largest distance between two points, in O(m n) time and memory.

    Chebyshev: the largest per-axis range.  Rectilinear, in the plane: the
    larger range of x1 + x2 and x1 - x2, since |a| + |b| = max(|a + b|, |a - b|).
    """
    if metric == "dinf":
        return int(np.ptp(pts_units, axis=0).max())
    x1, x2 = pts_units.T
    return int(max(np.ptp(x1 + x2), np.ptp(x1 - x2)))


def _cap_units(rng, pts_units: np.ndarray, metric: str) -> np.ndarray | None:
    if rng.random() < 0.3:
        return None
    diam = _diameter(pts_units, metric)
    lo = diam // 2 + 1
    caps = rng.integers(lo + 1, lo + diam + 8, pts_units.shape[0]).astype(np.float64)
    if rng.random() < 0.25:
        caps[rng.integers(0, caps.shape[0])] = np.inf
    return caps


def random_instance(variant: str, n: int, m: int, seed: int, *, extent: int = 12):
    """A random feasible instance of the given variant.

    n is the dimension (must be 2 for the rectilinear variants), m the
    number of points, and points are drawn from the integer grid units
    -extent + 2 to extent - 2 (extent must be at least 2).  The same seed
    always yields the same instance.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if m < 1 or n < 1:
        raise ValueError("n and m must be positive")
    if extent < 2:
        raise ValueError(f"extent must be at least 2, got {extent}")
    entry = BY_NAME[variant]
    if entry.rotate45 and n != 2:
        raise ValueError(f"{variant} instances live in the plane (n = 2), got n = {n}")
    build = _random_plane if entry.rotate45 else _random_chebyshev
    return build(np.random.default_rng(seed), entry.instance, n, m, extent)


def _certified(cls, gamma: float, units: dict, **fixed):
    """The first of up to 10 widened tries that passes check_feasibility.

    units holds the arguments in grid units, scaled by gamma on every try;
    fixed holds the rest (weights, scale, slope).  After a failed try each
    finite cap becomes cap * 2 + 4 units and the box grows by 4 units on
    each side.
    """
    for _ in range(10):
        inst = cls(**fixed, **{k: None if u is None else u * gamma for k, u in units.items()})
        if check_feasibility(inst).feasible:
            return inst
        caps = units["caps"]
        if caps is not None:
            units["caps"] = np.where(np.isinf(caps), caps, caps * 2 + 4)
        units["box_lo"] = units["box_lo"] - 4
        units["box_hi"] = units["box_hi"] + 4
    raise RuntimeError("instance generation failed to reach feasibility")


def _random_chebyshev(rng, cls, n, m, extent):
    fixed = {}
    if cls is ScaledChebyshevInstance:
        fixed["scale"] = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
    weights, gamma = _pick_scheme(rng, m)
    pts_u = rng.integers(-extent + 2, extent - 1, (m, n)).astype(np.float64)
    units = dict(points=pts_u, addends=rng.integers(-4, 5, m).astype(np.float64))
    units["diff_bounds"] = _potential_bounds(rng, n, density=0.45)
    units["caps"] = _cap_units(rng, pts_u, "dinf")
    units["box_lo"] = pts_u.min(axis=0) - rng.integers(2, 6, n)
    units["box_hi"] = pts_u.max(axis=0) + rng.integers(2, 6, n)
    return _certified(cls, gamma, units, weights=weights, **fixed)


def _random_plane(rng, cls, n, m, extent):
    weights, gamma = _pick_scheme(rng, m)
    pts_u = rng.integers(-extent + 2, extent - 1, (m, n)).astype(np.float64)
    units = dict(points=pts_u, addends=rng.integers(-4, 5, m).astype(np.float64))
    units["caps"] = _cap_units(rng, pts_u, "d1")
    rot_u = rotate45(pts_u)
    units["box_lo"] = rot_u.min(axis=0) - rng.integers(2, 8, n)
    units["box_hi"] = rot_u.max(axis=0) + rng.integers(2, 8, n)
    fixed = {}
    if cls is TiltedStripInstance:
        fixed["slope"] = float(rng.choice([-3.0, -2.0, 0.0, 2.0, 3.0]))
        band = fixed["slope"] * pts_u[:, 0] - pts_u[:, 1]
        a_u = np.floor(band.min()) - rng.integers(0, 4)
        b_u = np.ceil(band.max()) + rng.integers(0, 4)
    else:
        a_u = pts_u[:, 0].min() - rng.integers(0, 4)
        b_u = pts_u[:, 0].max() + rng.integers(0, 4)
        if rng.random() < 0.25:
            a_u = b_u = float(np.round(pts_u[:, 0].mean()))
    units.update(strip_lo=float(a_u), strip_hi=float(b_u))
    # strips double the grid, since the rotation back halves coordinates once more
    return _certified(cls, gamma * 2.0, units, weights=weights, **fixed)


def random_infeasible(n: int, m: int, seed: int, mode: str | None = None) -> ChebyshevInstance:
    """A Chebyshev instance that is infeasible in truth, not just by proxy.

    mode "caps" makes the two most separated points unreachable within their
    caps (bounds certificate fails by at least one grid unit); mode "cycle"
    plants a positive cycle in the difference bounds (spectral certificate
    fails).  Defaults to a seed-dependent choice.
    """
    if m < 1 or n < 1:
        raise ValueError("n and m must be positive")
    if mode not in (None, "caps", "cycle"):
        raise ValueError(f"mode must be 'caps', 'cycle' or None, got {mode!r}")
    rng = np.random.default_rng(seed)
    if mode is None:
        mode = "caps" if rng.random() < 0.5 else "cycle"
    if mode == "cycle" and n < 2:
        mode = "caps"
    gamma = 0.1
    if mode == "caps" and m == 1:
        # lone point: put the box strictly outside the cap ball
        pts_u = rng.integers(-2, 3, (1, n)).astype(np.float64)
        caps_u = np.array([2.0])
        bounds_u = np.full((n, n), BOTTOM)
        lo_u, hi_u = pts_u[0] + 4, pts_u[0] + 8
    else:
        pts_u = rng.integers(-8, 9, (m, n)).astype(np.float64)
        if mode == "caps":
            # force a widest pair: 16 units apart on coordinate 0, the most in [-8, 8]
            pts_u[0, 0] = -8.0
            pts_u[1, 0] = 8.0
            sep = 16.0
            caps_u = np.full(m, sep * 2.0)
            caps_u[:2] = np.floor(sep / 2) - 1.0
            bounds_u = np.full((n, n), BOTTOM)
        else:
            caps_u = None
            bounds_u = _potential_bounds(rng, n, density=0.3)
            gain = float(rng.integers(1, 4))
            bounds_u[0, 1] = gain
            bounds_u[1, 0] = gain
        lo_u = pts_u.min(axis=0) - 4
        hi_u = pts_u.max(axis=0) + 4
    return ChebyshevInstance(
        points=pts_u * gamma,
        weights=np.ones(m),
        addends=np.zeros(m),
        caps=None if caps_u is None else caps_u * gamma,
        box_lo=lo_u * gamma,
        box_hi=hi_u * gamma,
        diff_bounds=bounds_u * gamma,
    )


__all__ = ["VARIANTS", "random_instance", "random_infeasible"]
