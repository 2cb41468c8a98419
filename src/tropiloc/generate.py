"""Random instance generation.

Feasible instances are drawn on a per-instance data grid chosen from the
weight scheme so that, in exact arithmetic, an optimal point and the
feasibility witness both land on the 0.05 reference lattice used by the
grid oracle: unit weights use grid 0.1, equal integer weights w use 0.1*w,
mixed {1, 2} weights use 0.6 (strips double these, because the rotation
back to plane coordinates halves coordinates once more).  Feasibility is
guaranteed by certificate-checked rejection with widening, which terminates
because dropping caps and widening the box always succeeds for
potential-generated difference bounds.

Engineered infeasible instances come in two flavors: caps too tight across
the widest point pair (bounds certificate fails with a margin of at least
one grid unit) and a positive cycle planted in the difference bounds
(spectral certificate fails).  Both are infeasible in truth, not just by
certificate, so lattice scans agree.
"""

from __future__ import annotations

import numpy as np

from .boxes import rotate45
from .chebyshev import ChebyshevInstance, ScaledChebyshevInstance
from .rectilinear import StripInstance, TiltedStripInstance
from .semiring import BOTTOM
from .variants import TABLE, check_feasibility

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
    potential, so every cycle weight is <= -2 units exactly and stays
    negative under float rounding of unit * grid products (the spectral
    certificate is a strict sign test with no tolerance).
    """
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


def _widen(caps, box_lo_u, box_hi_u, amount: int):
    if caps is not None:
        caps = np.where(np.isinf(caps), caps, caps * 2 + amount)
    return caps, box_lo_u - amount, box_hi_u + amount


def random_instance(variant: str, n: int, m: int, seed: int, *, extent: int = 12):
    """A random feasible instance of the given variant.

    n is the dimension (must be 2 for the rectilinear variants), m the
    number of points.  The same seed always yields the same instance.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if m < 1 or n < 1:
        raise ValueError("n and m must be positive")
    if variant.startswith("rectilinear") and n != 2:
        raise ValueError(f"{variant} instances live in the plane (n = 2), got n = {n}")
    rng = np.random.default_rng(seed)
    if variant == "chebyshev":
        return _random_chebyshev(rng, n, m, extent)
    if variant == "chebyshev_scaled":
        return _random_scaled(rng, n, m, extent)
    if variant == "rectilinear_strip":
        return _random_strip(rng, m, extent, tilted=False)
    return _random_strip(rng, m, extent, tilted=True)


def _random_chebyshev(rng, n, m, extent, scale=None):
    weights, gamma = _pick_scheme(rng, m)
    pts_u = rng.integers(-extent + 2, extent - 1, (m, n)).astype(np.float64)
    h_u = rng.integers(-4, 5, m).astype(np.float64)
    bounds_u = _potential_bounds(rng, n, density=0.45)
    caps_u = _cap_units(rng, pts_u, "dinf")
    lo_u = pts_u.min(axis=0) - rng.integers(2, 6, n)
    hi_u = pts_u.max(axis=0) + rng.integers(2, 6, n)
    for _ in range(10):
        kwargs = dict(
            points=pts_u * gamma,
            weights=weights,
            addends=h_u * gamma,
            caps=None if caps_u is None else caps_u * gamma,
            box_lo=lo_u * gamma,
            box_hi=hi_u * gamma,
            diff_bounds=bounds_u * gamma,
        )
        if scale is None:
            inst = ChebyshevInstance(**kwargs)
        else:
            inst = ScaledChebyshevInstance(**kwargs, scale=scale)
        if check_feasibility(inst).feasible:
            return inst
        caps_u, lo_u, hi_u = _widen(caps_u, lo_u, hi_u, 4)
    raise RuntimeError("instance generation failed to reach feasibility")


def _random_scaled(rng, n, m, extent):
    scale = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
    return _random_chebyshev(rng, n, m, extent, scale=scale)


def _random_strip(rng, m, extent, *, tilted: bool):
    weights, gamma = _pick_scheme(rng, m)
    gamma *= 2.0
    pts_u = rng.integers(-extent + 2, extent - 1, (m, 2)).astype(np.float64)
    h_u = rng.integers(-4, 5, m).astype(np.float64)
    caps_u = _cap_units(rng, pts_u, "d1")
    rot_u = rotate45(pts_u)
    lo_u = rot_u.min(axis=0) - rng.integers(2, 8, 2)
    hi_u = rot_u.max(axis=0) + rng.integers(2, 8, 2)
    if tilted:
        slope = float(rng.choice([-3.0, -2.0, 0.0, 2.0, 3.0]))
        band = slope * pts_u[:, 0] - pts_u[:, 1]
        a_u = np.floor(band.min()) - rng.integers(0, 4)
        b_u = np.ceil(band.max()) + rng.integers(0, 4)
    else:
        slope = None
        a_u = pts_u[:, 0].min() - rng.integers(0, 4)
        b_u = pts_u[:, 0].max() + rng.integers(0, 4)
        if rng.random() < 0.25:
            mid = float(np.round(pts_u[:, 0].mean()))
            a_u = b_u = mid
    for _ in range(10):
        kwargs = dict(
            points=pts_u * gamma,
            weights=weights,
            addends=h_u * gamma,
            caps=None if caps_u is None else caps_u * gamma,
            box_lo=lo_u * gamma,
            box_hi=hi_u * gamma,
            strip_lo=float(a_u) * gamma,
            strip_hi=float(b_u) * gamma,
        )
        if tilted:
            inst = TiltedStripInstance(**kwargs, slope=slope)
        else:
            inst = StripInstance(**kwargs)
        if check_feasibility(inst).feasible:
            return inst
        caps_u, lo_u, hi_u = _widen(caps_u, lo_u, hi_u, 4)
        if not tilted and a_u != b_u:
            a_u -= 1
            b_u += 1
    raise RuntimeError("instance generation failed to reach feasibility")


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
        lo_u = pts_u[0] + 4
        hi_u = pts_u[0] + 8
        return ChebyshevInstance(
            points=pts_u * gamma,
            weights=np.ones(1),
            addends=np.zeros(1),
            caps=np.array([2.0 * gamma]),
            box_lo=lo_u * gamma,
            box_hi=hi_u * gamma,
            diff_bounds=np.full((n, n), BOTTOM),
        )
    if mode == "caps":
        pts_u = rng.integers(-8, 9, (m, n)).astype(np.float64)
        # force a widest pair: 16 units apart on coordinate 0, the most in [-8, 8]
        pts_u[0, 0] = -8.0
        pts_u[1, 0] = 8.0
        j, l, sep = 0, 1, 16.0
        caps_u = np.full(m, sep * 2.0)
        caps_u[j] = np.floor(sep / 2) - 1.0
        caps_u[l] = np.floor(sep / 2) - 1.0
        bounds_u = np.full((n, n), BOTTOM)
    else:
        pts_u = rng.integers(-8, 9, (m, n)).astype(np.float64)
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
