"""The exact theta of the closed form, and the bounds the float solver keeps to it.

Every float is a dyadic rational, so one power of two D turns all of the
theta kernel's float inputs into integers, and every term of the closed form
into a ratio of integers.  closure_exact relaxes the float difference bounds
B to B* in exact integer arithmetic, and theta_exact evaluates each term on
it in a literal loop and returns the largest as a Fraction: the exact theta
of the float inputs, with no rounding anywhere, the closure's included.

The bounds are first-order rounding analyses of the solver's float
evaluation, in units of u S, where u is the unit roundoff and S the largest
magnitude among the operands (see magnitude); the derivations are in
CHANGES.md.  THETA_ROUNDINGS + HOP_ROUNDINGS (n - 1) bounds
|theta - exact theta| times sigma, the least slope |c_i| / w_j of a piece
of the existence condition Phi: each path sum of B* that the solver rounds,
by iterating on B or in the closure, has at most n - 1 hops.  The solver's
box is its last evaluation of Phi, at theta, so rounding crosses it by at
most the float Phi(theta); the solver's own chebyshev._box_slack bounds
that, in the same units.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

U = float(np.finfo(np.float64).eps) / 2
THETA_ROUNDINGS = 75
HOP_ROUNDINGS = 30


def closure_exact(b) -> np.ndarray:
    """B* = I max B max B^2 max ..., exactly, on the float entries of B.

    A Floyd-Warshall relaxation in integers scaled by one power of two; the
    result is an object array of Fractions, with -inf for no path.  Raises
    ValueError on a positive cycle, where B* does not exist.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    finite = [x for x in b.ravel().tolist() if math.isfinite(x)]
    d = max([x.as_integer_ratio()[1] for x in finite], default=1)
    rows = [[int(Fraction(x) * d) if math.isfinite(x) else None for x in row] for row in b.tolist()]
    for i in range(n):
        rows[i][i] = 0 if rows[i][i] is None else max(rows[i][i], 0)
    for k in range(n):
        via = rows[k]
        for row in rows:
            first = row[k]
            if first is None:
                continue
            for j, second in enumerate(via):
                if second is not None and (row[j] is None or first + second > row[j]):
                    row[j] = first + second
    if any(rows[i][i] > 0 for i in range(n)):
        raise ValueError("B has a positive cycle")
    out = np.empty((n, n), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = -math.inf if x is None else Fraction(x, d)
    return out


def cycle_weight(b, cycle) -> Fraction:
    """The exact weight of the cycle k_0, k_1, ... of B, each entry's predecessor after it.

    Its edges are b[k_1, k_0], b[k_2, k_1], ..., b[k_0, k_last], as
    chebyshev._Star._positive_cycle returns a cycle.
    """
    return sum(Fraction(float(b[cycle[(j + 1) % len(cycle)], k])) for j, k in enumerate(cycle))


def theta_exact(cp, absc, w, h, star, fixed_lo, fixed_hi) -> Fraction:
    """max over every term of the closed form, exactly.

    Same arguments as the theta kernel: cp = c * p as (m, n), absc = |c|,
    the weights w, the addends h, the closure B* (floats, or the Fractions of
    closure_exact) and the fixed envelopes.
    The terms are, for every finite b = B*[i, k] and points j, l:
        pair:  (|c_i| w_l h_j + |c_k| w_j h_l + w_j w_l (b - cp_ji + cp_lk)) / (|c_i| w_l + |c_k| w_j)
        lower side:  h_j + (w_j / |c_i|) (b - cp_ji + fixed_lo_k)
        upper side:  h_l + (w_l / |c_k|) (b - fixed_hi_i + cp_lk)
    Each is kept as num / (den D) with den > 0, and compared by
    cross-multiplication.
    """
    cp = np.asarray(cp, dtype=np.float64)
    m, n = cp.shape
    values = [cp, absc, w, h, star, fixed_lo, fixed_hi]
    d = max(x.as_integer_ratio()[1] for v in values for x in np.ravel(v).tolist() if math.isfinite(x))

    def ints(v):
        return [int(Fraction(x) * d) for x in np.ravel(v).tolist()]

    cps = ints(cp)  # cps[j * n + i] is cp[j, i] D
    a, ww, hh, lo, hi = ints(absc), ints(w), ints(h), ints(fixed_lo), ints(fixed_hi)
    best_num, best_den = None, 1

    def offer(num, den):
        nonlocal best_num, best_den
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den = num, den

    for i in range(n):
        for k in range(n):
            if not star[i, k] > -math.inf:
                continue
            b = int(Fraction(star[i, k]) * d)
            for j in range(m):
                y = b - cps[j * n + i]
                offer(hh[j] * a[i] + ww[j] * (y + lo[k]), a[i])
                for l in range(m):
                    num = a[i] * ww[l] * hh[j] + a[k] * ww[j] * hh[l] + ww[j] * ww[l] * (y + cps[l * n + k])
                    offer(num, a[i] * ww[l] + a[k] * ww[j])
            for l in range(m):
                offer(hh[l] * a[k] + ww[l] * (b - hi[i] + cps[l * n + k]), a[k])
    return Fraction(best_num, best_den * d)


def magnitude(cp, absc, w, h, star, fixed_lo, fixed_hi, theta) -> float:
    """S: the largest |cp_ji|, |c_i| (|h_j| + |theta|) / w_j, |fixed_lo|, |fixed_hi|, |q| or |u_hi|.

    q = min(level_hi, fixed_hi) and u_hi = ((-q) (x) B*)~ are the box's at
    theta, evaluated here in floats: S is needed to first order only.
    """
    cp = np.asarray(cp, dtype=np.float64)
    b = np.asarray(star, dtype=np.float64)
    level = float(np.max(absc)) * float(np.max((np.abs(h) + abs(theta)) / w))
    level_hi = np.min(cp.T - absc[:, None] * ((h - theta) / w), axis=1)
    q = np.minimum(level_hi, fixed_hi)
    u_hi = -np.max(-q[:, None] + b, axis=0)
    parts = (cp, fixed_lo, fixed_hi, q, u_hi)
    return max(level, *(float(np.max(np.abs(p))) for p in parts))


def theta_error_bound(cp, absc, w, h, star, fixed_lo, fixed_hi, theta) -> float:
    """(THETA_ROUNDINGS + HOP_ROUNDINGS (n - 1)) u S / sigma, with sigma = min |c_i| / max w_j."""
    sigma = float(np.min(absc)) / float(np.max(w))
    units = THETA_ROUNDINGS + HOP_ROUNDINGS * (len(absc) - 1)
    return units * U * magnitude(cp, absc, w, h, star, fixed_lo, fixed_hi, theta) / sigma


def theta_error(theta: float, exact: Fraction) -> float:
    """|theta - exact| as a float (rounded once)."""
    return float(abs(Fraction(theta) - exact))
