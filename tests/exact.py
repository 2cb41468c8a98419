"""The exact theta of the closed form, and the bounds the float solver keeps to it.

Every float is a dyadic rational, so one power of two D turns all of the
theta kernel's float inputs into integers, and every term of the closed form
into a ratio of integers.  theta_exact evaluates each term in a literal loop,
in exact integer arithmetic, and returns the largest as a Fraction: the
exact theta of the float inputs, with no rounding anywhere.

The bounds are first-order rounding analyses of the solver's float
evaluation, in units of u S, where u is the unit roundoff and S the largest
magnitude among the operands (see magnitude); the derivations are in
CHANGES.md.  THETA_ROUNDINGS bounds |theta - exact theta| times sigma, the
least slope |c_i| / w_j of a piece of the existence condition.  The
solver's own chebyshev._BOX_ROUNDINGS bounds, in the same units, how far
rounding can cross the parameter box of a feasible instance.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

U = float(np.finfo(np.float64).eps) / 2
THETA_ROUNDINGS = 70


def theta_exact(cp, absc, w, h, star, fixed_lo, fixed_hi) -> Fraction:
    """max over every term of the closed form, exactly.

    Same arguments as the theta kernel: cp = c * p as (m, n), absc = |c|,
    the weights w, the addends h, the closure B* and the fixed envelopes.
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
    """S: the largest |cp_ji|, |c_i| (|h_j| + |theta|) / w_j, |fixed_lo|, |fixed_hi| or finite |b*_ik|."""
    finite = np.abs(star[star > -math.inf])
    level = float(np.max(absc)) * float(np.max((np.abs(h) + abs(theta)) / w))
    return max(float(np.max(np.abs(cp))), level, float(np.max(np.abs(fixed_lo))), float(np.max(np.abs(fixed_hi))), float(finite.max()))


def theta_error_bound(cp, absc, w, h, star, fixed_lo, fixed_hi, theta) -> float:
    """THETA_ROUNDINGS u S / sigma, with sigma = min |c_i| / max w_j."""
    sigma = float(np.min(absc)) / float(np.max(w))
    return THETA_ROUNDINGS * U * magnitude(cp, absc, w, h, star, fixed_lo, fixed_hi, theta) / sigma


def theta_error(theta: float, exact: Fraction) -> float:
    """|theta - exact| as a float (rounded once)."""
    return float(abs(Fraction(theta) - exact))
