"""Max-plus arithmetic kernel.

Scalars live in the idempotent semifield (R u {-inf}, max, +): addition is
max, multiplication is +, the additive neutral ("bottom") is -inf and the
multiplicative neutral is 0.0.  Vectors and matrices are plain float64 numpy
arrays; bottom is IEEE -inf, which is absorbing under + and neutral under max
exactly, with no epsilon anywhere.  +inf and NaN are not semiring elements
and array constructors reject them.

The closure A* = I max A max ... max A^(n-1) is computed by Floyd-Warshall
style all-pairs relaxation in O(n^3), which also decides the spectral
certificate.  The O(n^4) power-sum forms power_trace and power_closure are
the definitions, kept as cross-check oracles for the relaxation.

Each pivot adds a column and a row broadcast against each other.  numpy
copies a broadcast operand through its ufunc buffer (8192 elements by
default) whenever a row is shorter than the buffer; at n = 300 that makes
the add about four times slower.  So once n^2 exceeds the buffer in force,
the relaxation runs with a 16-element buffer, which leaves the rows
unbuffered, and restores the caller's size on return.  Smaller matrices keep
the caller's buffer: from n of about 24 to 40 the small buffer costs one
inner-loop call per row and is slower.  The arithmetic and its bits are the
same either way.

The public wrappers validate their operands: conversion, shapes and, for the
conjugate, an entry to invert.  The solver does not call them: it checks its
data once, when an instance is built, and then runs the same arithmetic on
trusted arrays through the private kernels _mat_vec and _vec_mat, which the
wrappers call too, so there is one arithmetic path.

The kernels and the closure reduce through the ufuncs themselves
(np.maximum.reduce, not ndarray.max or np.max) and read the diagonal as a
strided view, not through np.diagonal or np.fill_diagonal.  Those are
Python-level wrappers around the same C reductions and give the same bits,
but each call adds 0.3 to 2 microseconds, which at n <= 4 is a large share
of the arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

BOTTOM = float("-inf")
ONE = 0.0

# ufunc buffer for the closure pivots once n^2 outgrows the caller's buffer
_PIVOT_BUFSIZE = 16


def is_bottom(x: float) -> bool:
    """True when x is the additive neutral -inf."""
    return x == BOTTOM


def scalar_add(x: float, y: float) -> float:
    """Semiring addition: max(x, y)."""
    return x if x >= y else y


def scalar_mul(x: float, y: float) -> float:
    """Semiring multiplication: conventional x + y; bottom is absorbing."""
    return x + y


def scalar_inv(x: float) -> float:
    """Multiplicative inverse -x. Bottom has no inverse."""
    if is_bottom(x):
        raise DomainError("bottom has no multiplicative inverse")
    return -x


def scalar_pow(x: float, p: float) -> float:
    """Power with a real exponent, realized as conventional p*x.

    bottom**p is bottom for p > 0 and undefined otherwise.
    """
    if is_bottom(x):
        if p > 0:
            return BOTTOM
        raise DomainError("bottom requires a positive exponent")
    return p * x


def _validated(arr, ndim: int, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != ndim:
        raise DimensionError(f"{what} must be {ndim}-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError(f"{what} must be nonempty")
    if np.isnan(a).any() or np.isposinf(a).any():
        raise DomainError(f"{what} entries must be real or -inf")
    return a


def as_vector(data) -> np.ndarray:
    """Validate and convert to a 1-D float64 semiring vector."""
    return _validated(data, 1, "vector")


def as_matrix(data) -> np.ndarray:
    """Validate and convert to a 2-D float64 semiring matrix."""
    return _validated(data, 2, "matrix")


def identity(n: int) -> np.ndarray:
    """Tropical identity: 0.0 on the diagonal, bottom elsewhere."""
    e = np.full((n, n), BOTTOM)
    np.fill_diagonal(e, ONE)
    return e


def is_regular(x) -> bool:
    """True when every entry is finite (no bottom)."""
    return bool(np.all(np.asarray(x) > BOTTOM))


def mat_add(a, b) -> np.ndarray:
    """Entrywise max of two equal-shape arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return np.maximum(a, b)


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with (max, +) in place of (+, *).

    One pass per contraction index k folds the outer sum a[:, k] + b[k] into
    the result, so memory stays at the output plus one temporary of its size.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0] or a.shape[1] == 0:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}")
    # (i, j) entry: max_k a[i, k] + b[k, j]
    out = a[:, 0, None] + b[0]
    for k in range(1, a.shape[1]):
        np.maximum(out, a[:, k, None] + b[k], out=out)
    return out


def _mat_vec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # max_k a[i, k] + x[..., k]: x is one vector or a stack of them in rows,
    # and each result row is reduced along its contiguous last axis.
    return np.maximum.reduce(a + x[..., None, :], axis=-1)


def _vec_mat(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    # max_i x[i] + a[i, k].
    return np.maximum.reduce(x[:, None] + a, axis=0)


def _mat_vec_rows(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """a (x) x for each row x of xs, each reduced as a one-vector product is.

    Chunked so that the (rows, n, n) temporary stays within 2^20 entries.
    """
    rows = max(1, (1 << 20) // a.size)
    return np.concatenate([_mat_vec(a, xs[r : r + rows]) for r in range(0, max(xs.shape[0], 1), rows)])


def mat_vec(a, x) -> np.ndarray:
    """Matrix times column vector: result_i = max_k a[i, k] + x[k]."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"incompatible shapes {a.shape} and {x.shape}")
    if x.size == 0:
        raise DimensionError("vector must be nonempty")
    return _mat_vec(a, x)


def vec_mat(x, a) -> np.ndarray:
    """Row vector times matrix: result_k = max_i x[i] + a[i, k]."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or x.ndim != 1 or a.shape[0] != x.shape[0]:
        raise DimensionError(f"incompatible shapes {x.shape} and {a.shape}")
    if x.size == 0:
        raise DimensionError("vector must be nonempty")
    return _vec_mat(x, a)


def vec_dot(x, y) -> float:
    """Row times column: max_i x[i] + y[i]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"incompatible shapes {x.shape} and {y.shape}")
    if x.size == 0:
        raise DimensionError("vector must be nonempty")
    return float(np.max(x + y))


def conjugate_transpose(x) -> np.ndarray:
    """Entrywise multiplicative conjugate of a vector: -x_i, bottom fixed.

    The result of conjugating a column is used as a row and vice versa;
    orientation is carried by how the caller combines it (vec_mat/mat_vec).
    An all-bottom vector has no conjugate.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"vector expected, got shape {x.shape}")
    if x.size == 0:
        raise DimensionError("vector must be nonempty")
    if not np.any(x > BOTTOM):
        raise DomainError("all-bottom vector has no conjugate")
    return np.where(np.isneginf(x), BOTTOM, -x)


def _square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix expected, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError("matrix must be nonempty")
    return a


def trace(a) -> float:
    """Tropical trace: max of the diagonal."""
    a = _square(a)
    return float(np.max(np.diagonal(a)))


def trace_and_closure(a) -> tuple[float, np.ndarray | None]:
    """The spectral certificate of A and, when it passes, the closure A*.

    Returns (Tr, A*) when Tr(A) = max_{k<=n} trace(A^k) <= 0, else
    (witness, None).  One all-pairs relaxation gives both; its diagonal is
    checked before the first pivot and after each.  A positive diagonal entry
    never decreases under later pivots, so the relaxation stops at the first
    one.  The witness is that stage's largest diagonal entry: the weight of a
    positive closed walk, which can be less than Tr.  With no positive cycle,
    every closed walk splits into nonpositive simple cycles, so the final
    diagonal maximum is Tr.  NaN input gives (nan, None).

    At n <= 2 the relaxation is replayed on Python floats (_replayed_closure):
    the same sums, and each max with numpy's tie rule, so the same bits, at a
    fifth of the cost of ten numpy calls on a 2x2 matrix.  Where a stage's
    diagonal is not <= 0, an entry is nan, +inf or of magnitude 2**1021 or
    more (where a sum could overflow), the numpy relaxation runs instead, so
    every witness and every warning is its own.

    When n^2 exceeds numpy's ufunc buffer (np.getbufsize(), 8192 elements by
    default, so n >= 91), the pivots run with a 16-element buffer: numpy
    would otherwise copy the broadcast row and column through the buffer,
    because a row is shorter than it.  The caller's size is restored on every
    return.  Otherwise no buffer call is made.
    """
    a = _square(a)
    if a.shape[0] <= 2:
        found = _replayed_closure(a.ravel().tolist())
        if found is not None:
            return found
    return _relaxation(a)


# Entries below this magnitude (2**1021) keep every sum of the n <= 2 replay
# finite: a pivot's sum is below 2**1022, and the second pivot's below 2**1023.
_REPLAY_BOUND = 2.0**1021


def _max(x: float, y: float) -> float:
    # np.maximum's rule on non-nan operands: y unless x > y, so max(-0.0, 0.0)
    # is 0.0 and max(0.0, -0.0) is -0.0.  np.maximum.reduce folds left with it.
    return x if x > y else y


def _replayed_closure(d: list[float]) -> tuple[float, np.ndarray] | None:
    """(Tr, A*) for the n * n entries d of a matrix at n <= 2, as the relaxation's bits, or None where it must run.

    Each pivot k takes d_ij to max(d_ij, d_ik + d_kj) from the entries
    before it, as the relaxation's out-of-place sum and in-place max do.
    The textbook form I max A max A^2 would differ in signed zeros.  The
    entries are checked first: a nan, a +inf or an entry of magnitude
    _REPLAY_BOUND or more returns None, so no sum is nan or overflows and
    the Python floats raise nothing numpy would not.  The stages are checked
    once, after the pivots, which have no side effects: a positive diagonal
    entry never decreases, so the last stage is > 0 exactly where an earlier
    one is.  Then None is returned, and the relaxation finds the first such
    stage and its witness.  Where the last stage passes, the final diagonal
    max(d_ii, 0) is +0.0.
    """
    for x in d:
        if not (-_REPLAY_BOUND < x < _REPLAY_BOUND or x == BOTTOM):
            return None
    if len(d) == 1:
        (p,) = d
        gauge = _max(p, p + p)
        return (gauge, np.array([[ONE]])) if gauge <= ONE else None
    p, q, r, s = d
    # pivot 0: row 0 and column 0
    p1, q1, r1, s1 = _max(p, p + p), _max(q, p + q), _max(r, r + p), _max(s, r + q)
    # pivot 1: row 1 and column 1
    p2, q2, r2, s2 = _max(p1, q1 + r1), _max(q1, q1 + s1), _max(r1, s1 + r1), _max(s1, s1 + s1)
    gauge = _max(p2, s2)
    return (gauge, np.array([[ONE, q2], [r2, ONE]])) if gauge <= ONE else None


def _relaxation(a: np.ndarray) -> tuple[float, np.ndarray | None]:
    """trace_and_closure's staged relaxation in numpy, at any n."""
    n = a.shape[0]
    d = a.copy()
    diag = d.reshape(-1)[:: n + 1]  # a writable view: d is a fresh C-ordered copy
    # n <= 4 skips the size lookup (about 2 us): there the rule could only
    # grow a buffer smaller than 16.  The size is restored by value, because
    # numpy 1.x does not scope it to np.errstate.
    shrink = n * n > _PIVOT_BUFSIZE and n * n > np.getbufsize()
    saved = np.setbufsize(_PIVOT_BUFSIZE) if shrink else None
    try:
        for k in range(n + 1):
            gauge = float(np.maximum.reduce(diag))
            if not gauge <= ONE:
                return gauge, None
            if k < n:
                np.maximum(d, d[:, k, None] + d[None, k, :], out=d)
    finally:
        if saved is not None:
            np.setbufsize(saved)
    np.maximum(diag, ONE, out=diag)
    return gauge, d


def power_trace(a) -> float:
    """Tr(A) from its definition: max over k = 1..n of trace(A^k). O(n^4)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    p = a
    best = trace(a)
    for _ in range(n - 1):
        p = mat_mul(p, a)
        best = np.maximum(best, trace(p))   # NaN propagates, as in trace_and_closure
    return float(best)


def power_closure(a) -> np.ndarray:
    """A* from its definition: I max A max ... max A^(n-1). O(n^4) oracle."""
    a = _square(a)
    n = a.shape[0]
    star = identity(n)
    p = identity(n)
    for _ in range(n - 1):
        p = mat_mul(p, a)
        star = np.maximum(star, p)
    return star


def dinf(x, y) -> float:
    """Chebyshev distance max_i |x_i - y_i|."""
    return float(np.max(np.abs(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))))


def d1(x, y) -> float:
    """Rectilinear distance sum_i |x_i - y_i|."""
    return float(np.sum(np.abs(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))))


__all__ = [
    "BOTTOM",
    "ONE",
    "is_bottom",
    "scalar_add",
    "scalar_mul",
    "scalar_inv",
    "scalar_pow",
    "as_vector",
    "as_matrix",
    "identity",
    "is_regular",
    "mat_add",
    "mat_mul",
    "mat_vec",
    "vec_mat",
    "vec_dot",
    "conjugate_transpose",
    "trace",
    "trace_and_closure",
    "power_trace",
    "power_closure",
    "dinf",
    "d1",
]
