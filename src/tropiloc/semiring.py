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
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

BOTTOM = float("-inf")
ONE = 0.0


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

    The contraction axis is taken in slices so that the (p, slice, q)
    temporary stays near 2^20 entries: one slice when p * q is small, one k
    at a time when p * q exceeds 2^20.  The operands' memory layout is kept
    as given; an F-ordered right operand can be much slower or faster,
    depending on the shapes.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}")
    # (i, j) entry: max_k a[i, k] + b[k, j]
    step = max(1, (1 << 20) // max(1, a.shape[0] * b.shape[1]))
    out = np.max(a[:, :step, None] + b[None, :step, :], axis=1)
    for s in range(step, a.shape[1], step):
        np.maximum(out, np.max(a[:, s:s + step, None] + b[None, s:s + step, :], axis=1), out=out)
    return out


def mat_vec(a, x) -> np.ndarray:
    """Matrix times column vector: result_i = max_k a[i, k] + x[k]."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"incompatible shapes {a.shape} and {x.shape}")
    return np.max(a + x[None, :], axis=1)


def vec_mat(x, a) -> np.ndarray:
    """Row vector times matrix: result_k = max_i x[i] + a[i, k]."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or x.ndim != 1 or a.shape[0] != x.shape[0]:
        raise DimensionError(f"incompatible shapes {x.shape} and {a.shape}")
    return np.max(x[:, None] + a, axis=0)


def vec_dot(x, y) -> float:
    """Row times column: max_i x[i] + y[i]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"incompatible shapes {x.shape} and {y.shape}")
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
    if not np.any(x > BOTTOM):
        raise DomainError("all-bottom vector has no conjugate")
    return np.where(np.isneginf(x), BOTTOM, -x)


def trace(a) -> float:
    """Tropical trace: max of the diagonal."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix expected, got shape {a.shape}")
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
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix expected, got shape {a.shape}")
    n = a.shape[0]
    d = a.copy()
    diag = np.diagonal(d)
    for k in range(n + 1):
        gauge = float(diag.max())
        if not gauge <= ONE:
            return gauge, None
        if k < n:
            np.maximum(d, d[:, k, None] + d[None, k, :], out=d)
    np.fill_diagonal(d, np.maximum(diag, ONE))
    return gauge, d


def power_trace(a) -> float:
    """Tr(A) from its definition: max over k = 1..n of trace(A^k). O(n^4)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    p = a
    best = trace(a)
    for _ in range(n - 1):
        p = mat_mul(p, a)
        best = max(best, trace(p))
    return float(best)


def power_closure(a) -> np.ndarray:
    """A* from its definition: I max A max ... max A^(n-1). O(n^4) oracle."""
    a = np.asarray(a, dtype=np.float64)
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
