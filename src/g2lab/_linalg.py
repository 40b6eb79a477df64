"""Small mode-aware linear algebra helpers.

Every kernel in this package runs in one of two scalar modes: float64
(default) or exact rationals (``fractions.Fraction`` held in object-dtype
numpy arrays).  numpy's ``dot``/``tensordot`` support object arrays, but
``einsum``, ``matmul`` and most of ``np.linalg`` do not.  The package
inverts its maps by closed-form identities; `pinv` and `inv_exact` remain
as the numerical references the tests compare those against.

`bound` is the one judging rule of the package: every relative gate and
every `Report` check passes when ``residual <= bound(tol, scale)``, and a
gate raises on ``not residual <= bound(...)``, so a NaN residual fails.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def zeros(shape, exact: bool = False) -> np.ndarray:
    if exact:
        z = np.empty(shape, dtype=object)
        z[...] = Fraction(0)
        return z
    return np.zeros(shape, dtype=float)


def eye(n: int, exact: bool = False) -> np.ndarray:
    if exact:
        m = zeros((n, n), exact=True)
        for i in range(n):
            m[i, i] = Fraction(1)
        return m
    return np.eye(n)


def scalar(x, exact: bool = False):
    return Fraction(x) if exact else float(x)


def as_mode(arr, exact: bool = False) -> np.ndarray:
    """Coerce a nested sequence / array to the requested scalar mode."""
    a = np.asarray(arr)
    if exact:
        out = np.empty(a.shape, dtype=object)
        flat = out.reshape(-1)
        for i, v in enumerate(np.asarray(a, dtype=object).reshape(-1)):
            flat[i] = v if isinstance(v, Fraction) else Fraction(v)
        return out
    return np.asarray(a, dtype=float)


_max_reduce = np.maximum.reduce


def max_abs(*arrays) -> float:
    """Largest absolute entry over the arrays as a plain float (0.0 if empty).

    A NaN anywhere gives NaN, so a NaN residual never passes a tolerance.
    Fraction arrays are converted entry by entry; lists and scalars go
    through ``np.asarray``.  A float ndarray, the case of every residual on
    the float hot path, takes neither conversion, and its maximum is the
    ufunc reduction that ``ndarray.max`` wraps.  -0.0 gives 0.0.
    """
    peak = 0.0
    for a in arrays:
        if type(a) is not np.ndarray:
            a = np.asarray(a)
        if a.size == 0:
            continue
        if a.dtype == object:
            a = np.array([float(v) for v in a.reshape(-1)])
        m = float(_max_reduce(np.abs(a), None))
        if m != m:  # NaN
            return m
        if m > peak:
            peak = m
    return peak


def bound(tol: float, scale: float = 0.0) -> float:
    """The largest residual a check judged against ``scale`` may have:
    tol relative to the scale, and absolute below unit scale.

    A NaN scale gives a NaN bound (``max(nan, 1.0)`` is NaN), which no
    residual passes.
    """
    return tol * max(scale, 1.0)


def inv_exact(m: np.ndarray) -> np.ndarray:
    """Exact inverse of a square Fraction matrix by Gauss-Jordan."""
    n = m.shape[0]
    a = [[Fraction(m[i, j]) for j in range(n)] for i in range(n)]
    b = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise np.linalg.LinAlgError("exact matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        b[col] = [x / d for x in b[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = b[i][j]
    return out


def pinv(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a full-column-rank matrix, exact when m is exact."""
    if is_exact(m):
        mt = m.T
        return inv_exact(mt.dot(m)).dot(mt)
    return np.linalg.pinv(m)
