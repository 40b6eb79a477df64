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
`bounds` is the same rule over an array of scales, for a family of checks.

`scatter_add` is the one scatter of the index-table kernels, `lazy` the
one compute-once attribute of the staged objects (`InvariantGeometry`, the
warped solve, the curvature decomposition), and `table` the one
compute-once builder of the constant tables (projectors, lambda3, the
structure-equation and Ricci tables).  A table is shared by every caller,
so `frozen` makes it read-only as it is stored.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType

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


def frozen(value):
    """value made read-only for sharing: every ndarray reachable through
    tuples (a NamedTuple keeps its type), lists (returned as tuples), dicts
    (returned as `MappingProxyType`s) and the ndarray slots of ``__slots__``
    objects (`Form`, `CurvatureTensor`) is made read-only in place."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        items = map(frozen, value)
        return type(value)(*items) if hasattr(value, "_fields") else tuple(items)
    elif isinstance(value, list):
        return tuple(map(frozen, value))
    elif isinstance(value, dict):
        return MappingProxyType({k: frozen(v) for k, v in value.items()})
    else:
        for name in getattr(type(value), "__slots__", ()):
            if isinstance(getattr(value, name, None), np.ndarray):
                getattr(value, name).flags.writeable = False
    return value


def table(builder):
    """`functools.cache` around ``builder``, whose result `frozen` makes
    read-only as it is stored: the one builder of the constant tables.  A
    hit returns the stored object; ``cache_clear`` and ``__wrapped__`` (the
    uncached, freezing build) are kept."""

    @functools.cache
    @functools.wraps(builder)
    def build(*args, **kwargs):
        return frozen(builder(*args, **kwargs))

    return build


@table
def identity(n: int, exact: bool = False) -> np.ndarray:
    """`eye`, shared."""
    return eye(n, exact)


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


def scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[index[i]] += values[i] for i in order, into n zeros.

    The scalar mode is read off ``values``: a float array goes through
    ``np.bincount``, a Fraction array through ``np.add.at``.  Both add each
    output's terms in index order starting from 0, so a float result is
    the same, bit for bit, whichever runs.
    """
    if values.dtype == object:
        out = zeros(n, True)
        np.add.at(out, index, values)
        return out
    return np.bincount(index, values, n)


class lazy:
    """A compute-once attribute: the first read calls the function and stores
    its value in the instance's ``__dict__``, where every later read finds it
    without calling this descriptor again.  Unlike
    ``functools.cached_property`` it takes no lock, so an instance must not
    be shared between threads while its stages are being built.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


_max_reduce = np.maximum.reduce
_FLOAT = np.dtype(float)


def max_abs(*arrays) -> float:
    """Largest absolute entry over the arrays as a plain float (0.0 if empty).

    A NaN anywhere gives NaN, so a NaN residual never passes a tolerance.
    Fraction arrays are converted entry by entry; lists and scalars go
    through ``np.asarray``.  Float ndarrays, the case of every residual on
    the float hot path, take neither conversion: several are joined and
    reduced once, with the ufunc reduction that ``ndarray.max`` wraps.
    -0.0 gives 0.0.
    """
    if len(arrays) > 1 and all(type(a) is np.ndarray and a.dtype is _FLOAT for a in arrays):
        arrays = (_joined(arrays),)
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


def max_abs_each(*arrays) -> list:
    """`max_abs` of each array, as a list.  Float arrays are joined and their
    maxima taken in one reduction."""
    starts, n = [], 0
    for a in arrays:
        if type(a) is not np.ndarray or a.dtype is not _FLOAT or not a.size:
            return [max_abs(a) for a in arrays]
        starts.append(n)
        n += a.size
    return np.maximum.reduceat(np.abs(_joined(arrays)), starts).tolist()


def _joined(arrays) -> np.ndarray:
    """The entries of the arrays in one flat array (raveled one by one, which
    is cheaper than ``np.concatenate(arrays, axis=None)``)."""
    return np.concatenate([a.ravel() for a in arrays])


def bound(tol: float, scale: float = 0.0) -> float:
    """The largest residual a check judged against ``scale`` may have:
    tol relative to the scale, and absolute below unit scale.

    A NaN scale gives a NaN bound (``max(nan, 1.0)`` is NaN), which no
    residual passes.
    """
    return tol * max(scale, 1.0)


def bounds(tol: float, scales: np.ndarray) -> np.ndarray:
    """`bound` of each scale of an array in one vectorised pass: per entry
    the same IEEE product tol * max(scale, 1.0), and NaN for a NaN scale."""
    return tol * np.maximum(scales, 1.0)


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
