"""Dense exterior-form calculus on R^7.

Conventions, fixed once for the whole package:

* basis covectors e^1..e^7 are orthonormal, orientation vol = e^1234567;
* a degree-k form is a coefficient vector over the C(7,k) sorted
  multi-indices in lexicographic order (sorted monomials are orthonormal,
  the "form" inner product);
* the Hodge star satisfies a wedge *b = <a,b> vol, which on monomials reads
  *(e^I) = sign(I, I^c) e^(I^c);
* the "tensor" norm of the totally antisymmetric component array of a
  k-form is k! times its form norm.  Identities in later modules name which
  of the two norms they use; mixing them up is a factor-of-k! bug.

The kernels are stored as integer index tables, built once per degree:
the positions each structure constant reads and writes and its sign.  A
bilinear kernel (wedge, contraction, interior product) is an `IndexTable`;
every signed linear map (the Hodge star, the antisymmetric unfold, the
alternation, the frame interior, the connection scatter and the curvature
maps of `curvature`) is a `LinearTable`.  Only these two classes pick
between a table's integer coefficients, which multiply Fractions, and
their float twins, which multiply floats; float sums run in row order.
Signs come from two sources only: the wedge table and the antisymmetric
unfold call `perm_sign`, and every other table is read off the wedge
table.  The contraction is its adjoint, <e^I -| e^J, e^C> =
<e^J, e^I ^ e^C>; the interior product is contraction by a 1-form; the
Hodge star pairs with vol, e^I ^ *e^I = vol; and the Leibniz rule
D e^I = sum_s (-1)^s D(e^(i_s)) ^ e^(I - i_s) of a derivation that maps
1-forms to r-forms (`_derivation_table(k, r)`) is an interior row followed
by wedge rows.  The composite maps of `g2_algebra` are built once from
these tables, in integer arithmetic; `frame_wedge` and `frame_interior`
apply e^i ^ and e_i -| for all seven i in one pass.

With r = 2 the derivation table builds the invariant exterior derivative
of `homogeneous` from d on 1-forms, with r = 1 the action of a connection
with constant coefficients on k-forms (`connection_action`), and
`covariant_wedge` alternates that action into sum_i e^i ^ grad_i a.
`connection_matrix` scatters several forms side by side, so that one
product gives a connection's action on all of them, and `alternate` is
`frame_wedge` over several blocks of one stack in one scatter.

The distinguished three-form is

    phi = e^127 + e^347 + e^567 + e^135 - e^245 - e^146 - e^236

and its dual four-form *phi (each call returns a fresh copy of a cached
template), together with the contraction identities between
their component arrays that the rest of the package relies on.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._linalg import as_mode, frozen, max_abs, scalar, scatter_add, table, zeros

DIM = 7

#: sorted multi-indices (0-based) per degree, lexicographic
BASIS = {k: tuple(itertools.combinations(range(DIM), k)) for k in range(DIM + 1)}
#: multi-index -> position in the coefficient vector
INDEX = {k: {I: p for p, I in enumerate(BASIS[k])} for k in range(DIM + 1)}


def dim_of(degree: int) -> int:
    return len(BASIS[degree])


#: degree -> the shape of a coefficient vector of that degree
_COEFF_SHAPES = {k: (dim_of(k),) for k in range(DIM + 1)}


def perm_sign(seq) -> int:
    """Sign of the permutation sorting ``seq`` (entries must be distinct)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def check_multi_index(indices, degree=None):
    """Validate a 1-based strictly increasing multi-index, return 0-based."""
    idx = tuple(int(i) for i in indices)
    if any(i < 1 or i > DIM for i in idx):
        raise ValueError(f"multi-index entries must lie in 1..7, got {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"multi-index must be strictly increasing, got {idx}")
    if degree is not None and len(idx) != degree:
        raise ValueError(f"multi-index {idx} does not have length {degree}")
    return tuple(i - 1 for i in idx)


class Form:
    """A degree-k exterior form as a dense coefficient vector."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: np.ndarray):
        shape = _COEFF_SHAPES.get(degree)
        if shape is None:
            raise ValueError(f"degree must be 0..7, got {degree}")
        if coeffs.shape != shape:
            raise ValueError(
                f"degree-{degree} form needs {dim_of(degree)} "
                f"coefficients, got shape {coeffs.shape}"
            )
        self.degree = degree
        self.coeffs = coeffs

    # --- constructors ----------------------------------------------------
    @staticmethod
    def zero(degree: int, exact: bool = False) -> "Form":
        return Form(degree, zeros(dim_of(degree), exact))

    @staticmethod
    def from_terms(degree: int, terms: dict, exact: bool = False) -> "Form":
        """Build a form from ``{1-based multi-index: coefficient}``."""
        f = zeros(dim_of(degree), exact)
        for idx, c in terms.items():
            pos = INDEX[degree][check_multi_index(idx, degree)]
            f[pos] += scalar(c, exact)
        return Form(degree, f)

    @staticmethod
    def basis(indices, exact: bool = False) -> "Form":
        """The unit monomial e^I for a 1-based multi-index I."""
        return Form.from_terms(len(tuple(indices)), {tuple(indices): 1}, exact)

    # --- ring structure ---------------------------------------------------
    @property
    def exact(self) -> bool:
        return self.coeffs.dtype == object

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return Form(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("cannot subtract forms of different degree")
        return Form(self.degree, self.coeffs - other.coeffs)

    def __mul__(self, c) -> "Form":
        return Form(self.degree, self.coeffs * c)

    __rmul__ = __mul__

    def __neg__(self) -> "Form":
        return Form(self.degree, -self.coeffs)

    def coeff(self, indices):
        """Coefficient at a 1-based sorted multi-index."""
        return self.coeffs[INDEX[self.degree][check_multi_index(indices, self.degree)]]

    def norm2(self):
        """Form norm squared (sorted monomials orthonormal)."""
        return (self.coeffs * self.coeffs).sum()

    def tensor_norm2(self):
        return math.factorial(self.degree) * self.norm2()

    def __repr__(self):
        parts = []
        for pos, I in enumerate(BASIS[self.degree]):
            c = self.coeffs[pos]
            if c != 0:
                label = "e" + "".join(str(i + 1) for i in I) if I else "1"
                parts.append(f"{c!s}*{label}" if label != "1" else f"{c!s}")
        body = " + ".join(parts) if parts else "0"
        return f"Form({self.degree}: {body})"


def form_inner(a: Form, b: Form):
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    return (a.coeffs * b.coeffs).sum()


# --- index tables -----------------------------------------------------------


def index_columns(rows, width: int) -> np.ndarray:
    """Integer rows as an array of contiguous columns, `frozen` (the tables
    are cached and shared by every caller)."""
    return frozen(np.array(rows, dtype=np.intp).reshape(-1, width).T.copy())


def float_column(col: np.ndarray) -> np.ndarray:
    """A float64 copy of an integer coefficient column, `frozen`.

    Float arrays are multiplied by it and Fraction arrays by the integer
    column: the products are the same, and a float product skips numpy's
    per-call conversion of the integers.
    """
    return frozen(col.astype(float))


class IndexTable:
    """Bilinear kernel out[po] += coef * x[pa] * y[pb], summed in row order.

    The coefficients are integers: signs for the basic kernels, small
    multiplicities for the tables composed from them.
    """

    __slots__ = ("pa", "pb", "po", "coef", "n_out", "float_coef")

    def __init__(self, pa: np.ndarray, pb: np.ndarray, po: np.ndarray, coef: np.ndarray, n_out: int):
        self.pa, self.pb, self.po, self.coef, self.n_out = pa, pb, po, coef, n_out
        self.float_coef = float_column(coef)

    @staticmethod
    def from_rows(rows, n_out: int) -> "IndexTable":
        return IndexTable(*index_columns(rows, 4), n_out)

    @staticmethod
    def merged(pa, pb, po, coef, n_out: int, n_a: int, n_b: int) -> "IndexTable":
        """The table of integer rows merged by (po, pa, pb) (`LinearTable.merged`)."""
        t = LinearTable(po, pa * n_b + pb, coef, n_out, n_a * n_b).merged()
        return IndexTable.from_rows(np.stack([*np.divmod(t.src, n_b), t.dst, t.coef], axis=1), n_out)

    def dense(self, n_a: int, n_b: int) -> np.ndarray:
        """The table as an integer array t[out, a, b], for composing tables."""
        t = np.zeros((self.n_out, n_a, n_b), dtype=np.int64)
        np.add.at(t, (self.po, self.pa, self.pb), self.coef)
        return t

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The kernel on x and y, in the scalar mode of their product."""
        xa = x[self.pa]
        coef = self.coef if xa.dtype == object else self.float_coef
        return scatter_add(self.po, coef * xa * y[self.pb], self.n_out)


class LinearTable:
    """Linear map out[dst] += coef * x[src] from n_in inputs to n_out outputs,
    each output adding its rows in row order, with integer coefficients.

    A Fraction input is multiplied by the integer column and a float input by
    its float twin.  The table picks how it writes its products once, from
    dst: a table with one row per output, in output order, is a pure gather
    (the Hodge star); one whose outputs each have at most one row assigns its
    products into zeros (the antisymmetric unfold, `connection_matrix`,
    `frame_interior`); any other adds them with `scatter_add`.
    """

    __slots__ = ("dst", "src", "coef", "float_coef", "n_out", "n_in", "path")

    def __init__(self, dst, src, coef, n_out: int, n_in: int):
        self.dst, self.src, self.coef = index_columns(np.stack([dst, src, coef], axis=1), 3)
        self.float_coef = float_column(self.coef)
        self.n_out, self.n_in = int(n_out), int(n_in)
        if np.array_equal(self.dst, np.arange(self.n_out)):
            self.path = "gather"
        elif np.bincount(self.dst, minlength=1).max() <= 1:
            self.path = "assign"
        else:
            self.path = "scatter"

    @staticmethod
    def from_matrix(m: np.ndarray) -> "LinearTable":
        """The table of an integer matrix: its nonzero entries in (output, input) order."""
        dst, src = np.nonzero(m)
        return LinearTable(dst, src, m[dst, src], *m.shape)

    @staticmethod
    def stack(*tables: "LinearTable") -> "LinearTable":
        """The tables on one input, their outputs back to back."""
        starts = np.cumsum([0] + [t.n_out for t in tables])
        rows = [np.stack([t.dst + start, t.src, t.coef]) for t, start in zip(tables, starts)]
        return LinearTable(*np.concatenate(rows, axis=1), starts[-1], tables[0].n_in)

    def merged(self) -> "LinearTable":
        """The table with rows of equal (dst, src) summed, zero sums dropped,
        and the rows sorted by (dst, src)."""
        key, inverse = np.unique(self.dst * self.n_in + self.src, return_inverse=True)
        total = np.zeros(len(key), dtype=np.int64)
        np.add.at(total, inverse, self.coef)
        keep = total != 0
        return LinearTable(*np.divmod(key[keep], self.n_in), total[keep], self.n_out, self.n_in)

    def dense(self) -> np.ndarray:
        """The table as an integer (n_out, n_in) matrix."""
        m = np.zeros((self.n_out, self.n_in), dtype=np.int64)
        np.add.at(m, (self.dst, self.src), self.coef)
        return m

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The map on the entries of x, flattened; or, when x has more than
        one axis and its last holds the n_in inputs, on each of its rows,
        the leading axes a batch."""
        if x.ndim > 1 and x.shape[-1] == self.n_in:
            batch, src, dst = x.shape[:-1], (..., self.src), (..., self.dst)
        else:
            batch, src, dst, x = (), self.src, self.dst, x.reshape(-1)
        values = x[src]
        values = (self.coef if values.dtype == object else self.float_coef) * values
        if self.path == "gather":
            return values
        if self.path == "assign":
            out = zeros(batch + (self.n_out,), values.dtype == object)
            out[dst] = values  # each output is written once
            return out
        if not batch:
            return scatter_add(self.dst, values, self.n_out)
        n = math.prod(batch)  # each batch entry's outputs back to back
        index = (self.dst + self.n_out * np.arange(n)[:, None]).reshape(-1)
        return scatter_add(index, values.reshape(-1), n * self.n_out).reshape(batch + (self.n_out,))


# --- wedge -----------------------------------------------------------------


@table
def _wedge_table(ka: int, kb: int) -> IndexTable:
    """Rows (pos_a, pos_b, pos_out, sign) over disjoint I, J."""
    rows = []
    for pa, I in enumerate(BASIS[ka]):
        for pb, J in enumerate(BASIS[kb]):
            if set(I).isdisjoint(J):
                merged = I + J
                rows.append((pa, pb, INDEX[ka + kb][tuple(sorted(merged))], perm_sign(merged)))
    return IndexTable.from_rows(rows, dim_of(ka + kb))


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; rejects degree overflow past 7."""
    if a.degree + b.degree > DIM:
        raise ValueError(
            f"wedge of degrees {a.degree} and {b.degree} exceeds dimension {DIM}"
        )
    return Form(a.degree + b.degree, _wedge_table(a.degree, b.degree).apply(a.coeffs, b.coeffs))


@table
def _alternation_table(degrees: tuple) -> LinearTable:
    """The table of a (7, n) stack of blocks of the given degrees, side by
    side, to sum_i e^i ^ block[i] of each, back to back: the rows of the
    wedge tables of (1, k), each in its row order."""
    width = sum(dim_of(k) for k in degrees)
    cols, col, out = [], 0, 0
    for k in degrees:
        t = _wedge_table(1, k)
        cols.append(np.stack([out + t.po, t.pa * width + col + t.pb, t.coef]))
        col, out = col + dim_of(k), out + dim_of(k + 1)
    return LinearTable(*np.concatenate(cols, axis=1), out, DIM * width)


def alternate(stack: np.ndarray, degrees: tuple) -> np.ndarray:
    """sum_i e^i ^ block[i] for each (7, dim_k) block of a (7, n) stack whose
    blocks have the given degrees, side by side: the coefficients of the
    (k + 1)-forms back to back, in one scatter.  Each output adds the rows
    of its own block in table order, as a scatter of that block alone does."""
    return _alternation_table(degrees).apply(stack)


def frame_wedge(stack: np.ndarray, degree: int) -> Form:
    """sum_i e^i ^ stack[i] for a (7, dim_k) stack of k-form coefficients."""
    return Form(degree + 1, alternate(stack, (degree,)))


@table
def _derivation_table(k: int, r: int):
    """Index table of a derivation D on k-forms from D on 1-forms.

    D e^I = sum_s (-1)^s D(e^(i_s)) ^ e^(I - i_s) holds for d, which maps
    1-forms to 2-forms (r = 2), and for the gl(7) action of a connection,
    which maps 1-forms to 1-forms (r = 1).  Rows (pos_out, pos_in, target,
    head, sign): D_k[pos_out, pos_in] += sign * D_1[target, head], target
    the position of a basis r-form.  Each interior row e_head -| e^I, in
    (pos_in, head) order, is followed by the wedge rows e^T ^ e^(I - head)
    of (r, k - 1) in target order; k - 1 + r must not exceed 7.
    """
    if k == 0:
        return index_columns([], 5)
    c = _contract_table(1, k)
    order = np.lexsort((c.pa, c.pb))
    head, pos, rest, sign = c.pa[order], c.pb[order], c.po[order], c.coef[order]
    w = _wedge_table(r, k - 1)
    i, j = np.nonzero(rest[:, None] == w.pb[None, :])
    return index_columns(np.stack([w.po[j], pos[i], w.pa[j], head[i], sign[i] * w.coef[j]], axis=1), 5)


@table
def _connection_table(degrees: tuple) -> LinearTable:
    """The table of the coefficients of forms of the given degrees, back to
    back, to the flattened (49, n) matrix M of `connection_matrix`: the
    r = 1 derivation table of each degree, the sign negated,
    grad_i e^p = -sum_j Gamma[i, j, p] e^j."""
    width = sum(dim_of(k) for k in degrees)
    cols, start = [], 0
    for k in degrees:
        out, pos, target, head, sign = _derivation_table(k, 1)
        cols.append(np.stack([(target * DIM + head) * width + start + out, start + pos, -sign]))
        start += dim_of(k)
    return LinearTable(*np.concatenate(cols, axis=1), DIM * DIM * width, width)


def connection_matrix(*forms: Form) -> np.ndarray:
    """The (49, n) matrix M of forms with constant coefficients, their
    columns side by side, M[j*7 + p, J] = d(grad a)_J / d Gamma[., j, p]:
    the one scatter of the forms that every connection's action on them
    reads (`connection_action`)."""
    table = _connection_table(tuple(a.degree for a in forms))
    return table.apply(np.concatenate([a.coeffs for a in forms])).reshape(DIM * DIM, table.n_in)


def connection_action(gamma: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(7, n) coefficients of grad_(e_i) a, i = 1..7, for each form a of the
    matrix m = `connection_matrix`(...), side by side as in m: one product
    of Gamma, read as 7 x 49, with m.

    Gamma[i, j, p] = g(grad_(e_i) e_j, e_p) gives grad_i e^p =
    -sum_j Gamma[i, j, p] e^j, extended to k-forms by the r = 1 derivation
    table.  A NaN or infinite Gamma is rejected as the antisymmetric fold
    (`antisym_coefficients`) rejects a bad array.
    """
    stack = gamma.reshape(DIM, DIM * DIM).dot(m)
    if not (stack.dtype == object or np.isfinite(stack).all()):
        raise ValueError("input array is not antisymmetric (residual nan)")
    return stack


def _connection_stack(gamma: np.ndarray, a: Form) -> np.ndarray:
    """(7, dim_k) coefficients of grad_(e_i) a, i = 1..7, for a form a with
    constant coefficients (`connection_action` of its `connection_matrix`)."""
    return connection_action(gamma, connection_matrix(a))


def covariant_wedge(gamma: np.ndarray, a: Form) -> Form:
    """alt(grad a) = sum_i e^i ^ grad_i a (equals d a for Levi-Civita)."""
    if a.degree == DIM:
        raise ValueError("alt(grad a) of a top-degree form vanishes identically")
    return frame_wedge(_connection_stack(gamma, a), a.degree)


# --- Hodge star ------------------------------------------------------------


def hodge_table(k: int):
    """(pos_out, sign) per input position: *e^I = sign(I, I^c) e^(I^c), read
    off the one row e^I ^ e^(I^c) = sign(I, I^c) vol per I of the wedge
    table of (k, 7 - k)."""
    w = _wedge_table(k, DIM - k)
    return w.pb, w.coef


def hodge_matrix(k: int) -> np.ndarray:
    """The Hodge star on k-forms as an integer (signed permutation) matrix."""
    return _hodge_gather(k).dense()


@table
def wedge_phi_matrix(k: int) -> np.ndarray:
    """Integer matrix of a -> a ^ phi on k-forms."""
    return _wedge_table(k, 3).dense(dim_of(k), dim_of(3)).dot(phi_coefficients())


@table
def _hodge_gather(k: int) -> LinearTable:
    """* on k-forms as a table with one row per output position (a gather):
    `hodge_table` read from the output side."""
    po, sign = hodge_table(k)
    src = np.argsort(po)
    return LinearTable(np.arange(len(po)), src, sign[src], len(po), len(po))


def hodge(a: Form) -> Form:
    """Hodge star for vol = e^1234567; a wedge *b = <a,b> vol."""
    return Form(DIM - a.degree, _hodge_gather(a.degree).apply(a.coeffs))


# --- interior product -------------------------------------------------------


def interior(v, a: Form) -> Form:
    """Interior product i_v a for a vector v (length-7 components)."""
    v = np.asarray(v, dtype=object if a.exact else float)
    if a.degree == 0:
        return Form.zero(0, a.exact)
    return Form(a.degree - 1, _contract_table(1, a.degree).apply(v, a.coeffs))


@table
def _frame_interior_table(k: int) -> LinearTable:
    """The interior rows (i, pos_in, pos_out, sign) of k-forms to the flat stack of `frame_interior`."""
    t = _contract_table(1, k)
    return LinearTable(t.pa * t.n_out + t.po, t.pb, t.coef, DIM * t.n_out, dim_of(k))


def frame_interior(a: Form) -> np.ndarray:
    """The (7, dim_(k-1)) stack of e_i -| a for i = 1..7 (degree k >= 1)."""
    if a.degree == 0:
        raise ValueError("the interior product of a 0-form has no degree -1 result")
    return _frame_interior_table(a.degree).apply(a.coeffs).reshape(DIM, -1)


def basis_vector(i: int, exact: bool = False) -> np.ndarray:
    """The vector e_i (1-based) as a component array."""
    v = zeros(DIM, exact)
    v[i - 1] = scalar(1, exact)
    return v


@table
def _contract_table(ka: int, kb: int) -> IndexTable:
    """Rows (pos_a, pos_b, pos_out, sign) of e^I -| e^J, the adjoint of the
    wedge: <e^I -| e^J, e^C> = <e^J, e^I ^ e^C>, so the wedge table of
    (ka, kb - ka) with its second input and its output exchanged.  With
    ka = 1 it is the interior product, rows (i, pos_in, pos_out, sign)."""
    w = _wedge_table(ka, kb - ka)
    return IndexTable(w.pa, w.po, w.pb, w.coef, dim_of(kb - ka))


def contract(a: Form, b: Form) -> Form:
    """Adjoint of wedging: <contract(a, b), c> = <b, a wedge c>.

    On monomials e^pq -| beta = i_q i_p beta, extended bilinearly.
    """
    if a.degree > b.degree:
        raise ValueError("cannot contract a higher degree into a lower one")
    return Form(b.degree - a.degree, _contract_table(a.degree, b.degree).apply(a.coeffs, b.coeffs))


# --- totally antisymmetric component arrays ---------------------------------


class AntisymArray:
    """Full component array A[i1..ik] of a k-form, totally antisymmetric."""

    __slots__ = ("degree", "array")

    def __init__(self, degree: int, array: np.ndarray):
        self.degree, self.array = degree, array

    def tensor_norm2(self):
        return (self.array * self.array).sum()


def _flat(idx) -> int:
    """Position of the entry idx in a flattened (7,)*k array."""
    pos = 0
    for i in idx:
        pos = pos * DIM + i
    return pos


@table
def _antisym_table(k: int) -> LinearTable:
    """The unfold of k-form coefficients into the flattened component array:
    rows (flat entry, coefficient position, sign) over all orderings of each
    I, the sorted I first."""
    rows = [
        (_flat(perm), p, perm_sign(perm))
        for p, I in enumerate(BASIS[k])
        for perm in itertools.permutations(I)
    ]
    return LinearTable(*index_columns(rows, 3), DIM**k, dim_of(k))


def to_antisym(a: Form) -> AntisymArray:
    return AntisymArray(a.degree, _antisym_table(a.degree).apply(a.coeffs).reshape((DIM,) * a.degree))


def antisym_coefficients(arr: np.ndarray, degree: int, tol: float = 1e-12) -> np.ndarray:
    """Coefficients of the antisymmetric arrays on the last ``degree`` axes.

    Leading axes are a batch: a (7, 7, 7) array of degree 2 gives a (7, 21)
    stack.  One check covers the whole stack and rejects it if any array is
    not antisymmetric.
    """
    exact = arr.dtype == object
    flat = arr.reshape(arr.shape[: arr.ndim - degree] + (DIM**degree,))
    unfold = _antisym_table(degree)
    coeffs = flat.take(unfold.dst[:: math.factorial(degree)], axis=-1)  # the sorted orderings
    if not exact:
        coeffs = np.asarray(coeffs, dtype=float)
    rebuilt = unfold.apply(coeffs)
    off = rebuilt != flat  # subtract only where they differ: cheap on Fractions
    residual = max_abs(rebuilt[off] - flat[off])
    if not residual <= tol:
        raise ValueError(f"input array is not antisymmetric (residual {residual:.3g})")
    return coeffs


def from_antisym(arr, degree: int = None, tol: float = 1e-12) -> Form:
    """Inverse of to_antisym; rejects arrays that are not antisymmetric."""
    if isinstance(arr, AntisymArray):
        degree, arr = arr.degree, arr.array
    arr = np.asarray(arr)
    if degree is None:
        degree = arr.ndim
    return Form(degree, antisym_coefficients(arr, degree, tol))


# --- the G2 three-form -------------------------------------------------------

_PHI_TERMS = {
    (1, 2, 7): 1,
    (3, 4, 7): 1,
    (5, 6, 7): 1,
    (1, 3, 5): 1,
    (2, 4, 5): -1,
    (1, 4, 6): -1,
    (2, 3, 6): -1,
}



@table
def phi_coefficients() -> np.ndarray:
    """The coefficients of phi as an integer vector."""
    c = np.zeros(dim_of(3), dtype=np.int64)
    for idx, v in _PHI_TERMS.items():
        c[INDEX[3][check_multi_index(idx, 3)]] = v
    return c


@table
def _phi_templates(exact: bool) -> tuple:
    """The coefficient arrays of phi and *phi in one scalar mode."""
    phi = Form(3, as_mode(phi_coefficients(), exact))
    return phi.coeffs, hodge(phi).coeffs


def standard_phi(exact: bool = False) -> Form:
    """The fundamental three-form in its adapted coframe (a fresh array)."""
    return Form(3, _phi_templates(bool(exact))[0].copy())


def standard_phi_dual(exact: bool = False) -> Form:
    return Form(4, _phi_templates(bool(exact))[1].copy())


def standard_omega(exact: bool = False) -> Form:
    """omega = e^12 + e^34 + e^56, the Kaehler form of the e^7 reduction."""
    return Form.from_terms(2, {(1, 2): 1, (3, 4): 1, (5, 6): 1}, exact)


def standard_psi_plus(exact: bool = False) -> Form:
    return Form.from_terms(
        3, {(1, 3, 5): 1, (2, 4, 5): -1, (1, 4, 6): -1, (2, 3, 6): -1}, exact
    )


def standard_psi_minus(exact: bool = False) -> Form:
    return Form.from_terms(
        3, {(2, 4, 6): -1, (1, 3, 6): 1, (2, 3, 5): 1, (1, 4, 5): 1}, exact
    )


@table
def _phi_component_arrays(exact: bool) -> tuple:
    return to_antisym(standard_phi(exact)).array, to_antisym(standard_phi_dual(exact)).array


def phi_arrays(exact: bool = False):
    """Cached component arrays (phi_ijk, phi_ijkl) of phi and *phi."""
    return _phi_component_arrays(bool(exact))


# --- contraction identity suite ---------------------------------------------


def _outer(a, b):
    return np.multiply.outer(a, b)


def check_contraction_identities(exact: bool = False) -> dict:
    """Componentwise residuals of the five phi/ *phi contraction identities.

    Returns a mapping name -> max absolute residual (floats, even in exact
    mode, so callers can compare against a tolerance; in exact mode each
    residual is literally 0.0).
    """
    p3, p4 = phi_arrays(exact)
    if exact:
        # the entries are 0 and +-1 and every identity has integer
        # coefficients, so int64 arithmetic is exact without Fractions
        p3, p4 = p3.astype(np.int64), p4.astype(np.int64)
    g = np.eye(DIM, dtype=p3.dtype)

    dd = _outer(g, g).transpose(0, 2, 1, 3)  # delta_ik delta_jl
    dd_swap = dd.transpose(1, 0, 2, 3)  # delta_jk delta_il

    report = {}

    lhs = np.tensordot(p3, p3, axes=([1, 2], [1, 2]))
    report["phi.phi -> 6 delta"] = max_abs(lhs - 6 * g)

    lhs = np.tensordot(p3, p3, axes=([2], [0]))
    report["phi.phi -> delta delta + *phi"] = max_abs(lhs - (dd - dd_swap + p4))

    lhs = np.tensordot(p4, p4, axes=([2, 3], [0, 1]))
    report["*phi.*phi -> 4 delta delta + 2 *phi"] = max_abs(
        lhs - (4 * (dd - dd_swap) + 2 * p4)
    )

    lhs = np.tensordot(p3, p4, axes=([1, 2], [0, 1]))
    report["phi.*phi -> 4 phi"] = max_abs(lhs - 4 * p3)

    lhs = np.tensordot(p3, p4, axes=([2], [0]))
    rhs = (
        _outer(g, p3).transpose(0, 2, 1, 3, 4)  # d_ik phi_jlm
        - _outer(g, p3).transpose(2, 0, 1, 3, 4)  # d_jk phi_ilm
        + _outer(g, p3).transpose(0, 2, 4, 1, 3)  # d_il phi_jmk
        - _outer(g, p3).transpose(2, 0, 4, 1, 3)  # d_jl phi_imk
        + _outer(g, p3).transpose(0, 2, 3, 4, 1)  # d_im phi_jkl
        - _outer(g, p3).transpose(2, 0, 3, 4, 1)  # d_jm phi_ikl
    )
    report["phi.*phi -> delta phi (6 terms)"] = max_abs(lhs - rhs)

    lhs = np.tensordot(p4, p4, axes=([1, 2, 3], [1, 2, 3]))
    report["*phi.*phi full -> 24 delta"] = max_abs(lhs - 24 * g)

    return report
