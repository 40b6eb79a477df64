"""Algebraic curvature tensors on R^7 and their five G2 blocks.

A curvature-like tensor is stored as a symmetric 21 x 21 matrix over the
i < j pair basis of Lambda^2, M[(ij), (kl)] = R_ijkl, and no map here
unfolds it into the 7^4 array.  Component conventions:

* R_ijkl = g(R(e_i, e_j) e_k, e_l), so the round sphere has R_ijji = +1
  and r_g(g) = g (.) g equals -2 Id as a pair matrix;
* norms sum over all four indices: ||R||^2 = 4 ||M||_F^2, which makes
  ||r_g(g)||^2 = 336;
* the Ricci contraction is c^g(r)(u, v) = r(u, e_i, e_i, v) and the
  phi-Ricci is c^phi(r)(u, v) = 4 r(u -| phi, v -| phi), evaluated by
  pairing pair-basis coefficient vectors.  c^g is the adjoint of r_g and
  gathers through the r_g table; r_phi(h) is b^T h^T b with b the rows
  e_u -| phi, the matrix c^phi pairs with.

The five-block splitting is

    S    = s/84 r_g(g)
    R_0  = 1/5 r_g(Ric0^g)
    W_27 = 3/112 (r_g - 5 r_phi)(Ric^W),   Ric^W = (4 Ric0^g - 5 Ric0^phi)/20
    W_64 = P_odot(W - W_27)
    W_77 = P_g2(W - W_27)

with P_g2 = Q14 X Q14 and P_odot = Q7 X Q14 + Q14 X Q7 acting on the pair
matrix through the degree-2 projectors.

r_g, b and the contractions are `exterior_algebra.LinearTable`s: r_g from
the 49 entries of h to the 441 pair-matrix entries (r_g(g) is a cached
constant), and b with three rows per entry (R_ijkl, R_kijl, R_jkil).  The
linear maps `decompose` takes are tables composed once from these, in
integer arithmetic: one merged stack on R gives the traceless parts of the
two contractions (`_contraction_matrix`, which `ricci` and `phi_ricci`
apply), the scalar curvature, the gate's b(R) and R - R^T (`_pair_table`),
and one table on (Ric0, Ric^W) gives W_27 and R_0 (`_block_table`, from
the dense r_g and the integer matrix of r_phi with its kernel projection,
which `phi_product` applies).
`decompose` writes the five blocks into one (5, 21, 21) array, W_77 and
W_64 from three products with the stacked (Q14; Q7); reassembly sums it
once and the block norms reduce it once.  It keeps Ric0^g and Ric0^phi as
one (2, 7, 7) stack and the Bianchi residual of its gate.
"""

from __future__ import annotations

import numpy as np

from ._linalg import as_mode, bound, identity, lazy, max_abs_each, scalar, table, zeros
from .exterior_algebra import BASIS, DIM, LinearTable, index_columns
from .g2_algebra import iphi_matrix, projector_matrix

PAIRS = BASIS[2]
NPAIRS = len(PAIRS)


class CurvatureTensor:
    """Element of S^2(Lambda^2 R^7) over the i < j pair basis."""

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray):
        if mat.shape != (NPAIRS, NPAIRS):
            raise ValueError(f"expected a {NPAIRS} x {NPAIRS} matrix")
        self.mat = mat

    @property
    def exact(self) -> bool:
        return self.mat.dtype == object

    def norm2(self):
        """Tensor norm, summed over all four indices."""
        return 4 * (self.mat * self.mat).sum()

    def __add__(self, other):
        return CurvatureTensor(self.mat + other.mat)

    def __sub__(self, other):
        return CurvatureTensor(self.mat - other.mat)

    def __mul__(self, c):
        return CurvatureTensor(self.mat * c)

    __rmul__ = __mul__

    def __neg__(self):
        return CurvatureTensor(-self.mat)


def inner(a: CurvatureTensor, b: CurvatureTensor):
    return 4 * (a.mat * b.mat).sum()


# --- Bianchi map ----------------------------------------------------------------


@table
def _bianchi_table() -> LinearTable:
    """b on the 441 pair-matrix entries: the rows of R_ijkl, R_kijl and R_jkil
    at each entry (ij), (kl), with their signs, each term over all entries in
    turn; the sign is 0 where a pair repeats an index."""
    i, j = index_columns(PAIRS, 2)
    pos = np.zeros((DIM, DIM), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(NPAIRS)
    sign = np.sign(np.subtract.outer(range(DIM), range(DIM))).T  # +1 where a < b
    i, j, k, l = i[:, None], j[:, None], i, j  # rows (ij) against columns (kl)
    terms = ((i, j, k, l), (k, i, j, l), (j, k, i, l))  # R_wxyz
    src = np.concatenate([(pos[w, x] * NPAIRS + pos[y, z]).reshape(-1) for w, x, y, z in terms])
    coef = np.concatenate([(sign[w, x] * sign[y, z]).reshape(-1) for w, x, y, z in terms])
    n = NPAIRS * NPAIRS
    return LinearTable(np.tile(np.arange(n), 3), src, coef, n, n)


def bianchi_b(r: CurvatureTensor) -> np.ndarray:
    """b(R)_ijkl = R_ijkl + R_jkil + R_kijl as a 21 x 21 array over i < j, k < l;
    on S^2(Lambda^2) b(R) is a 4-form, which these entries determine."""
    return _bianchi_table().apply(r.mat).reshape(NPAIRS, NPAIRS)


def project_to_kernel(r: CurvatureTensor) -> CurvatureTensor:
    """Orthogonal projection of S^2(Lambda^2) onto ker b.

    Subtracts the total antisymmetrisation (the Lambda^4 part), which is
    b/3 at the pair-matrix entries.
    """
    return CurvatureTensor(r.mat - bianchi_b(r) / 3)


def random_algebraic_curvature(seed: int = 0, exact: bool = False) -> CurvatureTensor:
    """Random element of ker b (Bianchi residual at rounding level)."""
    rng = np.random.default_rng(seed)
    if exact:
        from fractions import Fraction

        raw = rng.integers(-9, 10, size=(NPAIRS, NPAIRS))
        m = zeros((NPAIRS, NPAIRS), True)
        for p in range(NPAIRS):
            for q in range(NPAIRS):
                m[p, q] = Fraction(int(raw[p, q] + raw[q, p]), 2)
    else:
        raw = rng.normal(size=(NPAIRS, NPAIRS))
        m = (raw + raw.T) / 2
    return project_to_kernel(CurvatureTensor(m))


# --- contractions ----------------------------------------------------------------


def _contraction_matrix() -> np.ndarray:
    """The integer (98, 441) matrix of the pair matrix to (c^g, c^phi), built
    for the two tables that apply it and not kept.

    c^g is the adjoint of r_g over the pair matrix, <h, c^g(M)> =
    <r_g(h), M> for every 21 x 21 M, so its rows are the table of
    `kn_product` read backwards; c^phi(r) = 4 b r b^T with b the rows
    e_u -| phi of `iphi_matrix`, whose rows hold three entries each, so every
    entry of c^phi reads nine entries of r.
    """
    m = np.zeros((2, DIM * DIM, NPAIRS * NPAIRS), dtype=np.int64)
    m[0] = _kn_table().dense().T
    b = iphi_matrix()
    m[1] = 4 * np.multiply.outer(b, b).transpose(0, 2, 1, 3).reshape(DIM * DIM, -1)
    return m.reshape(2 * DIM * DIM, -1)


@table
def _contraction_table() -> LinearTable:
    """The table of `_contraction_matrix`."""
    return LinearTable.from_matrix(_contraction_matrix())


def _contractions(r: CurvatureTensor) -> np.ndarray:
    """(c^g(r), c^phi(r)) as one (2, 7, 7) array, one scatter of the pair
    matrix (`_contraction_matrix`)."""
    return _contraction_table().apply(r.mat).reshape(2, DIM, DIM)


@table
def _pair_table() -> LinearTable:
    """The linear maps of the pair matrix r that `decompose` reads, as one
    merged table, their outputs back to back: 7 Ric0^g and 7 Ric0^phi (the
    traceless parts of the two contractions, times 7) as 98 entries, the
    scalar curvature, b(r) at the pair entries (`bianchi_b`) and r - r^T,
    441 entries each."""
    n = NPAIRS * NPAIRS
    contractions = _contraction_matrix().reshape(2, DIM * DIM, n)
    traces = contractions[:, :: DIM + 1].sum(axis=1)  # (2, n)
    eye = np.eye(DIM, dtype=np.int64).reshape(-1)
    traceless = DIM * contractions - traces[:, None, :] * eye[None, :, None]
    rows = np.arange(n)
    transpose = rows.reshape(NPAIRS, NPAIRS).T.reshape(-1)
    asymmetry = LinearTable(np.tile(rows, 2), np.concatenate((rows, transpose)), np.repeat([1, -1], n), n, n)
    ricci = LinearTable.from_matrix(np.concatenate((traceless.reshape(-1, n), traces[:1])))
    return LinearTable.stack(ricci, _bianchi_table(), asymmetry).merged()


def ricci(r: CurvatureTensor) -> np.ndarray:
    """c^g(r)(u, v) = r(u, e_i, e_i, v) (`_contraction_matrix`)."""
    return _contractions(r)[0]


def scalar_curvature(r: CurvatureTensor):
    return ricci(r).trace()


@table
def _iphi_matrix(exact: bool) -> np.ndarray:
    """`iphi_matrix` in one scalar mode."""
    return as_mode(iphi_matrix(), exact)


def phi_ricci(r: CurvatureTensor) -> np.ndarray:
    """c^phi(r)(u, v) = 4 r(u -| phi, v -| phi) (`_contraction_matrix`);
    trace is -2 s_g."""
    return _contractions(r)[1]


def traceless_part(h: np.ndarray) -> np.ndarray:
    return h - identity(DIM, h.dtype == object) * (h.trace() / DIM)


# --- Kulkarni-Nomizu style products ------------------------------------------------


@table
def _kn_table() -> LinearTable:
    """r_g as a table from the 49 entries of h to the 441 pair-matrix
    entries: rows (pos_out, pos_in, sign) from R_ijkl = h_jk g_il - h_ik g_jl
    + h_il g_jk - h_jl g_ik.

    An entry has at most two rows (the g_jl and g_ik terms, on the diagonal
    pairs), so a float sum does not depend on their order.
    """
    i, j = (np.repeat(c, NPAIRS) for c in index_columns(PAIRS, 2))
    k, l = (np.tile(c, NPAIRS) for c in index_columns(PAIRS, 2))
    out = np.arange(NPAIRS * NPAIRS)
    rows = []
    for a, b, x, y, sign in ((j, k, i, l, 1), (i, k, j, l, -1), (i, l, j, k, 1), (j, l, i, k, -1)):
        hit = x == y  # the g factor
        rows.append(np.stack([out[hit], (DIM * a + b)[hit], np.full(hit.sum(), sign)], axis=1))
    return LinearTable(*np.concatenate(rows).T, NPAIRS * NPAIRS, DIM * DIM)


def kn_product(h: np.ndarray) -> CurvatureTensor:
    """r_g(h) = h (.) g, the Kulkarni-Nomizu product with the metric: one
    scatter of the entries of h through `_kn_table`."""
    return CurvatureTensor(_kn_table().apply(np.asarray(h)).reshape(NPAIRS, NPAIRS))


@table
def _kn_metric(exact: bool) -> CurvatureTensor:
    """r_g(g) (-2 Id as a pair matrix)."""
    return kn_product(identity(DIM, exact))


def _phi_product_matrix() -> np.ndarray:
    """The integer (441, 49) matrix of h to 3 r_phi(h) = 3 T - b(T), with
    T_ijkl = h_ab phi_bij phi_akl the pair matrix b^T h^T b (b the rows
    e_u -| phi of `iphi_matrix`), composed on the basis tensors and not
    kept: T(e_a (x) e_b) = b[b]^T b[a], entry (p, q) b[b, p] b[a, q]."""
    b = iphi_matrix()
    t = np.multiply.outer(b, b).transpose(1, 3, 2, 0).reshape(NPAIRS * NPAIRS, DIM * DIM)
    bianchi, b_t = _bianchi_table(), np.zeros_like(t)
    np.add.at(b_t, bianchi.dst, bianchi.coef[:, None] * t[bianchi.src])  # b of each column
    return 3 * t - b_t


@table
def _phi_product_table() -> LinearTable:
    """The table of `_phi_product_matrix`."""
    return LinearTable.from_matrix(_phi_product_matrix())


def phi_product(h: np.ndarray) -> CurvatureTensor:
    """r_phi(h): insert both slots of h into phi, Bianchi-projected.

    T_ijkl = h_ab phi_bij phi_akl, followed by removal of the Lambda^4 part
    b(T)/3: one scatter of h through `_phi_product_matrix`, divided by 3.
    """
    return CurvatureTensor(_phi_product_table().apply(np.asarray(h)).reshape(NPAIRS, NPAIRS) / 3)


@table
def _block_table() -> LinearTable:
    """The table of (Ric0, Ric^W), 98 entries, to 112 W27 and 5 R0, 441
    entries each: 112 W27 = 3 r_g(Ric^W) - 15 r_phi(Ric^W) and
    5 R0 = r_g(Ric0), composed from the r_g table and `_phi_product_matrix`
    in integer arithmetic."""
    n = NPAIRS * NPAIRS
    kn = _kn_table().dense()
    m = np.zeros((2, n, 2, DIM * DIM), dtype=np.int64)
    m[0, :, 1] = 3 * kn - 5 * _phi_product_matrix()
    m[1, :, 0] = kn
    return LinearTable.from_matrix(m.reshape(2 * n, -1))


def generalized_ricci(r: CurvatureTensor, k) -> np.ndarray:
    """Ric0^k = k1 Ric0^g + k2 Ric0^phi (traceless)."""
    k1, k2 = k
    return k1 * traceless_part(ricci(r)) + k2 * traceless_part(phi_ricci(r))


def ric_W(r: CurvatureTensor) -> np.ndarray:
    """Ric^W = (4 Ric0^g - 5 Ric0^phi) / 20, the conformally invariant one."""
    return generalized_ricci(r, (4, -5)) / 20


# --- the five-block decomposition ---------------------------------------------------


class CurvatureDecomposition:
    """The five blocks of an algebraic curvature tensor, with the Ricci data
    they were built from and the input's first Bianchi residual."""

    __slots__ = (
        "blocks",  # the five blocks as one (5, 21, 21) array, in the order of NAMES
        "ric0_stack",  # (Ric0^g, Ric0^phi) as one (2, 7, 7) array
        "ricw",  # Ric^W = (4 ric0 - 5 ric0_phi) / 20
        "s",  # scalar curvature
        "bianchi",  # max |b(R)| of the input, measured by the gate of `decompose`
        "__dict__",  # the lazy fields
    )

    #: the block names of `norm2s`, in the order of `blocks`
    NAMES = ("W77", "W64", "W27", "R0", "S")

    def __init__(self, blocks, ric0_stack, ricw, s, bianchi):
        self.blocks, self.ric0_stack, self.ricw, self.s, self.bianchi = blocks, ric0_stack, ricw, s, bianchi

    # the blocks, R_0 = r_g(ric0) / 5 and S = s/84 r_g(g), and the traceless
    # Ricci and phi-Ricci tensors, as views
    w77 = property(lambda self: CurvatureTensor(self.blocks[0]))
    w64 = property(lambda self: CurvatureTensor(self.blocks[1]))
    w27 = property(lambda self: CurvatureTensor(self.blocks[2]))
    ricci_block = property(lambda self: CurvatureTensor(self.blocks[3]))
    scalar_block = property(lambda self: CurvatureTensor(self.blocks[4]))
    ric0 = property(lambda self: self.ric0_stack[0])
    ric0_phi = property(lambda self: self.ric0_stack[1])

    def reassemble(self) -> CurvatureTensor:
        """The sum of the blocks, added in the order of NAMES."""
        return CurvatureTensor(self.blocks.sum(axis=0))

    @lazy
    def norm2s(self) -> dict:
        """Squared norms of the five blocks, in the scalar mode of the tensor."""
        flat = self.blocks.reshape(len(self.NAMES), -1)
        return dict(zip(self.NAMES, 4 * (flat * flat).sum(axis=1)))

    @lazy
    def ric0_norm2(self):
        """||Ric0^g||^2, in the scalar mode of the tensor."""
        return (self.ric0 * self.ric0).sum()

    def block_norms(self) -> dict:
        return {name: float(n) for name, n in self.norm2s.items()}


@table
def _decompose_tables(exact: bool) -> tuple:
    """The tables of `decompose` in one scalar mode: the weights that
    take (Ric0^g, Ric0^phi) to (Ric0^g, Ric^W = (4 Ric0^g - 5 Ric0^phi) / 20)
    as a (2, 2) matrix; the scales of the outputs of `_block_table`, (1/112,
    1/5) as (2, 1, 1); (Q14 over Q7) as one (42, 21) matrix; and Q7 and Q14."""
    one = scalar(1, exact)
    weights = np.array([[one, 0 * one], [4 * one / 20, -5 * one / 20]])
    scales = np.array([one / 112, one / 5]).reshape(2, 1, 1)
    q7, q14 = projector_matrix(2, 7, exact), projector_matrix(2, 14, exact)
    return weights, scales, np.concatenate((q14, q7)), q7, q14


def decompose(r: CurvatureTensor, tol: float = 1e-9) -> CurvatureDecomposition:
    """Split an algebraic curvature tensor into its five orthogonal blocks.

    Rejects input whose first Bianchi residual exceeds tol (relative to the
    largest entry) rather than silently projecting.  The blocks are written
    into one (5, 21, 21) array.
    """
    # the gate's b(R) and R - R^T, the traceless contractions and the
    # scalar curvature are one scatter of the pair matrix
    maps = _pair_table().apply(r.mat)
    m, n = 2 * DIM * DIM, NPAIRS * NPAIRS
    size, res, asymmetry = max_abs_each(r.mat, maps[m + 1 : m + 1 + n], maps[m + 1 + n :])
    limit = bound(tol, size)
    if not res <= limit:
        raise ValueError(
            f"input violates the first Bianchi identity (residual {res:.3g})"
        )
    if not asymmetry <= limit:
        raise ValueError("input pair matrix is not symmetric")
    exact = r.exact
    one = scalar(1, exact)
    weights, scales, q, q7, q14 = _decompose_tables(exact)

    # (Ric0^g, Ric0^phi) as one stack, and (Ric0, Ric^W) one product of it
    ric0_stack = (maps[:m] / DIM).reshape(2, DIM, DIM)
    s = maps[m]
    ric0_ricw = weights.dot(ric0_stack.reshape(2, -1))

    # the blocks as pair matrices, in the order of NAMES; each scalar
    # multiplies from the right, as CurvatureTensor.__mul__ does, and W27
    # and R0 are one scatter of (Ric0, Ric^W)
    blocks = np.empty((5, NPAIRS, NPAIRS), dtype=r.mat.dtype)  # W77, W64, W27, R0, S
    np.multiply(_kn_metric(exact).mat, s * one / 84, out=blocks[4])
    np.multiply(_block_table().apply(ric0_ricw).reshape(2, NPAIRS, NPAIRS), scales, out=blocks[2:4])

    # P_g2 = Q14 X Q14 and P_odot = Q7 X Q14 + Q14 X Q7 on the Weyl rest, in
    # three products with the stacked (Q14; Q7)
    weyl_rest = r.mat - blocks[4] - blocks[3] - blocks[2]
    q_rest = q.dot(weyl_rest)  # Q14 rest over Q7 rest
    np.dot(q_rest, q14, out=blocks[:2].reshape(2 * NPAIRS, NPAIRS))  # W77 over Q7 rest Q14
    np.add(blocks[1], q_rest[:NPAIRS].dot(q7), out=blocks[1])
    return CurvatureDecomposition(blocks, ric0_stack, ric0_ricw[1].reshape(DIM, DIM), s, res)


def norm_split_residual(r: CurvatureTensor, dec: CurvatureDecomposition) -> float:
    """Residual of ||R||^2 = ||W77||^2 + ||W64||^2 + 15/28 ||RicW||^2
    + 4/5 ||Ric0||^2 + 1/21 s^2, relative to ||R||^2, for dec = decompose(r)."""
    total = (
        dec.w77.norm2()
        + dec.w64.norm2()
        + scalar(15, r.exact) / 28 * (dec.ricw * dec.ricw).sum()
        + scalar(4, r.exact) / 5 * dec.ric0_norm2
        + dec.s * dec.s / 21
    )
    n = r.norm2()
    return abs(float(total - n)) / max(float(n), 1e-30)
