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

r_g is an index table from the 49 entries of h to the 441 pair-matrix
entries, applied to Ric0^g and Ric^W in one scatter; r_g(g) is a cached
constant, and b is two gathers (the R_kijl and R_jkil terms of each entry).
`decompose` builds every block once and keeps the blocks, Ric0^g, Ric0^phi
and the Bianchi residual of its gate; the blocks stack into one
(5, 21, 21) array, which reassembly sums once and the block norms reduce
once.
"""

from __future__ import annotations

import functools

import numpy as np

from ._linalg import as_mode, bound, identity, lazy, max_abs, max_abs_each, scalar, scatter_add, zeros
from .exterior_algebra import BASIS, DIM, float_column, index_columns
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


@functools.cache
def _bianchi_table():
    """(p1, s1, p2, s2): at each pair-matrix entry (ij), (kl), the flat positions
    and signs of R_kijl and R_jkil, the terms b adds to R_ijkl; then s1 and
    s2 as floats.  The sign is 0 where a pair repeats an index."""
    i, j = index_columns(PAIRS, 2)
    pos = np.zeros((DIM, DIM), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(NPAIRS)
    sign = np.sign(np.subtract.outer(range(DIM), range(DIM))).T  # +1 where a < b
    i, j, k, l = i[:, None], j[:, None], i, j  # rows (ij) against columns (kl)
    table = []
    for w, x, y, z in ((k, i, j, l), (j, k, i, l)):  # R_wxyz
        table += [pos[w, x] * NPAIRS + pos[y, z], sign[w, x] * sign[y, z]]
    p1, s1, p2, s2 = table = np.stack(table)
    table.flags.writeable = False
    return p1, s1, p2, s2, float_column(s1), float_column(s2)


def bianchi_b(r: CurvatureTensor) -> np.ndarray:
    """b(R)_ijkl = R_ijkl + R_jkil + R_kijl as a 21 x 21 array over i < j, k < l;
    on S^2(Lambda^2) b(R) is a 4-form, which these entries determine."""
    p1, s1, p2, s2, float_s1, float_s2 = _bianchi_table()
    if r.mat.dtype != object:
        s1, s2 = float_s1, float_s2
    flat = r.mat.reshape(-1)
    return (r.mat + s1 * flat[p1]) + s2 * flat[p2]


def bianchi_residual(r: CurvatureTensor) -> float:
    return max_abs(bianchi_b(r))


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


def ricci(r: CurvatureTensor) -> np.ndarray:
    """c^g(r)(u, v) = r(u, e_i, e_i, v).

    c^g is the adjoint of r_g over the pair matrix, <h, c^g(M)> =
    <r_g(h), M> for every 21 x 21 M, so it gathers through the table of
    `kn_product`.
    """
    pos_out, pos_in, sign, float_sign = _kn_table()
    values = r.mat.reshape(-1)[pos_out]
    values = (sign if values.dtype == object else float_sign) * values
    return scatter_add(pos_in, values, DIM * DIM).reshape(DIM, DIM)


def scalar_curvature(r: CurvatureTensor):
    return ricci(r).trace()


@functools.cache
def _iphi_matrix(exact: bool) -> np.ndarray:
    """`iphi_matrix` in one scalar mode, read-only."""
    m = as_mode(iphi_matrix(), exact)
    m.flags.writeable = False
    return m


def phi_ricci(r: CurvatureTensor) -> np.ndarray:
    """c^phi(r)(u, v) = 4 r(u -| phi, v -| phi); trace is -2 s_g."""
    b = _iphi_matrix(r.exact)
    return 4 * b.dot(r.mat).dot(b.T)


def traceless_part(h: np.ndarray) -> np.ndarray:
    return h - identity(DIM, h.dtype == object) * (h.trace() / DIM)


# --- Kulkarni-Nomizu style products ------------------------------------------------


@functools.cache
def _kn_table():
    """Rows (pos_out, pos_in, sign) of r_g over the 441 pair-matrix entries and
    the 49 entries of h, from R_ijkl = h_jk g_il - h_ik g_jl + h_il g_jk - h_jl g_ik,
    and the sign as floats.

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
    pos_out, pos_in, sign = index_columns(np.concatenate(rows), 3)
    return pos_out, pos_in, sign, float_column(sign)


@functools.cache
def _kn_stack_index(n: int) -> np.ndarray:
    """Read-only output positions of the r_g table rows for a stack of n
    tensors, tensor by tensor, in the flattened (n, 21, 21) result."""
    pos_out = _kn_table()[0]
    index = (pos_out + NPAIRS * NPAIRS * np.arange(n)[:, None]).reshape(-1)
    index.flags.writeable = False
    return index


def _kn_stack(h: np.ndarray) -> np.ndarray:
    """r_g of each tensor of an (n, 7, 7) stack as an (n, 21, 21) array, in one
    scatter; each entry adds the rows of its own tensor in table order."""
    _, pos_in, sign, float_sign = _kn_table()
    n = len(h)
    values = h.reshape(n, DIM * DIM).take(pos_in, axis=1)
    values = (sign if values.dtype == object else float_sign) * values
    return scatter_add(_kn_stack_index(n), values.reshape(-1), n * NPAIRS * NPAIRS).reshape(n, NPAIRS, NPAIRS)


def kn_product(h: np.ndarray) -> CurvatureTensor:
    """r_g(h) = h (.) g, the Kulkarni-Nomizu product with the metric."""
    return CurvatureTensor(_kn_stack(np.asarray(h).reshape(1, DIM, DIM))[0])


@functools.cache
def _kn_metric(exact: bool) -> CurvatureTensor:
    """r_g(g), read-only (-2 Id as a pair matrix)."""
    m = kn_product(identity(DIM, exact)).mat
    m.flags.writeable = False
    return CurvatureTensor(m)


def phi_product(h: np.ndarray) -> CurvatureTensor:
    """r_phi(h): insert both slots of h into phi, Bianchi-projected.

    T_ijkl = h_ab phi_bij phi_akl, the pair matrix b^T h^T b with b the rows
    e_u -| phi of `iphi_matrix`, followed by removal of the Lambda^4 part.
    """
    h = np.asarray(h)
    b = _iphi_matrix(h.dtype == object)
    return project_to_kernel(CurvatureTensor(b.T.dot(h.T).dot(b)))


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
        "w77",
        "w64",
        "w27",
        "ricci_block",  # R_0 = r_g(ric0) / 5
        "scalar_block",  # S = s/84 r_g(g)
        "ric0",  # traceless Ricci
        "ric0_phi",  # traceless phi-Ricci
        "ricw",  # Ric^W = (4 ric0 - 5 ric0_phi) / 20
        "s",  # scalar curvature
        "bianchi",  # max |b(R)| of the input, measured by the gate of `decompose`
        "__dict__",  # the lazy fields
    )

    #: the block names of `norm2s`, in the order of `blocks`
    NAMES = ("W77", "W64", "W27", "R0", "S")

    def __init__(self, w77, w64, w27, ricci_block, scalar_block, ric0, ric0_phi, ricw, s, bianchi):
        self.w77, self.w64, self.w27 = w77, w64, w27
        self.ricci_block, self.scalar_block = ricci_block, scalar_block
        self.ric0, self.ric0_phi, self.ricw, self.s, self.bianchi = ric0, ric0_phi, ricw, s, bianchi

    @lazy
    def blocks(self) -> np.ndarray:
        """The five blocks as one (5, 21, 21) array, in the order of NAMES."""
        return np.array([b.mat for b in (self.w77, self.w64, self.w27, self.ricci_block, self.scalar_block)])

    def reassemble(self) -> CurvatureTensor:
        """The sum of the blocks, added in the order of NAMES."""
        return CurvatureTensor(self.blocks.sum(axis=0))

    @lazy
    def norm2s(self) -> dict:
        """Squared norms of the five blocks, in the scalar mode of the tensor."""
        return dict(zip(self.NAMES, 4 * (self.blocks * self.blocks).sum(axis=(1, 2))))

    @lazy
    def ric0_norm2(self):
        """||Ric0^g||^2, in the scalar mode of the tensor."""
        return (self.ric0 * self.ric0).sum()

    def block_norms(self) -> dict:
        return {name: float(n) for name, n in self.norm2s.items()}


def decompose(r: CurvatureTensor, tol: float = 1e-9) -> CurvatureDecomposition:
    """Split an algebraic curvature tensor into its five orthogonal blocks.

    Rejects input whose first Bianchi residual exceeds tol (relative to the
    largest entry) rather than silently projecting.
    """
    size, res, asymmetry = max_abs_each(r.mat, bianchi_b(r), r.mat - r.mat.T)
    limit = bound(tol, size)
    if not res <= limit:
        raise ValueError(
            f"input violates the first Bianchi identity (residual {res:.3g})"
        )
    if not asymmetry <= limit:
        raise ValueError("input pair matrix is not symmetric")
    exact = r.exact
    one = scalar(1, exact)

    ric = ricci(r)  # the one Ricci contraction: s, Ric0 and Ric^W share it
    s = ric.trace()
    ric0 = traceless_part(ric)
    ric0_phi = traceless_part(phi_ricci(r))
    ricw = (4 * ric0 - 5 * ric0_phi) / 20

    # the blocks as pair matrices; each scalar multiplies from the right, as
    # CurvatureTensor.__mul__ does
    s_block = _kn_metric(exact).mat * (s * one / 84)
    kn_ric0, kn_ricw = _kn_stack(np.array([ric0, ricw]))
    r_block = kn_ric0 * (one / 5)
    w27 = (kn_ricw - phi_product(ricw).mat * 5) * (3 * one / 112)

    # P_g2 = Q14 X Q14 and P_odot = Q7 X Q14 + Q14 X Q7 on the Weyl rest
    weyl_rest = r.mat - s_block - r_block - w27
    q7, q14 = projector_matrix(2, 7, exact), projector_matrix(2, 14, exact)
    q14_rest = q14.dot(weyl_rest)
    return CurvatureDecomposition(
        w77=CurvatureTensor(q14_rest.dot(q14)),
        w64=CurvatureTensor(q7.dot(weyl_rest).dot(q14) + q14_rest.dot(q7)),
        w27=CurvatureTensor(w27),
        ricci_block=CurvatureTensor(r_block),
        scalar_block=CurvatureTensor(s_block),
        ric0=ric0,
        ric0_phi=ric0_phi,
        ricw=ricw,
        s=s,
        bianchi=res,
    )


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
