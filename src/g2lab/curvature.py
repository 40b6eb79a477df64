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
entries, r_g(g) is a cached constant, and b is two gathers (the R_kijl and
R_jkil terms of each entry).  `decompose` builds every block
once and keeps the blocks, Ric0^g, Ric0^phi and the Bianchi residual of its
gate, so that reassembly, block norms and callers reuse them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._linalg import as_mode, bound, eye, is_exact, max_abs, scalar, zeros
from .exterior_algebra import BASIS, DIM, index_columns
from .g2_algebra import iphi_matrix, projector_matrix

PAIRS = BASIS[2]
NPAIRS = len(PAIRS)


@dataclass(frozen=True)
class CurvatureTensor:
    """Element of S^2(Lambda^2 R^7) over the i < j pair basis."""

    mat: np.ndarray

    def __post_init__(self):
        if self.mat.shape != (NPAIRS, NPAIRS):
            raise ValueError(f"expected a {NPAIRS} x {NPAIRS} matrix")

    @property
    def exact(self) -> bool:
        return is_exact(self.mat)

    def symmetry_residual(self) -> float:
        return max_abs(self.mat - self.mat.T)

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
    and signs of R_kijl and R_jkil, the terms b adds to R_ijkl.  The sign is 0
    where a pair repeats an index."""
    i, j = index_columns(PAIRS, 2)
    pos = np.zeros((DIM, DIM), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(NPAIRS)
    sign = np.sign(np.subtract.outer(range(DIM), range(DIM))).T  # +1 where a < b
    i, j, k, l = i[:, None], j[:, None], i, j  # rows (ij) against columns (kl)
    table = []
    for w, x, y, z in ((k, i, j, l), (j, k, i, l)):  # R_wxyz
        table += [pos[w, x] * NPAIRS + pos[y, z], sign[w, x] * sign[y, z]]
    table = np.stack(table)
    table.flags.writeable = False
    return table


def bianchi_b(r: CurvatureTensor) -> np.ndarray:
    """b(R)_ijkl = R_ijkl + R_jkil + R_kijl as a 21 x 21 array over i < j, k < l;
    on S^2(Lambda^2) b(R) is a 4-form, which these entries determine."""
    p1, s1, p2, s2 = _bianchi_table()
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
    pos_out, pos_in, sign = _kn_table()
    ric = zeros(DIM * DIM, r.exact)
    np.add.at(ric, pos_in, sign * r.mat.reshape(-1)[pos_out])
    return ric.reshape(DIM, DIM)


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
    return h - eye(DIM, is_exact(h)) * (h.trace() / DIM)


# --- Kulkarni-Nomizu style products ------------------------------------------------


@functools.cache
def _kn_table():
    """Rows (pos_out, pos_in, sign) of r_g over the 441 pair-matrix entries and
    the 49 entries of h, from R_ijkl = h_jk g_il - h_ik g_jl + h_il g_jk - h_jl g_ik.

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
    return index_columns(np.concatenate(rows), 3)


def kn_product(h: np.ndarray) -> CurvatureTensor:
    """r_g(h) = h (.) g, the Kulkarni-Nomizu product with the metric."""
    h = np.asarray(h)
    pos_out, pos_in, sign = _kn_table()
    m = zeros(NPAIRS * NPAIRS, is_exact(h))
    np.add.at(m, pos_out, sign * h.reshape(DIM * DIM)[pos_in])
    return CurvatureTensor(m.reshape(NPAIRS, NPAIRS))


@functools.cache
def _kn_metric(exact: bool) -> CurvatureTensor:
    """r_g(g), read-only (-2 Id as a pair matrix)."""
    m = kn_product(eye(DIM, exact)).mat
    m.flags.writeable = False
    return CurvatureTensor(m)


def phi_product(h: np.ndarray) -> CurvatureTensor:
    """r_phi(h): insert both slots of h into phi, Bianchi-projected.

    T_ijkl = h_ab phi_bij phi_akl, the pair matrix b^T h^T b with b the rows
    e_u -| phi of `iphi_matrix`, followed by removal of the Lambda^4 part.
    """
    h = np.asarray(h)
    b = _iphi_matrix(is_exact(h))
    return project_to_kernel(CurvatureTensor(b.T.dot(h.T).dot(b)))


def generalized_ricci(r: CurvatureTensor, k) -> np.ndarray:
    """Ric0^k = k1 Ric0^g + k2 Ric0^phi (traceless)."""
    k1, k2 = k
    return k1 * traceless_part(ricci(r)) + k2 * traceless_part(phi_ricci(r))


def ric_W(r: CurvatureTensor) -> np.ndarray:
    """Ric^W = (4 Ric0^g - 5 Ric0^phi) / 20, the conformally invariant one."""
    return generalized_ricci(r, (4, -5)) / 20


# --- the five-block decomposition ---------------------------------------------------


@dataclass(frozen=True)
class CurvatureDecomposition:
    """The five blocks of an algebraic curvature tensor, with the Ricci data
    they were built from and the input's first Bianchi residual."""

    w77: CurvatureTensor
    w64: CurvatureTensor
    w27: CurvatureTensor
    ricci_block: CurvatureTensor  # R_0 = r_g(ric0) / 5
    scalar_block: CurvatureTensor  # S = s/84 r_g(g)
    ric0: np.ndarray  # traceless Ricci
    ric0_phi: np.ndarray  # traceless phi-Ricci
    ricw: np.ndarray  # Ric^W = (4 ric0 - 5 ric0_phi) / 20
    s: object  # scalar curvature
    bianchi: float  # max |b(R)| of the input, measured by the gate of `decompose`

    def reassemble(self) -> CurvatureTensor:
        return (
            self.w77 + self.w64 + self.w27 + self.ricci_block + self.scalar_block
        )

    @functools.cached_property
    def norm2s(self) -> dict:
        """Squared norms of the five blocks, in the scalar mode of the tensor."""
        return {
            "W77": self.w77.norm2(),
            "W64": self.w64.norm2(),
            "W27": self.w27.norm2(),
            "R0": self.ricci_block.norm2(),
            "S": self.scalar_block.norm2(),
        }

    @functools.cached_property
    def ric0_norm2(self):
        """||Ric0^g||^2, in the scalar mode of the tensor."""
        return (self.ric0 * self.ric0).sum()

    def block_norms(self) -> dict:
        return {name: float(n) for name, n in self.norm2s.items()}


def _p_g2(m: np.ndarray, exact: bool) -> np.ndarray:
    q14 = projector_matrix(2, 14, exact)
    return q14.dot(m).dot(q14)


def _p_odot(m: np.ndarray, exact: bool) -> np.ndarray:
    q7 = projector_matrix(2, 7, exact)
    q14 = projector_matrix(2, 14, exact)
    return q7.dot(m).dot(q14) + q14.dot(m).dot(q7)


def decompose(r: CurvatureTensor, tol: float = 1e-9) -> CurvatureDecomposition:
    """Split an algebraic curvature tensor into its five orthogonal blocks.

    Rejects input whose first Bianchi residual exceeds tol (relative to the
    largest entry) rather than silently projecting.
    """
    limit = bound(tol, max_abs(r.mat))
    res = bianchi_residual(r)
    if not res <= limit:
        raise ValueError(
            f"input violates the first Bianchi identity (residual {res:.3g})"
        )
    if not r.symmetry_residual() <= limit:
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
    r_block = kn_product(ric0).mat * (one / 5)
    w27 = (kn_product(ricw).mat - phi_product(ricw).mat * 5) * (3 * one / 112)

    weyl_rest = r.mat - s_block - r_block - w27
    return CurvatureDecomposition(
        w77=CurvatureTensor(_p_g2(weyl_rest, exact)),
        w64=CurvatureTensor(_p_odot(weyl_rest, exact)),
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
