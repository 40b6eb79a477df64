"""G2-irreducible projections and the linear algebra attached to phi.

Builds, once per scalar mode, the projector matrices p_d^r onto the
irreducible pieces of Lambda^r (r = 2..5), the maps lambda3 / sigma between
symmetric 2-tensors and 3-forms, the quadratic contraction brackets used by
the curvature formulas, and the splitting of V* (x) Lambda^2_14 into its
64 + 27 + 7 dimensional invariant subspaces.

Projector conventions (degree 2 and 3 from the defining formulas, degrees
4 and 5 by conjugating with the Hodge star):

    p Lambda^2_7  (alpha) = (alpha + *(alpha ^ phi)) / 3
    p Lambda^2_14 (alpha) = (2 alpha - *(alpha ^ phi)) / 3
    p Lambda^3_1  (beta)  = <beta, phi> phi / 7
    p Lambda^3_7  (beta)  = *(*(phi ^ beta) ^ phi) / 4

sigma contracts over both slots of the component arrays,
sigma(alpha)_ij = phi_ipq alpha_jpq, so sigma(phi) = 6 g.  It is twice the
adjoint of lambda3 (2 lambda3^T, read as a 7 x 7 matrix and transposed), and
sigma(lambda3(h)) = 4 h on traceless symmetric h makes sigma / 4 the inverse
of lambda3 on Lambda^3_27.

lambda3 and the brackets are stored as data: lambda3 is a 35 x 49 integer
matrix, and [a (.) b], [b^2]^A and [b^2]^B are bilinear index tables.  They
and the projectors are composed once per process, in integer arithmetic,
from the interior, contraction, wedge and Hodge tables of
`exterior_algebra`, and the same tables serve float64 and exact mode.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._linalg import as_mode, bound, eye, lazy, max_abs, max_abs_each, scalar, table, zeros
from .exterior_algebra import (
    DIM,
    Form,
    IndexTable,
    _contract_table,
    _hodge_gather,
    _wedge_table,
    dim_of,
    frame_interior,
    frame_wedge,
    hodge_matrix,
    hodge_table,
    phi_coefficients,
    wedge_phi_matrix,
)

#: the valid (degree, dimension) labels of the irreducible pieces
VALID_LABELS = (
    (2, 7),
    (2, 14),
    (3, 1),
    (3, 7),
    (3, 27),
    (4, 1),
    (4, 7),
    (4, 27),
    (5, 7),
    (5, 14),
)


def check_label(label):
    r, d = int(label[0]), int(label[1])
    if (r, d) not in VALID_LABELS:
        raise ValueError(f"invalid irreducible label {(r, d)}")
    return r, d


# --- projector matrices -------------------------------------------------------

@table
def _projectors(exact: bool) -> dict:
    # the defining operators from integer matrices: a -> *(a ^ phi) on
    # Lambda^2, b -> <b, phi> phi and b -> *(*(phi ^ b) ^ phi) on Lambda^3
    # (phi ^ b = -b ^ phi for a 3-form b); the last star is applied as the
    # signed reindexing `hodge` does, which keeps the float tables bit-equal
    # to the star of each basis form, signs of zeros included
    phi = as_mode(phi_coefficients(), exact)
    star_phi2 = as_mode(hodge_matrix(5).dot(wedge_phi_matrix(2)), exact)
    m4 = -wedge_phi_matrix(1).dot(hodge_matrix(6)).dot(wedge_phi_matrix(3))
    one2 = eye(21, exact)
    mats = {
        (2, 7): (one2 + star_phi2) / 3,
        (2, 14): (2 * one2 - star_phi2) / 3,
        (3, 1): np.outer(phi, phi) / 7,
        (3, 7): _hodge_gather(4).apply(as_mode(m4, exact).T).T / 4,
    }
    mats[(3, 27)] = eye(35, exact) - mats[(3, 1)] - mats[(3, 7)]

    # degrees 4, 5 by p_d^{7-r} = * p_d^r *; the star is a signed
    # permutation (*e^I = sign_I e^(po_I), ** = 1), so this is a reindexing
    for (r, d), m in list(mats.items()):
        star = _hodge_gather(r)
        mats[(7 - r, d)] = np.outer(star.coef, star.coef) * m[np.ix_(star.src, star.src)]
    return mats


def projector_matrix(degree: int, dim: int, exact: bool = False) -> np.ndarray:
    mats = _projectors(bool(exact))
    m = mats.get((degree, dim))  # a valid label of ints, the usual case
    return mats[check_label((degree, dim))] if m is None else m


def project(a: Form, label) -> Form:
    """Orthogonal projection of a onto the irreducible piece named by label."""
    r, d = check_label(label)
    if a.degree != r:
        raise ValueError(f"form has degree {a.degree}, label expects {r}")
    return Form(r, _projectors(a.exact)[(r, d)].dot(a.coeffs))


# --- symmetric 2-tensors ------------------------------------------------------


@table
def iphi_matrix() -> np.ndarray:
    """Integer (7, 21) matrix whose row u holds e_u -| phi."""
    return _contract_table(1, 3).dense(DIM, dim_of(3)).dot(phi_coefficients()).T.copy()


@table
def _lambda3_matrix(exact: bool) -> np.ndarray:
    """The 35 x 49 integer matrix of lambda3 on h flattened row by row:
    column 7a + b holds e^a ^ (e_b -| phi).  Python ints in exact mode."""
    return (
        _wedge_table(1, 2).dense(DIM, dim_of(2)).dot(iphi_matrix().T)
        .reshape(dim_of(3), DIM * DIM).astype(object if exact else float)
    )


def lambda3(h: np.ndarray) -> Form:
    """lambda3(h) = sum_ab h_ab e^a ^ (e_b -| phi); lambda3(g) = 3 phi."""
    h = np.asarray(h)
    return Form(3, _lambda3_matrix(h.dtype == object).dot(h.reshape(DIM * DIM)))


def lambda3_rows(hs: np.ndarray) -> np.ndarray:
    """The coefficients of lambda3 of each tensor of an (n, 7, 7) stack, as
    (n, 35) rows: one product."""
    return hs.reshape(-1, DIM * DIM).dot(_lambda3_matrix(hs.dtype == object).T)


def sigma_contract(a: Form) -> np.ndarray:
    """sigma(a)_ij = phi_ipq a_jpq (both slots contracted); sigma(phi) = 6 g.

    sigma is twice the adjoint of lambda3: <lambda3(h), a> = <h, sigma(a)^T> / 2
    in coefficient inner products, so it is one product with the transposed
    lambda3 matrix.  Symmetric exactly when a has no Lambda^3_7 part,
    traceless exactly when it has no Lambda^3_1 part.
    """
    if a.degree != 3:
        raise ValueError("sigma_contract expects a 3-form")
    return 2 * _lambda3_matrix(a.exact).T.dot(a.coeffs).reshape(DIM, DIM).T


# measured once on basis tensors and frozen: sigma(lambda3(h))_0 = c h for
# traceless h (the paper never states this constant)
SIGMA_LAMBDA3_CONSTANT = 4


def sym2_from_27(a: Form, tol: float = 1e-10) -> np.ndarray:
    """Invert lambda3 on Lambda^3_27, returning a traceless symmetric tensor.

    On Lambda^3_27 the inverse is sigma / SIGMA_LAMBDA3_CONSTANT.  Rejects
    inputs with a Lambda^3_1 or Lambda^3_7 component above tol * max |a|.
    """
    if a.degree != 3:
        raise ValueError("sym2_from_27 expects a 3-form")
    r1 = max_abs(project(a, (3, 1)).coeffs)
    r7 = max_abs(project(a, (3, 7)).coeffs)
    bound = tol * max_abs(a.coeffs)
    if not (r1 <= bound and r7 <= bound):
        raise ValueError(
            f"input is not in Lambda^3_27: |p_1 a| = {r1:.3g}, |p_7 a| = {r7:.3g}"
        )
    return sigma_contract(a) / SIGMA_LAMBDA3_CONSTANT


# --- quadratic contractions ---------------------------------------------------


def _pairing_table(
    left: IndexTable, right: IndexTable, kl: int, kr: int, n_a: int, n_b: int
) -> IndexTable:
    """The table of (a, b) -> sum_k L_k(e^a) ^ R_k(e^b) on n_a x n_b inputs.

    L_k and R_k map into degrees kl and kr; they are given as rows
    (k, input, output, coef), the layout of the interior table
    `_contract_table(1, k)`.  Every pair of rows with the same k is wedged
    through the wedge table.
    """
    w = _wedge_table(kl, kr)
    w_out = np.zeros((left.n_out, right.n_out), dtype=np.intp)
    w_coef = np.zeros((left.n_out, right.n_out), dtype=np.int64)
    w_out[w.pa, w.pb] = w.po
    w_coef[w.pa, w.pb] = w.coef  # 0 where the two monomials overlap
    il, ir = np.nonzero(left.pa[:, None] == right.pa[None, :])
    x, y = left.po[il], right.po[ir]
    coef = left.coef[il] * right.coef[ir] * w_coef[x, y]
    return IndexTable.merged(left.pb[il], right.pb[ir], w_out[x, y], coef, w.n_out, n_a, n_b)


@table
def _odot_table(ka: int, kb: int) -> IndexTable:
    return _pairing_table(
        _contract_table(1, ka), _contract_table(1, kb), ka - 1, kb - 1, dim_of(ka), dim_of(kb)
    )


@table
def _quad_tables() -> dict:
    """The tables of [b^2]^A and [b^2]^B on 3-forms."""
    n = dim_of(3)
    odot = _odot_table(3, 3)
    po, sign = hodge_table(4)
    quad_a = IndexTable.merged(odot.pa, odot.pb, po[odot.po], sign[odot.po] * odot.coef, n, n, n)
    # (e_k -| phi) -| e^a as rows (k, a, p, coef), paired with e_k -| e^b
    c = _contract_table(2, 3).dense(dim_of(2), n)  # [p, x, a]
    c_iphi = np.einsum("pxa,kx->kap", c, iphi_matrix())
    k, a, p = np.nonzero(c_iphi)
    contract_iphi = IndexTable.from_rows(np.stack([k, a, p, c_iphi[k, a, p]], axis=1), DIM)
    quad_b = _pairing_table(contract_iphi, _contract_table(1, 3), 1, 2, n, n)
    return {"A": quad_a, "B": quad_b}


def odot_bracket(a: Form, b: Form) -> Form:
    """[a (.) b] = sum_k i_k a ^ i_k b (degrees at least 1)."""
    return Form(a.degree + b.degree - 2, _odot_table(a.degree, b.degree).apply(a.coeffs, b.coeffs))


def _quad(name: str, b: Form) -> Form:
    if b.degree != 3:
        raise ValueError(f"quad_{name} expects a 3-form")
    return Form(3, _quad_tables()[name].apply(b.coeffs, b.coeffs))


def quad_A(b: Form) -> Form:
    """[b^2]^A = sum_k *(i_k b ^ i_k b)."""
    return _quad("A", b)


def quad_B(b: Form) -> Form:
    """[b^2]^B = sum_k ((i_k phi) -| b) ^ i_k b.

    The contraction is the adjoint-of-wedge one; with it the bracket enters
    the Ricci formulas with the printed coefficients (pinned numerically on
    the invariant examples).
    """
    return _quad("B", b)


# --- V* (x) Lambda^2_14 and its three invariant pieces -------------------------


class MixedV14:
    """Element of V* (x) Lambda^2_14 as a 7 x 21 coefficient array.

    Row i holds the Lambda^2 coefficients of the e^i slot; every row must
    lie in Lambda^2_14.  The tensor norm doubles the coefficient sum of
    squares (2-form slots).
    """

    __slots__ = ("array", "__dict__")  # the dict holds the lazy membership

    def __init__(self, array: np.ndarray):
        self.array = array

    @property
    def exact(self) -> bool:
        return self.array.dtype == object

    def tensor_norm2(self):
        return 2 * (self.array * self.array).sum()

    @lazy
    def membership(self) -> tuple:
        """(distance of the slots from Lambda^2_14, largest entry), measured
        once per tensor in one reduction: the residual and the size that the
        Lambda^2_14 gates judge it against."""
        q14 = projector_matrix(2, 14, self.exact)
        return tuple(max_abs_each(self.array.dot(q14.T) - self.array, self.array))

    def __add__(self, other):
        return MixedV14(self.array + other.array)

    def __sub__(self, other):
        return MixedV14(self.array - other.array)

    def __mul__(self, c):
        return MixedV14(self.array * c)

    __rmul__ = __mul__


def mixed_project_14(arr: np.ndarray) -> MixedV14:
    """Project the Lambda^2 slot of a 7 x 21 array onto Lambda^2_14."""
    q14 = projector_matrix(2, 14, arr.dtype == object)
    return MixedV14(arr.dot(q14.T))


def tensor_product(alpha: Form, beta: Form) -> MixedV14:
    """alpha (x) p_14(beta) for a 1-form alpha and 2-form beta."""
    exact = alpha.exact or beta.exact
    q14 = projector_matrix(2, 14, exact)
    return MixedV14(np.multiply.outer(alpha.coeffs, q14.dot(beta.coeffs)))


def wedge3(gamma: MixedV14) -> Form:
    """The wedge map sum_i e^i ^ gamma_i from mixed tensors to 3-forms."""
    return frame_wedge(gamma.array, 2)


# measured once by tracing wedge3 after the adjoint pullback over the basis
# 3-forms and frozen: wedge3 of the pullback of w in Lambda^3_d is c_d w
SPLIT_V14_CONSTANTS = {27: Fraction(7, 3), 7: Fraction(1)}


@table
def _split_v14_tables(exact: bool) -> tuple:
    """The tables of the stacked pass of `split_v14`: the projectors
    onto Lambda^3_d for d in SPLIT_V14_CONSTANTS, stacked as one (2 * 35, 35)
    matrix; the adjoint of wedge3, w -> p_14(e_i -| w) for i = 1..7, as one
    (35, 7 * 21) matrix (each entry is one signed entry of p_14); and
    1 / SPLIT_V14_CONSTANTS[d] per part, as (2, 1, 1)."""
    projectors = np.concatenate([projector_matrix(3, d, exact) for d in SPLIT_V14_CONSTANTS])
    t = _contract_table(1, 3)  # rows (i, w position, slot position, sign)
    adjoint = zeros((dim_of(3), DIM, dim_of(2)), exact)
    adjoint[t.pb, t.pa] = projector_matrix(2, 14, exact)[:, t.po].T * t.coef[:, None]
    inverse = zeros((len(SPLIT_V14_CONSTANTS), 1, 1), exact)
    inverse[:, 0, 0] = [1 / scalar(c, exact) for c in SPLIT_V14_CONSTANTS.values()]
    return projectors, adjoint.reshape(dim_of(3), -1), inverse


def split_v14(gamma: MixedV14, tol: float = 1e-9):
    """Split gamma in V* (x) Lambda^2_14 into its (64, 27, 7) parts.

    The 27 and 7 parts are least-squares preimages of the corresponding
    pieces of wedge3(gamma): the adjoint of wedge3 of each piece over
    SPLIT_V14_CONSTANTS, in one stacked pass (one product projects onto both
    pieces, one pulls both back).  The 64 part is the remainder (the kernel
    of wedge3).  The pieces are mutually orthogonal and sum to gamma.
    Slices farther than tol from Lambda^2_14, relative to the largest entry,
    are rejected.
    """
    return _split_v14(gamma, wedge3(gamma), tol)


def _split_v14(gamma: MixedV14, w: Form, tol: float = 1e-9):
    """`split_v14` of gamma with w = wedge3(gamma) given, for a caller that
    has built it."""
    residual, size = gamma.membership
    if not residual <= bound(tol, size):
        raise ValueError("slices of gamma are not in Lambda^2_14")
    projectors, adjoint, inverse = _split_v14_tables(gamma.exact)
    pieces = projectors.dot(w.coeffs).reshape(len(inverse), -1)
    g27, g7 = pieces.dot(adjoint).reshape(len(inverse), DIM, -1) * inverse
    return MixedV14(gamma.array - g27 - g7), MixedV14(g27), MixedV14(g7)


# --- test elements for the mixed-tensor splitting ------------------------------


def wedge3_test_pair(exact: bool = False):
    """The gamma', gamma'' pair built from e^7 (x) (e^12 - e^34).

    Returns (gamma_prime, gamma_dprime) with
    wedge3(gamma') = e^127 - e^347 in Lambda^3_27,
    ||gamma'||^2 = 4 and ||gamma''||^2 = 16/3 in the tensor norm.
    """
    e7 = Form.basis((7,), exact)
    t = Form.from_terms(2, {(1, 2): 1, (3, 4): -1}, exact)
    gamma_p = tensor_product(e7, t)
    gamma_pp = mixed_project_14(frame_interior(wedge3(gamma_p))) - gamma_p
    return gamma_p, gamma_pp
