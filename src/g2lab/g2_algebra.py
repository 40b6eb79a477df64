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
sigma(alpha)_ij = phi_ipq alpha_jpq, so sigma(phi) = 6 g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eye, is_exact, max_abs, pinv, scalar, zeros
from .exterior_algebra import (
    DIM,
    Form,
    basis_vector,
    contract,
    dim_of,
    form_inner,
    hodge,
    hodge_table,
    interior,
    phi_arrays,
    standard_phi,
    to_antisym,
    wedge,
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

_PROJECTORS: dict = {}


def _matrix_of(op, degree: int, exact: bool) -> np.ndarray:
    """Matrix of a linear Form -> Form operator on the degree-k basis."""
    n = dim_of(degree)
    cols = []
    for pos in range(n):
        c = zeros(n, exact)
        c[pos] = scalar(1, exact)
        cols.append(op(Form(degree, c)).coeffs)
    return np.stack(cols, axis=1)


def _build_projectors(exact: bool) -> dict:
    phi = standard_phi(exact)
    starphi = hodge(phi)

    def p27(a):
        s = hodge(wedge(a, phi))
        return Form(2, (a.coeffs + s.coeffs) / 3)

    def p214(a):
        s = hodge(wedge(a, phi))
        return Form(2, (2 * a.coeffs - s.coeffs) / 3)

    def p31(b):
        return Form(3, form_inner(b, phi) * phi.coeffs / 7)

    def p37(b):
        return Form(3, hodge(wedge(hodge(wedge(phi, b)), phi)).coeffs / 4)

    mats = {
        (2, 7): _matrix_of(p27, 2, exact),
        (2, 14): _matrix_of(p214, 2, exact),
        (3, 1): _matrix_of(p31, 3, exact),
        (3, 7): _matrix_of(p37, 3, exact),
    }
    mats[(3, 27)] = eye(35, exact) - mats[(3, 1)] - mats[(3, 7)]

    # degrees 4, 5 by p_d^{7-r} = * p_d^r *; the star is a signed
    # permutation (*e^I = sign_I e^(po_I), ** = 1), so this is a reindexing
    for (r, d), m in list(mats.items()):
        po, sign = hodge_table(r)
        src = np.argsort(po)
        mats[(7 - r, d)] = np.outer(sign[src], sign[src]) * m[np.ix_(src, src)]
    return mats


def projector_matrix(degree: int, dim: int, exact: bool = False) -> np.ndarray:
    r, d = check_label((degree, dim))
    key = bool(exact)
    if key not in _PROJECTORS:
        _PROJECTORS[key] = _build_projectors(key)
    return _PROJECTORS[key][(r, d)]


def project(a: Form, label) -> Form:
    """Orthogonal projection of a onto the irreducible piece named by label."""
    r, d = check_label(label)
    if a.degree != r:
        raise ValueError(f"form has degree {a.degree}, label expects {r}")
    return Form(r, projector_matrix(r, d, a.exact).dot(a.coeffs))


# --- symmetric 2-tensors ------------------------------------------------------


def lambda3(h: np.ndarray) -> Form:
    """lambda3(h) = sum_ab h_ab e^a ^ (e_b -| phi); lambda3(g) = 3 phi."""
    h = np.asarray(h)
    exact = is_exact(h)
    phi = standard_phi(exact)
    out = Form.zero(3, exact)
    for b in range(DIM):
        ib = interior(basis_vector(b + 1, exact), phi)
        for a in range(DIM):
            if h[a, b] != 0:
                ea = Form.basis((a + 1,), exact)
                out = out + h[a, b] * wedge(ea, ib)
    return out


def sigma_contract(a: Form) -> np.ndarray:
    """sigma(a)_ij = phi_ipq a_jpq (both slots contracted); sigma(phi) = 6 g.

    Symmetric exactly when a has no Lambda^3_7 part, traceless exactly when
    it has no Lambda^3_1 part.
    """
    if a.degree != 3:
        raise ValueError("sigma_contract expects a 3-form")
    p3, _ = phi_arrays(a.exact)
    arr = to_antisym(a).array
    return np.tensordot(p3, arr, axes=([1, 2], [1, 2]))


# measured once on basis tensors and frozen: sigma(lambda3(h))_0 = c h for
# traceless h (the paper never states this constant)
SIGMA_LAMBDA3_CONSTANT = 4


_LAMBDA3_PINV: dict = {}


def _sym_basis():
    """Basis E_ab (a <= b) of symmetric 2-tensors, E_ab = e^a (.) e^b."""
    basis = []
    for a in range(DIM):
        for b in range(a, DIM):
            basis.append((a, b))
    return basis


def _lambda3_pinv(exact: bool) -> tuple:
    key = bool(exact)
    if key not in _LAMBDA3_PINV:
        cols = []
        sym = _sym_basis()
        for a, b in sym:
            h = zeros((DIM, DIM), exact)
            h[a, b] += scalar(1, exact)
            h[b, a] += scalar(1, exact)
            if a == b:
                h[a, b] -= scalar(1, exact)
            cols.append(lambda3(h).coeffs)
        m = np.stack(cols, axis=1)  # 35 x 28, rank 28
        _LAMBDA3_PINV[key] = (sym, pinv(m))
    return _LAMBDA3_PINV[key]


def sym2_from_27(a: Form, tol: float = 1e-10) -> np.ndarray:
    """Invert lambda3 on Lambda^3_27, returning a traceless symmetric tensor.

    Rejects inputs with a Lambda^3_1 or Lambda^3_7 component above tol.
    """
    if a.degree != 3:
        raise ValueError("sym2_from_27 expects a 3-form")
    r1 = max_abs(project(a, (3, 1)).coeffs)
    r7 = max_abs(project(a, (3, 7)).coeffs)
    if r1 > tol or r7 > tol:
        raise ValueError(
            f"input is not in Lambda^3_27: |p_1 a| = {r1:.3g}, |p_7 a| = {r7:.3g}"
        )
    sym, m_pinv = _lambda3_pinv(a.exact)
    sol = m_pinv.dot(a.coeffs)
    h = zeros((DIM, DIM), a.exact)
    for (pa, pb), v in zip(sym, sol):
        h[pa, pb] = v
        h[pb, pa] = v
    return h


# --- quadratic contractions ---------------------------------------------------


def odot_bracket(a: Form, b: Form) -> Form:
    """[a (.) b] = sum_k i_k a ^ i_k b."""
    exact = a.exact or b.exact
    out = Form.zero(a.degree + b.degree - 2, exact)
    for k in range(1, DIM + 1):
        ek = basis_vector(k, exact)
        out = out + wedge(interior(ek, a), interior(ek, b))
    return out


def quad_A(b: Form) -> Form:
    """[b^2]^A = sum_k *(i_k b ^ i_k b)."""
    out = Form.zero(3, b.exact)
    for k in range(1, DIM + 1):
        ik = interior(basis_vector(k, b.exact), b)
        out = out + hodge(wedge(ik, ik))
    return out


def quad_B(b: Form) -> Form:
    """[b^2]^B = sum_k ((i_k phi) -| b) ^ i_k b.

    The contraction is the adjoint-of-wedge one; with it the bracket enters
    the Ricci formulas with the printed coefficients (pinned numerically on
    the invariant examples).
    """
    phi = standard_phi(b.exact)
    out = Form.zero(3, b.exact)
    for k in range(1, DIM + 1):
        ek = basis_vector(k, b.exact)
        out = out + wedge(contract(interior(ek, phi), b), interior(ek, b))
    return out


def quad_C(b: Form) -> Form:
    return quad_A(b) - 2 * quad_B(b)


# --- V* (x) Lambda^2_14 and its three invariant pieces -------------------------


@dataclass(frozen=True)
class MixedV14:
    """Element of V* (x) Lambda^2_14 as a 7 x 21 coefficient array.

    Row i holds the Lambda^2 coefficients of the e^i slot; every row must
    lie in Lambda^2_14.  The tensor norm doubles the coefficient sum of
    squares (2-form slots).
    """

    array: np.ndarray

    @property
    def exact(self) -> bool:
        return is_exact(self.array)

    def slice(self, i: int) -> Form:
        return Form(2, self.array[i])

    def tensor_norm2(self):
        return 2 * (self.array * self.array).sum()

    def membership_residual(self) -> float:
        q14 = projector_matrix(2, 14, self.exact)
        return max_abs(self.array.dot(q14.T) - self.array)

    def __add__(self, other):
        return MixedV14(self.array + other.array)

    def __sub__(self, other):
        return MixedV14(self.array - other.array)

    def __mul__(self, c):
        return MixedV14(self.array * c)

    __rmul__ = __mul__


def mixed_from_slices(slices) -> MixedV14:
    return MixedV14(np.stack([s.coeffs for s in slices], axis=0))


def mixed_project_14(arr: np.ndarray) -> MixedV14:
    """Project the Lambda^2 slot of a 7 x 21 array onto Lambda^2_14."""
    q14 = projector_matrix(2, 14, is_exact(arr))
    return MixedV14(arr.dot(q14.T))


def tensor_product(alpha: Form, beta: Form) -> MixedV14:
    """alpha (x) p_14(beta) for a 1-form alpha and 2-form beta."""
    exact = alpha.exact or beta.exact
    q14 = projector_matrix(2, 14, exact)
    return MixedV14(np.multiply.outer(alpha.coeffs, q14.dot(beta.coeffs)))


def include_3form(beta: Form) -> np.ndarray:
    """The inclusion of a 3-form into V* (x) Lambda^2: sum_a e^a (x) i_a beta."""
    rows = [interior(basis_vector(a + 1, beta.exact), beta).coeffs for a in range(DIM)]
    return np.stack(rows, axis=0)


def wedge3(gamma: MixedV14) -> Form:
    """The wedge map sum_i e^i ^ gamma_i from mixed tensors to 3-forms."""
    out = Form.zero(3, gamma.exact)
    for i in range(DIM):
        out = out + wedge(Form.basis((i + 1,), gamma.exact), gamma.slice(i))
    return out


def _wedge3_adjoint(w: Form, exact: bool) -> MixedV14:
    """Adjoint of wedge3 under coefficient inner products."""
    rows = [interior(basis_vector(i + 1, exact), w).coeffs for i in range(DIM)]
    return mixed_project_14(np.stack(rows, axis=0))


_SPLIT_CONSTANTS: dict = {}


def _split_constants(exact: bool):
    """Schur constants c_d with L_d L_d^T = c_d Q_d for the wedge3 pullbacks."""
    key = bool(exact)
    if key not in _SPLIT_CONSTANTS:
        consts = {}
        for d in (27, 7):
            q = projector_matrix(3, d, exact)
            tr = scalar(0, exact)
            for pos in range(35):
                w = Form(3, q[:, pos].copy())
                gam = _wedge3_adjoint(w, exact)
                tr += wedge3(gam).coeffs[pos]
            consts[d] = tr / d
        _SPLIT_CONSTANTS[key] = consts
    return _SPLIT_CONSTANTS[key]


def split_v14(gamma: MixedV14, tol: float = 1e-9):
    """Split gamma in V* (x) Lambda^2_14 into its (64, 27, 7) parts.

    The 27 and 7 parts are least-squares preimages of the corresponding
    pieces of wedge3(gamma); the 64 part is the remainder (the kernel of
    wedge3).  The pieces are mutually orthogonal and sum to gamma.
    """
    if gamma.membership_residual() > tol:
        raise ValueError("slices of gamma are not in Lambda^2_14")
    consts = _split_constants(gamma.exact)
    w = wedge3(gamma)
    parts = {}
    for d in (27, 7):
        wd = project(w, (3, d))
        parts[d] = (1 / consts[d]) * _wedge3_adjoint(wd, gamma.exact)
    g64 = gamma - parts[27] - parts[7]
    return g64, parts[27], parts[7]


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
    gamma_pp = mixed_project_14(include_3form(wedge3(gamma_p))) - gamma_p
    return gamma_p, gamma_pp
