"""Torsion of a G2 structure from its structure equations.

Everything here is pointwise linear algebra in the adapted frame where phi
takes its standard coefficients.  The structure equations

    d phi  = tau0 *phi + 3 tau1 ^ phi + *tau3
    d *phi = 4 tau1 ^ *phi + tau2 ^ phi

with tau2 in Lambda^2_14 and tau3 in Lambda^3_27 determine the four torsion
components uniquely.  Extraction inverts a -> a ^ phi degreewise by two
pointwise identities (Bryant, arXiv:math/0305124): |alpha ^ phi|^2 =
4 |alpha|^2 on 1-forms and tau ^ phi = -*tau on Lambda^2_14.

The intrinsic torsion is recovered through the contraction dictionary

    xibar_1 = -tau0/2 g,   xibar_7 = 2 *(tau1 ^ *phi),
    xibar_14 = tau2,       xibar_27 = sigma(tau3) / 2,

xi_ijk = xibar_ip phi_pjk / 6.  The first three pieces are one constant
49 x 29 matrix on the packed (tau0, tau1, tau2), composed once per scalar
mode (`_intrinsic_table`); sigma(tau3) / 2 is added to its product.  The
27-part normalisation is pinned by requiring that the reconstructed xi
reproduces (d phi, d *phi) through d = alt(grad), where grad phi and
grad *phi are the gl(7) action of xi, `covariant_wedge(xi, .)`.

The generalized Ricci formula is linear in its weighting k, so it is stored
as data: `RICCI_TABLE` holds, per term and route, the (k1, k2) coefficients
over 6; `ricci_terms` builds the k-independent torsion terms once, the
bilinear ones in one `IndexTable` pass (`_ricci_pass`, the sign of each
Hodge star folded into its rows), and `ricci_rows` gathers the eight
torsion-term rows that every route shares and each route's three
derivative rows into one (route, term) stack, whose rows for every route
and several k are one weighted reduction over a constant (route, k, term)
weight table.

The d tau2 conversion identity of `homogeneous.analyze` is data as well:
`CONVERSION_TABLE` holds its weights over the canonical derivative
d^nabla-bar tau2, four of the Ricci torsion terms and two terms of its
own, |tau2|^2 phi and *((tau2 -| tau3) ^ phi), which one index table on
the packed torsion vector gives (`_conversion_pass`); `dtau2_conversion`
stacks the seven rows and sums them in one weighted product.  A quadruple
keeps its packed vector (the solve's own, when it comes from
`solve_structure_equations`) and its squared norms once built.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from ._linalg import as_mode, bound, eye, frozen, lazy, max_abs, max_abs_each, scalar, table, zeros
from .exterior_algebra import (
    DIM,
    Form,
    IndexTable,
    _antisym_table,
    _contract_table,
    _hodge_gather,
    _phi_templates,
    _wedge_table,
    dim_of,
    hodge_matrix,
    hodge_table,
    phi_arrays,
    phi_coefficients,
    wedge_phi_matrix,
)
from .g2_algebra import _odot_table, _quad_tables, projector_matrix, sigma_contract


class TorsionComponents:
    """The quadruple (tau0, tau1, tau2, tau3)."""

    __slots__ = ("tau0", "tau1", "tau2", "tau3", "__dict__")  # the dict holds the lazy norms

    def __init__(self, tau0, tau1: Form, tau2: Form, tau3: Form):
        if (tau1.degree, tau2.degree, tau3.degree) != (1, 2, 3):
            raise ValueError("torsion components must have degrees (1, 2, 3)")
        self.tau0, self.tau1, self.tau2, self.tau3 = tau0, tau1, tau2, tau3

    @property
    def exact(self) -> bool:
        return self.tau1.exact

    def membership_residual(self) -> float:
        """Distance of tau2 / tau3 from Lambda^2_14 / Lambda^3_27."""
        return max_abs(_structure_tables(self.exact)[1].dot(self.packed))

    @lazy
    def packed(self) -> np.ndarray:
        """The quadruple as one vector (tau0, tau1, tau2, tau3) of length 64,
        built once; the structure-equation solve sets it to the vector it
        solved for, of which the forms are views."""
        return np.concatenate(([self.tau0], self.tau1.coeffs, self.tau2.coeffs, self.tau3.coeffs))

    @lazy
    def norm2s(self) -> tuple:
        """Squared form norms of tau1, tau2 and tau3, in the scalar mode of
        the forms, measured once: `norms` and `scalar_from_torsion` read them."""
        return self.tau1.norm2(), self.tau2.norm2(), self.tau3.norm2()

    def norms(self) -> dict:
        """Form norms of the four components."""
        n1, n2, n3 = self.norm2s
        return {1: abs(float(self.tau0)), 4: float(n1) ** 0.5, 2: float(n2) ** 0.5, 3: float(n3) ** 0.5}

    @staticmethod
    def zero(exact: bool = False) -> "TorsionComponents":
        return TorsionComponents(
            scalar(0, exact), Form.zero(1, exact), Form.zero(2, exact), Form.zero(3, exact)
        )


# --- structure equations -----------------------------------------------------
# A quadruple is packed as one vector v = (tau0, tau1, tau2, tau3) of length
# 1 + 7 + 21 + 35 and the pair (d phi, d *phi) as one u of length 35 + 21;
# extraction, membership and reconstruction are each one matrix product.


@table
def _wedge_starphi() -> np.ndarray:
    """Integer (21, 7) matrix of a -> a ^ *phi on 1-forms."""
    return _wedge_table(1, 4).dense(DIM, 35).dot(hodge_matrix(3).dot(phi_coefficients()))


@table
def _structure_tables(exact: bool) -> tuple:
    """The (extract, membership, rebuild) matrices in one scalar mode.

    extract (64 x 56) solves u for v: tau0 = <d phi, *phi> / 7, tau1 =
    w1^T (d phi)_7 / 12 with w1 the matrix of a -> a ^ phi on 1-forms
    (w1^T w1 = 4), tau2 = -*(d *phi)_14 (tau ^ phi = -*tau on Lambda^2_14,
    and * maps Lambda^5_14 onto Lambda^2_14), tau3 = *(d phi)_27.
    membership (56 x 64) is p - 1 of Lambda^2_14 on tau2 and of Lambda^3_27
    on tau3; rebuild (56 x 64) is the structure equations v -> u.
    """
    starphi = hodge_matrix(3).dot(phi_coefficients())
    extract = zeros((64, 56), exact)
    extract[0, :35] = as_mode(starphi, exact) / 7
    extract[1:8, :35] = as_mode(wedge_phi_matrix(1).T, exact).dot(projector_matrix(4, 7, exact)) / 12
    extract[8:29, 35:] = as_mode(-hodge_matrix(5), exact).dot(projector_matrix(5, 14, exact))
    extract[29:, :35] = _hodge_gather(4).apply(projector_matrix(4, 27, exact).T).T

    membership = zeros((56, 64), exact)
    membership[:21, 8:29] = projector_matrix(2, 14, exact) - eye(21, exact)
    membership[21:, 29:] = projector_matrix(3, 27, exact) - eye(35, exact)

    rebuild = np.zeros((56, 64), dtype=np.int64)
    rebuild[:35, 0] = starphi
    rebuild[:35, 1:8] = 3 * wedge_phi_matrix(1)
    rebuild[:35, 29:] = hodge_matrix(3)
    rebuild[35:, 1:8] = 4 * _wedge_starphi()
    rebuild[35:, 8:29] = wedge_phi_matrix(2)
    nonzero = rebuild != 0  # exact zeros stay one shared Fraction
    rebuild, entries = zeros(rebuild.shape, exact), as_mode(rebuild[nonzero], exact)
    rebuild[nonzero] = entries
    return extract, membership, rebuild


@table
def _intrinsic_table(exact: bool) -> np.ndarray:
    """The 49 x 29 matrix of the packed (tau0, tau1, tau2) to
    -tau0/2 g + 2 *(tau1 ^ *phi) + tau2 as a component array, flattened row
    by row.  The 2-forms *(e^k ^ *phi) have disjoint monomials, so each row
    holds at most two nonzero entries and each entry of a product is one
    rounded sum of two exact terms.
    """
    table = zeros((DIM * DIM, 29), exact)
    table[:, 0] = -eye(DIM, exact).reshape(-1) / 2
    table[:, 1:8] = _antisym_table(2).apply(as_mode(2 * hodge_matrix(5).dot(_wedge_starphi()).T, exact)).T
    table[:, 8:] = _antisym_table(2).apply(eye(21, exact)).T
    return table


def _membership_gate(residual, tol: float = 1e-9) -> None:
    if not residual <= tol:
        raise ValueError("tau2 / tau3 are not in their irreducible subspaces")


def recompose(t: TorsionComponents, tol: float = 1e-9):
    """(d phi, d *phi) generated by a torsion quadruple."""
    _membership_gate(t.membership_residual(), tol)
    u = _structure_tables(t.exact)[2].dot(t.packed)
    return Form(4, u[:35]), Form(5, u[35:])


def solve_structure_equations(
    phi: Form, dphi: Form, dstarphi: Form, tol: float = 1e-8, scale: float = None
) -> tuple:
    """Solve the structure equations for (tau0, tau1, tau2, tau3); returns
    the quadruple and the residual of (d phi, d *phi) rebuilt from it.

    ``phi`` must carry the standard coefficients (the adapted-frame
    pointwise model); inputs that are not in the image of any torsion
    quadruple are rejected with the reconstruction residual, judged within
    tol against ``scale``, by default the size of (d phi, d *phi).  A caller
    that builds (d phi, d *phi) as sums of larger terms passes the size of
    the terms: where they cancel, the residual is rounding on them.  The
    solved quadruple passes the membership gate of `recompose`, judged
    against the size of (d phi, d *phi).
    """
    exact = dphi.exact
    template = _phi_templates(exact)[0]  # read-only: a phi that holds it is standard
    if phi.coeffs is not template and not max_abs(phi.coeffs - template) <= 1e-12:
        raise ValueError("phi must be the standard three-form in an adapted frame")
    if dphi.degree != 4 or dstarphi.degree != 5:
        raise ValueError("expected (d phi, d *phi) of degrees (4, 5)")
    extract, membership, rebuild = _structure_tables(exact)
    u = np.concatenate((dphi.coeffs, dstarphi.coeffs))
    v = extract.dot(u)
    off_type, residual, size = max_abs_each(membership.dot(v), rebuild.dot(v) - u, u)
    _membership_gate(off_type, bound(1e-9, size))
    scale = size if scale is None else scale
    if not residual <= bound(tol, scale):
        raise ValueError(
            f"(d phi, d *phi) is not generated by any torsion quadruple "
            f"(residual {residual:.3g}, scale {scale:.3g})"
        )
    t = TorsionComponents(v[0], Form(1, v[1:8]), Form(2, v[8:29]), Form(3, v[29:]))
    t.packed = v
    return t, residual


def extract_torsion(
    phi: Form, dphi: Form, dstarphi: Form, tol: float = 1e-8, scale: float = None
) -> TorsionComponents:
    """The torsion quadruple of `solve_structure_equations`."""
    return solve_structure_equations(phi, dphi, dstarphi, tol, scale)[0]


def fg_type(t: TorsionComponents, eps: float = 1e-9, eps_abs: float = 1e-12) -> frozenset:
    """Fernandez-Gray class: which of tau0, tau2, tau3, tau1 are nonzero.

    The labels follow the classical enumeration 1 <-> tau0, 2 <-> tau2,
    3 <-> tau3, 4 <-> tau1; eps is a relative threshold against the overall
    torsion size and eps_abs an absolute floor below which components count
    as rounding dust.  The empty set means parallel.
    """
    return fg_type_of_norms(t.norms(), eps, eps_abs)


def fg_type_of_norms(norms: dict, eps: float = 1e-9, eps_abs: float = 1e-12) -> frozenset:
    """`fg_type` from the component norms of `TorsionComponents.norms`."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not all(map(math.isfinite, norms.values())):
        raise ValueError(f"torsion norms are not finite: {norms}")
    scale = sum(norms.values())
    return frozenset(
        cls for cls, n in norms.items() if n > max(eps * scale, eps_abs)
    )


# --- intrinsic torsion ---------------------------------------------------------


class IntrinsicTorsion:
    """xi_ijk (skew in the last two, g2-perp valued) and its contraction xibar."""

    __slots__ = ("xi", "xi_bar")

    def __init__(self, xi: np.ndarray, xi_bar: np.ndarray):
        self.xi, self.xi_bar = xi, xi_bar

    def cyclic_sum(self) -> np.ndarray:
        """xi_ijk + xi_jki + xi_kij, which vanishes on closed structures."""
        return self.xi + self.xi.transpose(1, 2, 0) + self.xi.transpose(2, 0, 1)


def xi_from_xibar(xibar: np.ndarray) -> np.ndarray:
    """xi_ijk = xibar_ip phi_pjk / 6."""
    p3, _ = phi_arrays(xibar.dtype == object)
    return xibar.dot(p3.reshape(DIM, DIM * DIM)).reshape(DIM, DIM, DIM) / 6


def intrinsic_from_torsion(t: TorsionComponents) -> IntrinsicTorsion:
    """Assemble xibar from the four torsion components, then xi.

    The four pieces live in the splitting of a 2-tensor: trace, symmetric
    traceless, Lambda^2_14 and Lambda^2_7.  All but the symmetric traceless
    one come from one product with `_intrinsic_table`; sigma(tau3) / 2 is
    added to it last.
    """
    xibar = _intrinsic_table(t.exact).dot(t.packed[:29]).reshape(DIM, DIM) + sigma_contract(t.tau3) / 2
    return IntrinsicTorsion(xi=xi_from_xibar(xibar), xi_bar=xibar)


# --- scalar curvature and closed-structure identities ---------------------------


def scalar_from_torsion(t: TorsionComponents, delta_tau1=0):
    """s_g = 21/8 tau0^2 + 12 delta(tau1) + 30 |tau1|^2 - |tau2|^2/2 - |tau3|^2/2.

    Form norms throughout; the codifferential of tau1 is supplied by the
    caller (it needs a derivative, available on the invariant models).
    """
    n1, n2, n3 = t.norm2s
    return scalar(21, t.exact) / 8 * t.tau0**2 + 12 * delta_tau1 + 30 * n1 - n2 / 2 - n3 / 2


def conformal_transform(t: TorsionComponents, f0: float, df: Form = None) -> TorsionComponents:
    """Torsion of e^{3f} phi: (e^-f tau0, tau1 + df, e^f tau2, e^2f tau3).

    Pointwise model: f0 is the value of f at the point and df its
    differential there.
    """
    if df is None:
        df = Form.zero(1, t.exact)
    if df.degree != 1:
        raise ValueError("df must be a 1-form")
    ef = math.exp(f0)
    return TorsionComponents(t.tau0 / ef, t.tau1 + df, ef * t.tau2, (ef * ef) * t.tau3)


# --- the generalized Ricci formula (exterior and canonical routes) ---------------

#: Per term, in summation order, the (k1, k2) coefficients over 6 of the
#: exterior route (derivatives d) and the canonical route (d^nabla-bar) in
#: p_27(sum of the terms) = lambda3(k1 Ric0^g + k2 Ric0^phi); d tau3 enters
#: through its star.  Both *(tau1 ^ *phi) rows are multiples of 5 k1 + 4 k2
#: and drop for the Weyl-Ricci weighting (4, -5), which is what makes that
#: tensor conformally invariant.  (Re-derived from the invariant examples;
#: the constants are otherwise unavailable to machine precision.)
RICCI_ROUTES = ("exterior", "canonical")
RICCI_TABLE = (
    # term                exterior    canonical
    ("d*(tau1^*phi)", (-30, -24), (-30, -24)),
    ("tau1^*(tau1^*phi)", (60, 48), (-20, -16)),
    ("d tau2", (-6, 24), (-6, 24)),
    ("*(tau2^tau2)", (3, 6), (2, 10)),
    ("*d tau3", (6, 24), (6, 24)),
    ("[tau3^2]^A", (0, 6), (-1, 2)),
    ("[tau3^2]^B", (3, 0), (2, -4)),
    ("tau0 tau3", (-3, 12), (-4, 8)),
    ("tau1^tau2", (6, -24), (-8, -16)),
    ("*(tau1^tau3)", (18, -24), (4, -16)),
    ("[tau2.tau3]_27", (0, 12), (1, 8)),
)
#: the coefficients of RICCI_TABLE as a (route, term, k) integer array
_RICCI_COEFFS = frozen(np.array([[row[1 + r] for row in RICCI_TABLE] for r in range(len(RICCI_ROUTES))]))


#: offsets of tau1, tau2 and tau3 in the packed torsion vector, and the
#: position of the 1 that `ricci_terms` appends to it
_TAU1, _TAU2, _TAU3, _ONE = 1, 8, 29, 64


@table
def _one(exact: bool) -> np.ndarray:
    """The vector (1), appended to the packed torsion vector."""
    return np.array([scalar(1, exact)], dtype=object if exact else float)


@table
def _ricci_pass() -> tuple:
    """The bilinear terms of `ricci_terms` as one index table on the packed
    torsion vector with a 1 appended, its output stacked by term, and the
    (name, degree, start, stop) of each term in it.

    Every term keeps the rows of the kernel that built it alone, in their
    order, so each output entry adds the same products in the same order.
    A Hodge star is a signed reindexing of a sum: the table writes each row
    to its starred position with the star's sign folded into its
    coefficient.  Rounding is symmetric in sign, so a sum of negated
    products is the negated sum, and an entry differs from the star of the
    kernel's output at most in the sign of a zero.  *(tau1 ^ *phi) is
    linear, a product with the appended 1, and each of its entries is one
    +-tau1 entry, so the rows of tau1 ^ *(tau1 ^ *phi) read tau1 twice.
    """
    starphi = hodge_matrix(3).dot(phi_coefficients())
    t1_w = hodge_matrix(5).dot(_wedge_starphi())  # tau1 -> *(tau1 ^ *phi)
    if not ((np.abs(t1_w) <= 1).all() and ((t1_w != 0).sum(axis=1) <= 1).all()):
        raise AssertionError("an entry of *(tau1 ^ *phi) is not one +-tau1 entry")
    t1_w_src = np.abs(t1_w).argmax(axis=1)
    t1_w_sign = t1_w[np.arange(len(t1_w)), t1_w_src]
    w14, w12, w22, w13 = (_wedge_table(*k) for k in ((1, 4), (1, 2), (2, 2), (1, 3)))
    quad, odot = _quad_tables(), _odot_table(2, 3)
    keep = starphi[w14.pb] != 0
    lead = t1_w_sign[w12.pb] != 0
    terms = (  # name, degree, (pa, pb, po, coef) of the kernel, star
        ("[tau2.tau3]", 3, (_TAU2 + odot.pa, _TAU3 + odot.pb, odot.po, odot.coef), None),
        (
            "*(tau1^*phi)",
            2,
            (_TAU1 + w14.pa[keep], np.full(keep.sum(), _ONE), w14.po[keep], w14.coef[keep] * starphi[w14.pb[keep]]),
            5,
        ),
        (
            "tau1^*(tau1^*phi)",
            3,
            (_TAU1 + w12.pa[lead], _TAU1 + t1_w_src[w12.pb[lead]], w12.po[lead], w12.coef[lead] * t1_w_sign[w12.pb[lead]]),
            None,
        ),
        ("*(tau2^tau2)", 3, (_TAU2 + w22.pa, _TAU2 + w22.pb, w22.po, w22.coef), 4),
        ("[tau3^2]^A", 3, (_TAU3 + quad["A"].pa, _TAU3 + quad["A"].pb, quad["A"].po, quad["A"].coef), None),
        ("[tau3^2]^B", 3, (_TAU3 + quad["B"].pa, _TAU3 + quad["B"].pb, quad["B"].po, quad["B"].coef), None),
        ("tau1^tau2", 3, (_TAU1 + w12.pa, _TAU2 + w12.pb, w12.po, w12.coef), None),
        ("*(tau1^tau3)", 3, (_TAU1 + w13.pa, _TAU3 + w13.pb, w13.po, w13.coef), 4),
    )
    rows, layout, start = [], [], 0
    for name, degree, (pa, pb, po, coef), star in terms:
        if star is not None:
            to, by = hodge_table(star)
            po, coef = to[po], by[po] * coef
        rows.append(np.stack([pa, pb, start + po, coef], axis=1))
        layout.append((name, degree, start, start + dim_of(degree)))
        start += dim_of(degree)
    return IndexTable.from_rows(np.concatenate(rows), start), tuple(layout)


def ricci_terms(t: TorsionComponents) -> dict:
    """The k-independent torsion terms of the generalized Ricci formula.

    Also holds the 2-form *(tau1 ^ *phi), whose derivative the formula takes,
    and the bracket [tau2.tau3] before its projection, which the d tau2
    conversion of `homogeneous.analyze` reads.  Every bilinear term comes
    from one pass of `_ricci_pass`, bit for bit the kernel of its own; the
    forms are views of that pass's output.
    """
    table, layout = _ricci_pass()
    exact = t.exact
    v = np.concatenate((t.packed, _one(exact)))
    out = table.apply(v, v)
    forms = {name: Form(degree, out[a:b]) for name, degree, a, b in layout}
    bracket = forms["[tau2.tau3]"]
    return {
        "*(tau1^*phi)": forms["*(tau1^*phi)"],
        "tau1^*(tau1^*phi)": forms["tau1^*(tau1^*phi)"],
        "*(tau2^tau2)": forms["*(tau2^tau2)"],
        "[tau3^2]^A": forms["[tau3^2]^A"],
        "[tau3^2]^B": forms["[tau3^2]^B"],
        "tau0 tau3": Form(3, t.tau3.coeffs * t.tau0),
        "tau1^tau2": forms["tau1^tau2"],
        "*(tau1^tau3)": forms["*(tau1^tau3)"],
        "[tau2.tau3]_27": Form(3, projector_matrix(3, 27, exact).dot(bracket.coeffs)),
        "[tau2.tau3]": bracket,
    }


# --- the d tau2 conversion identity ------------------------------------------------

#: d tau2 as the weighted sum of these terms, in summation order: the
#: canonical derivative, four Ricci-formula torsion terms (tau1 ^ tau2 twice,
#: once through its 7-part) and two terms of their own.  The 7-part weight is
#: pinned by the pointwise fit over random torsion tuples, matching
#: alt(xi . tau2).
CONVERSION_TABLE = (
    ("d^nabla-bar tau2", Fraction(1)),
    ("tau1^tau2", Fraction(2, 3)),
    ("(tau1^tau2)_7", Fraction(-8, 3)),
    ("*(tau2^tau2)", Fraction(1, 6)),
    ("|tau2|^2 phi", Fraction(1, 6)),
    ("[tau2.tau3]", Fraction(-1, 6)),
    ("*((tau2-|tau3)^phi)", Fraction(1, 6)),
)


@table
def _conversion_pass() -> IndexTable:
    """The two conversion terms that no Ricci term holds, |tau2|^2 phi and
    *((tau2 -| tau3) ^ phi), as one index table on the packed torsion
    vector, their outputs back to back.  The second composes the
    contraction table with the integer matrix of c -> *(c ^ phi) on
    1-forms; rows are merged and sorted by output."""
    phi = phi_coefficients()
    on_phi, pairs = np.flatnonzero(phi), np.arange(dim_of(2))
    norm_rows = (
        np.tile(_TAU2 + pairs, len(on_phi)),
        np.tile(_TAU2 + pairs, len(on_phi)),
        np.repeat(on_phi, len(pairs)),
        np.repeat(phi[on_phi], len(pairs)),
    )
    c = _contract_table(2, 3)
    star_wedge = hodge_matrix(4).dot(wedge_phi_matrix(1))  # (35, 7): c -> *(c ^ phi)
    row, out = np.nonzero(star_wedge[:, c.po].T)
    contract_rows = (
        _TAU2 + c.pa[row],
        _TAU3 + c.pb[row],
        dim_of(3) + out,
        c.coef[row] * star_wedge[out, c.po[row]],
    )
    pa, pb, po, coef = (np.concatenate(cols) for cols in zip(norm_rows, contract_rows))
    return IndexTable.merged(pa, pb, po, coef, 2 * dim_of(3), _ONE, _ONE)


@table
def _conversion_weights(exact: bool) -> np.ndarray:
    """The weights of CONVERSION_TABLE in one scalar mode."""
    return as_mode([w for _, w in CONVERSION_TABLE], exact)


def dtau2_conversion(t: TorsionComponents, terms: dict, dbar_tau2: Form) -> np.ndarray:
    """The right side of the d tau2 conversion identity: the terms of
    CONVERSION_TABLE stacked in one (7, 35) array and summed in one weighted
    reduction.  ``terms`` is the output of `ricci_terms` and ``dbar_tau2``
    the canonical derivative d^nabla-bar tau2; the two terms of their own
    are one pass of `_conversion_pass`."""
    exact = t.exact
    v = t.packed
    own = _conversion_pass().apply(v, v)
    n = dim_of(3)
    t1t2 = terms["tau1^tau2"].coeffs
    stack = np.concatenate(
        (
            dbar_tau2.coeffs,
            t1t2,
            projector_matrix(3, 7, exact).dot(t1t2),
            terms["*(tau2^tau2)"].coeffs,
            own[:n],
            terms["[tau2.tau3]"].coeffs,
            own[n:],
        )
    )
    return _conversion_weights(exact).dot(stack.reshape(len(CONVERSION_TABLE), n))


#: the terms of RICCI_TABLE that are a route's derivatives, in the order of
#: the ``derivs`` of `ricci_rows`; the other eight are torsion terms that
#: every route shares
_DERIV_TERMS = ("d*(tau1^*phi)", "d tau2", "*d tau3")
_SHARED_TERMS = tuple(name for name, *_ in RICCI_TABLE if name not in _DERIV_TERMS)


def ricci_rows(derivs: dict, terms: dict, ks) -> np.ndarray:
    """The generalized Ricci right-hand sides as a (route, k, 35) stack of
    Lambda^3_27 rows, for each route of ``derivs`` and each k in ks.

    ``derivs`` maps a route of RICCI_ROUTES to its derivatives of
    *(tau1 ^ *phi), tau2 and tau3 (3-, 3- and 4-form), ``terms`` is the
    output of `ricci_terms`.  The shared torsion-term rows and the routes'
    derivative rows are joined into one buffer and gathered into a (route,
    term, 35) stack in table order, *d tau3 by the reindexing of the star
    (its sign rides on the weights).  Each row is the coefficient-weighted
    sum over the terms, a reduction that adds left to right, with only the
    bracket term projected beforehand: a different order moves the rounding
    of the exterior route, whose residual `cohomo_one.ricW_vanishes` reports.
    """
    routes = tuple(derivs)
    exact = terms["tau1^tau2"].exact
    index, weights = _ricci_stack(routes, tuple(map(tuple, ks)), exact)
    buf = np.concatenate(
        [terms[name].coeffs for name in _SHARED_TERMS] + [f.coeffs for route in routes for f in derivs[route]]
    )
    total = (weights * buf[index]).sum(axis=2)  # (route, k, 35), term by term
    # one stacked matrix-vector product, which rounds each row as p27.dot(row)
    # does (`X.dot(p27.T)` would not), the same for one row as for several
    return np.matmul(projector_matrix(3, 27, exact), total[..., None])[..., 0]


@functools.lru_cache(maxsize=16)
def _ricci_stack(routes: tuple, ks: tuple, exact: bool) -> tuple:
    """The (route, 1, term, 35) gather index into the buffer of
    `ricci_rows`, and (route, k, term, 35) weights: the RICCI_TABLE
    coefficients of each k in ks over 6, times the sign of the star on the
    *d tau3 row, `frozen`: its key holds the caller's ks, so the cache is
    bounded."""
    n, star = dim_of(3), _hodge_gather(4)
    index = np.empty((len(routes), 1, len(RICCI_TABLE), n), dtype=np.intp)
    signs = np.ones((len(RICCI_TABLE), n), dtype=np.int64)
    for term, (name, *_) in enumerate(RICCI_TABLE):
        if name in _SHARED_TERMS:
            index[:, 0, term] = _SHARED_TERMS.index(name) * n + np.arange(n)
            continue
        row = len(_SHARED_TERMS) + 3 * np.arange(len(routes)) + _DERIV_TERMS.index(name)
        index[:, 0, term] = row[:, None] * n + (star.src if name == "*d tau3" else np.arange(n))
        if name == "*d tau3":
            signs[term] = star.coef
    coeffs = _RICCI_COEFFS[[RICCI_ROUTES.index(route) for route in routes]]  # (route, term, 2)
    weights = as_mode(np.array([np.dot(ks, c.T) for c in coeffs]), exact) / 6
    return frozen((index, weights[..., None] * signs))


def ricci_rhs_exterior(t: TorsionComponents, d_star_t1_wstar: Form, d_tau2: Form, d_tau3: Form, k):
    """The exterior row of `ricci_rows` for the one weighting k, building the
    torsion terms of t."""
    derivs = {"exterior": (d_star_t1_wstar, d_tau2, d_tau3)}
    return Form(3, ricci_rows(derivs, ricci_terms(t), (k,))[0, 0])
