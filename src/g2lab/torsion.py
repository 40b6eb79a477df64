"""Torsion of a G2 structure from its structure equations.

Everything here is pointwise linear algebra in the adapted frame where phi
takes its standard coefficients.  The structure equations

    d phi  = tau0 *phi + 3 tau1 ^ phi + *tau3
    d *phi = 4 tau1 ^ *phi + tau2 ^ phi

with tau2 in Lambda^2_14 and tau3 in Lambda^3_27 determine the four torsion
components uniquely; extraction inverts the constant injective maps
a -> a ^ phi degreewise with precomputed pseudo-inverses.

The intrinsic torsion is recovered through the contraction dictionary

    xibar_1 = -tau0/2 g,   xibar_7 = 2 *(tau1 ^ *phi),
    xibar_14 = tau2,       xibar_27 = sigma(tau3) / 2,

xi_ijk = xibar_ip phi_pjk / 6.  The 27-part normalisation is pinned by
requiring that the reconstructed xi reproduces (d phi, d *phi) through
d = alt(grad) with grad phi = -xi . phi, which is also how the module can
rebuild the differentials from xibar (`differential_from_xibar`).

The generalized Ricci formula is linear in its weighting k, so it is stored
as data: `RICCI_TABLE` holds, per term and route, the (k1, k2) coefficients
over 6; `ricci_terms` builds the k-independent torsion terms once and
`ricci_rhs` combines them with a route's derivatives for any k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import as_mode, eye, is_exact, max_abs, pinv, scalar
from .exterior_algebra import (
    DIM,
    Form,
    form_inner,
    from_antisym,
    hodge,
    phi_arrays,
    standard_phi,
    standard_phi_dual,
    to_antisym,
    wedge,
    wedge_phi_matrix,
)
from .g2_algebra import (
    odot_bracket,
    project,
    projector_matrix,
    quad_A,
    quad_B,
    sigma_contract,
)


@dataclass(frozen=True)
class TorsionComponents:
    """The quadruple (tau0, tau1, tau2, tau3)."""

    tau0: object
    tau1: Form
    tau2: Form
    tau3: Form

    def __post_init__(self):
        if (self.tau1.degree, self.tau2.degree, self.tau3.degree) != (1, 2, 3):
            raise ValueError("torsion components must have degrees (1, 2, 3)")

    @property
    def exact(self) -> bool:
        return self.tau1.exact

    def membership_residual(self) -> float:
        return max_abs(
            project(self.tau2, (2, 14)).coeffs - self.tau2.coeffs,
            project(self.tau3, (3, 27)).coeffs - self.tau3.coeffs,
        )

    def norms(self) -> dict:
        """Form norms of the four components."""
        return {
            1: abs(float(self.tau0)),
            4: float(self.tau1.norm2()) ** 0.5,
            2: float(self.tau2.norm2()) ** 0.5,
            3: float(self.tau3.norm2()) ** 0.5,
        }

    @staticmethod
    def zero(exact: bool = False) -> "TorsionComponents":
        return TorsionComponents(
            scalar(0, exact), Form.zero(1, exact), Form.zero(2, exact), Form.zero(3, exact)
        )


def random_torsion(seed: int = 0) -> TorsionComponents:
    rng = np.random.default_rng(seed)
    q14 = projector_matrix(2, 14)
    q27 = projector_matrix(3, 27)
    return TorsionComponents(
        float(rng.normal()),
        Form(1, rng.normal(size=7)),
        Form(2, q14.dot(rng.normal(size=21))),
        Form(3, q27.dot(rng.normal(size=35))),
    )


# --- structure equations -----------------------------------------------------


def recompose(t: TorsionComponents, tol: float = 1e-9):
    """(d phi, d *phi) generated by a torsion quadruple."""
    if not t.membership_residual() <= tol:
        raise ValueError("tau2 / tau3 are not in their irreducible subspaces")
    exact = t.exact
    phi = standard_phi(exact)
    starphi = hodge(phi)
    dphi = t.tau0 * starphi + 3 * wedge(t.tau1, phi) + hodge(t.tau3)
    dstarphi = 4 * wedge(t.tau1, starphi) + wedge(t.tau2, phi)
    return dphi, dstarphi


@functools.cache
def _wedge_phi_inverses(exact: bool):
    """Pseudo-inverses of a -> a ^ phi on Lambda^1 and Lambda^2.

    The degree-1 map is injective into Lambda^4_7; the degree-2 map is a
    bijection of 21-dimensional spaces (2* on Lambda^2_7, -* on
    Lambda^2_14), so its pseudo-inverse is a true inverse.  The tau2
    extraction composes it with the projection onto Lambda^2_14.
    """
    w1 = as_mode(wedge_phi_matrix(1), exact)  # 35 x 7
    w2 = as_mode(wedge_phi_matrix(2), exact)  # 21 x 21, invertible
    q14 = projector_matrix(2, 14, exact)
    return pinv(w1), q14.dot(pinv(w2))


def extract_torsion(
    phi: Form, dphi: Form, dstarphi: Form, tol: float = 1e-8
) -> TorsionComponents:
    """Solve the structure equations for (tau0, tau1, tau2, tau3).

    ``phi`` must carry the standard coefficients (the adapted-frame
    pointwise model); inputs that are not in the image of any torsion
    quadruple are rejected with the reconstruction residual.
    """
    exact = dphi.exact
    std = standard_phi(exact)
    if not max_abs(phi.coeffs - std.coeffs) <= 1e-12:
        raise ValueError("phi must be the standard three-form in an adapted frame")
    if dphi.degree != 4 or dstarphi.degree != 5:
        raise ValueError("expected (d phi, d *phi) of degrees (4, 5)")
    starphi = standard_phi_dual(exact)

    tau0 = form_inner(dphi, starphi) / 7
    w1_pinv, w2_pinv = _wedge_phi_inverses(exact)
    tau1 = Form(1, w1_pinv.dot(project(dphi, (4, 7)).coeffs) / 3)
    tau2 = Form(2, w2_pinv.dot(project(dstarphi, (5, 14)).coeffs))
    tau3 = hodge(project(dphi, (4, 27)))
    t = TorsionComponents(tau0, tau1, tau2, tau3)

    rd, rs = recompose(t)
    scale = max(max_abs(dphi.coeffs), max_abs(dstarphi.coeffs), 1.0)
    residual = max_abs(rd.coeffs - dphi.coeffs, rs.coeffs - dstarphi.coeffs)
    if not residual <= tol * scale:
        raise ValueError(
            f"(d phi, d *phi) is not generated by any torsion quadruple "
            f"(residual {residual:.3g})"
        )
    return t


def fg_type(t: TorsionComponents, eps: float = 1e-9, eps_abs: float = 1e-12) -> frozenset:
    """Fernandez-Gray class: which of tau0, tau2, tau3, tau1 are nonzero.

    The labels follow the classical enumeration 1 <-> tau0, 2 <-> tau2,
    3 <-> tau3, 4 <-> tau1; eps is a relative threshold against the overall
    torsion size and eps_abs an absolute floor below which components count
    as rounding dust.  The empty set means parallel.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    norms = t.norms()
    if not all(map(math.isfinite, norms.values())):
        raise ValueError(f"torsion norms are not finite: {norms}")
    scale = sum(norms.values())
    return frozenset(
        cls for cls, n in norms.items() if n > max(eps * scale, eps_abs)
    )


# --- intrinsic torsion ---------------------------------------------------------


@dataclass(frozen=True)
class IntrinsicTorsion:
    """xi_ijk (skew in the last two, g2-perp valued) and its contraction xibar."""

    xi: np.ndarray
    xi_bar: np.ndarray

    def cyclic_residual(self) -> float:
        """Residual of xi_ijk + xi_jki + xi_kij = 0 (closed structures)."""
        c = self.xi + self.xi.transpose(1, 2, 0) + self.xi.transpose(2, 0, 1)
        return max_abs(c)


def xi_from_xibar(xibar: np.ndarray) -> np.ndarray:
    """xi_ijk = xibar_ip phi_pjk / 6."""
    p3, _ = phi_arrays(is_exact(xibar))
    return np.tensordot(xibar, p3, axes=([1], [0])) / 6


def xibar_from_xi(xi: np.ndarray) -> np.ndarray:
    """xibar_ij = xi_ipq phi_jpq (inverse of xi_from_xibar by phi.phi = 6g)."""
    p3, _ = phi_arrays(is_exact(xi))
    return np.tensordot(xi, p3, axes=([1, 2], [1, 2]))


def intrinsic_from_torsion(t: TorsionComponents) -> IntrinsicTorsion:
    """Assemble xibar from the four torsion components, then xi.

    The four pieces live in the splitting of a 2-tensor: trace, symmetric
    traceless, Lambda^2_14 and Lambda^2_7.
    """
    exact = t.exact
    g = eye(DIM, exact)
    phi = standard_phi(exact)
    starphi = hodge(phi)
    xibar = -(t.tau0 / 2) * g
    xibar = xibar + 2 * to_antisym(hodge(wedge(t.tau1, starphi))).array
    xibar = xibar + to_antisym(t.tau2).array
    xibar = xibar + sigma_contract(t.tau3) / 2
    return IntrinsicTorsion(xi=xi_from_xibar(xibar), xi_bar=xibar)


def differential_from_xibar(xibar: np.ndarray):
    """(d phi, d *phi) implied by an intrinsic torsion, via grad = alt(d).

    With grad_i phi = -(xi_i . phi) for the so(7) action of xi_i and the
    alternation formula for d on parallel-coefficient forms.  Used to pin
    the normalisations of intrinsic_from_torsion against recompose.
    """
    exact = is_exact(xibar)
    xi = xi_from_xibar(xibar)
    p3, p4 = phi_arrays(exact)

    # (grad_i phi)_jkl = -(xi_ijp phi_pkl + xi_ikp phi_jpl + xi_ilp phi_jkp)
    # with T[i,a,b,c] = xi_iap phi_pbc the three terms are
    # T[i,j,k,l], -T[i,k,j,l], T[i,l,j,k]
    t1 = np.tensordot(xi, p3, axes=([2], [0]))
    grad_phi = -(t1 - t1.swapaxes(1, 2) + np.moveaxis(t1, 1, 3))
    dphi_arr = (
        grad_phi
        - np.moveaxis(grad_phi, 0, 1)
        + np.moveaxis(grad_phi, 0, 2)
        - np.moveaxis(grad_phi, 0, 3)
    )

    # same pattern one degree up: S[i,j,k,l,m], -S[i,k,j,l,m],
    # S[i,l,j,k,m], -S[i,m,j,k,l]
    s1 = np.tensordot(xi, p4, axes=([2], [0]))
    grad_star = -(
        s1 - s1.swapaxes(1, 2) + np.moveaxis(s1, 1, 3) - np.moveaxis(s1, 1, 4)
    )
    dstar_arr = (
        grad_star
        - np.moveaxis(grad_star, 0, 1)
        + np.moveaxis(grad_star, 0, 2)
        - np.moveaxis(grad_star, 0, 3)
        + np.moveaxis(grad_star, 0, 4)
    )
    return from_antisym(dphi_arr, 4), from_antisym(dstar_arr, 5)


# --- scalar curvature and closed-structure identities ---------------------------


def scalar_from_torsion(t: TorsionComponents, delta_tau1=0):
    """s_g = 21/8 tau0^2 + 12 delta(tau1) + 30 |tau1|^2 - |tau2|^2/2 - |tau3|^2/2.

    Form norms throughout; the codifferential of tau1 is supplied by the
    caller (it needs a derivative, available on the invariant models).
    """
    return (
        scalar(21, t.exact) / 8 * t.tau0**2
        + 12 * delta_tau1
        + 30 * t.tau1.norm2()
        - t.tau2.norm2() / 2
        - t.tau3.norm2() / 2
    )


def closed_identities(tau2: Form, tol: float = 1e-9) -> dict:
    """Residuals of the pointwise identities for tau in Lambda^2_14:

    *(tau ^ tau ^ phi) = -|tau|^2,  |tau ^ tau|^2 = |tau|^4,
    |(tau ^ tau)_27|^2 = 6/7 |tau|^4   (all form norms).
    """
    if not max_abs(project(tau2, (2, 14)).coeffs - tau2.coeffs) <= tol:
        raise ValueError("tau2 is not in Lambda^2_14")
    phi = standard_phi(tau2.exact)
    tt = wedge(tau2, tau2)
    n2 = tau2.norm2()
    report = {
        "*(tau^tau^phi) = -|tau|^2": max_abs(
            np.asarray([hodge(wedge(tt, phi)).coeffs[0] + n2])
        ),
        "|tau^tau|^2 = |tau|^4": max_abs(np.asarray([tt.norm2() - n2 * n2])),
        "|(tau^tau)_27|^2 = 6/7 |tau|^4": max_abs(
            np.asarray(
                [project(tt, (4, 27)).norm2() - scalar(6, tau2.exact) / 7 * n2 * n2]
            )
        ),
    }
    return report


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


def ricci_terms(t: TorsionComponents) -> dict:
    """The k-independent torsion terms of the generalized Ricci formula.

    Also holds the 2-form *(tau1 ^ *phi), whose derivative the formula takes.
    """
    t1_w = hodge(wedge(t.tau1, standard_phi_dual(t.exact)))
    return {
        "*(tau1^*phi)": t1_w,
        "tau1^*(tau1^*phi)": wedge(t.tau1, t1_w),
        "*(tau2^tau2)": hodge(wedge(t.tau2, t.tau2)),
        "[tau3^2]^A": quad_A(t.tau3),
        "[tau3^2]^B": quad_B(t.tau3),
        "tau0 tau3": t.tau0 * t.tau3,
        "tau1^tau2": wedge(t.tau1, t.tau2),
        "*(tau1^tau3)": hodge(wedge(t.tau1, t.tau3)),
        "[tau2.tau3]_27": project(odot_bracket(t.tau2, t.tau3), (3, 27)),
    }


def ricci_rhs(route: str, derivs, terms: dict, k) -> Form:
    """Lambda^3_27 part of the generalized Ricci right-hand side of a route.

    ``derivs`` are the route's derivatives of *(tau1 ^ *phi), tau2 and tau3
    (3-, 3- and 4-form), ``terms`` the output of `ricci_terms`.  The terms
    are summed left to right in table order, with only the bracket term
    projected beforehand: a different order moves the rounding of the
    exterior route, whose residual `cohomo_one.ricW_vanishes` reports.
    """
    col = RICCI_ROUTES.index(route)
    d_t1_w, d_tau2, d_tau3 = derivs
    forms = {**terms, "d*(tau1^*phi)": d_t1_w, "d tau2": d_tau2, "*d tau3": hodge(d_tau3)}
    parts = [
        scalar(coeffs[col][0] * k[0] + coeffs[col][1] * k[1], d_tau2.exact) / 6 * forms[name]
        for name, *coeffs in RICCI_TABLE
    ]
    return project(sum(parts[1:], parts[0]), (3, 27))


def ricci_rhs_exterior(t: TorsionComponents, d_star_t1_wstar: Form, d_tau2: Form, d_tau3: Form, k):
    """`ricci_rhs` on the exterior route, building the torsion terms of t."""
    return ricci_rhs("exterior", (d_star_t1_wstar, d_tau2, d_tau3), ricci_terms(t), k)
