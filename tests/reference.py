"""Reference code for the tests: helpers the package itself does not use,
the plain loops that built the index tables of `g2lab.exterior_algebra`
before they were read off the wedge table, the degree-by-degree build
of the invariant d-matrices that `g2lab.homogeneous` fuses into one scatter,
and the eager build of the invariant geometry that `InvariantGeometry`
makes lazy.

Each loop builds its rows from the multi-indices directly, with a
permutation sign of its own, so comparing a derived table with its loop
checks the derivation, not a shared helper.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

from g2lab._linalg import bound, is_exact, max_abs, scalar, zeros
from g2lab.exterior_algebra import (
    BASIS,
    DIM,
    INDEX,
    Form,
    _connection_stack,
    _derivation_table,
    covariant_wedge,
    dim_of,
    hodge,
    phi_arrays,
    standard_phi,
    standard_phi_dual,
    wedge,
)
from g2lab.g2_algebra import project, projector_matrix
from g2lab.homogeneous import _PAIR_I, _PAIR_J, _d_on_one_forms, invariant_d, invariant_d_matrices, riemann
from g2lab.torsion import (
    TorsionComponents,
    extract_torsion,
    intrinsic_from_torsion,
    recompose,
    ricci_terms,
    xi_from_xibar,
)

# --- forms and torsion ----------------------------------------------------------


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


def wedge_all(*forms: Form) -> Form:
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def volume_form(exact: bool = False) -> Form:
    return Form.basis(range(1, 8), exact)


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


def xibar_from_xi(xi: np.ndarray) -> np.ndarray:
    """xibar_ij = xi_ipq phi_jpq (inverse of xi_from_xibar by phi.phi = 6g)."""
    p3, _ = phi_arrays(is_exact(xi))
    return np.tensordot(xi, p3, axes=([1, 2], [1, 2]))


def differential_from_xibar(xibar: np.ndarray):
    """(d phi, d *phi) implied by an intrinsic torsion, via d = alt(grad).

    The canonical connection annihilates phi and *phi, so the Levi-Civita
    derivative of either is the gl(7) action of xi, and d is its
    alternation `covariant_wedge`.  Pins the normalisations of
    `intrinsic_from_torsion` against `recompose`.
    """
    xi = xi_from_xibar(xibar)
    exact = is_exact(xibar)
    return covariant_wedge(xi, standard_phi(exact)), covariant_wedge(xi, standard_phi_dual(exact))


# --- loop references of the index tables ------------------------------------------


def sign_of(seq) -> int:
    """Sign of the permutation sorting seq, by counting inversions."""
    inversions = sum(1 for x, y in itertools.combinations(seq, 2) if x > y)
    return -1 if inversions % 2 else 1


def _rows(rows, width: int) -> np.ndarray:
    return np.array(rows, dtype=np.intp).reshape(-1, width)


def loop_contract_rows(ka: int, kb: int) -> np.ndarray:
    """Rows (pos_a, pos_b, pos_out, sign): e^I -| e^J = i_(I_last)..i_(I_1) e^J."""
    rows = []
    for pa, I in enumerate(BASIS[ka]):
        for pb, J in enumerate(BASIS[kb]):
            if not set(I) <= set(J):
                continue
            rest, sign = list(J), 1
            for i in I:
                p = rest.index(i)
                sign *= (-1) ** p
                del rest[p]
            rows.append((pa, pb, INDEX[kb - ka][tuple(rest)], sign))
    return _rows(rows, 4)


def loop_interior_rows(k: int) -> np.ndarray:
    """Rows (vector_index, pos_in, pos_out, sign): i_(e_i) e^I for i in I."""
    rows = []
    for pos, I in enumerate(BASIS[k]):
        for p, i in enumerate(I):
            rows.append((i, pos, INDEX[k - 1][I[:p] + I[p + 1 :]], (-1) ** p))
    return _rows(rows, 4)


def loop_hodge_rows(k: int) -> np.ndarray:
    """(pos_out, sign) per input position: *e^I = sign(I, I^c) e^(I^c)."""
    rows = []
    for I in BASIS[k]:
        comp = tuple(i for i in range(DIM) if i not in I)
        rows.append((INDEX[DIM - k][comp], sign_of(I + comp)))
    return _rows(rows, 2)


def loop_derivation_rows(k: int, r: int) -> np.ndarray:
    """Rows (pos_out, pos_in, target, head, sign) of the Leibniz rule
    D e^I = sum_s (-1)^s D(e^(i_s)) ^ e^(I - i_s), D mapping 1-forms to r-forms."""
    rows = []
    for pos, I in enumerate(BASIS[k]):
        for s, head in enumerate(I):
            rest = I[:s] + I[s + 1 :]
            for target, T in enumerate(BASIS[r]):
                if set(T).isdisjoint(rest):
                    merged = T + rest
                    out = INDEX[k - 1 + r][tuple(sorted(merged))]
                    rows.append((out, pos, target, head, (-1) ** s * sign_of(merged)))
    return _rows(rows, 5)


# --- the invariant d-matrices degree by degree --------------------------------------


def loop_invariant_d_matrices(spec) -> dict:
    """d on k-forms as one scatter of d on 1-forms per degree, each through
    the derivation table of its own degree."""
    d1 = _d_on_one_forms(spec)
    mats = {0: zeros((DIM, 1), spec.exact), 1: d1}
    for k in range(2, DIM):
        out, pos, pair, head, sign = _derivation_table(k, 2)
        m = zeros((dim_of(k + 1), dim_of(k)), spec.exact)
        np.add.at(m, (out, pos), sign * d1[pair, head])
        mats[k] = m
    return mats


# --- the invariant geometry, every stage built up front ------------------------------


def eager_geometry(spec, phi=None) -> SimpleNamespace:
    """Every stage of `g2lab.homogeneous.InvariantGeometry` in one pass, in
    the order the gates fire: Jacobi, extraction, canonical connection.  The
    structure-equation residual is measured on `recompose`, the d^2 residual
    on d_2 d_1 and the four other products, and every canonical derivative
    of the Ricci formula, d^nabla-bar tau2 among them, on a stack of its own."""
    if phi is None:
        phi = standard_phi(spec.exact)
    mats = invariant_d_matrices(spec)
    jacobi_product = mats[2].dot(mats[1])
    jacobi = max_abs(jacobi_product)
    d_squared = max_abs(jacobi_product, *(mats[k + 1].dot(mats[k]) for k in range(2, DIM - 1)))
    if not jacobi <= 1e-10:
        raise ValueError(f"structure constants fail the Jacobi identity (residual {jacobi:.3g})")
    cl = zeros((DIM, DIM, DIM), spec.exact)  # cl[i,j,k] = c^k_ij, read off d on 1-forms
    cl[_PAIR_I, _PAIR_J] = -mats[1]
    cl[_PAIR_J, _PAIR_I] = mats[1]
    gamma = (cl - cl.transpose(2, 0, 1) + cl.transpose(1, 2, 0)) / 2
    curvature = riemann(spec, gamma)
    dphi, dstarphi = invariant_d(mats, phi), invariant_d(mats, hodge(phi))
    t = extract_torsion(phi, dphi, dstarphi)
    rec_d, rec_s = recompose(t)
    structure_residual = max_abs(rec_d.coeffs - dphi.coeffs, rec_s.coeffs - dstarphi.coeffs)
    xi = intrinsic_from_torsion(t)
    gamma_bar = gamma - xi.xi
    nabla_bar_phi = max_abs(_connection_stack(gamma_bar, phi))
    if not nabla_bar_phi <= bound(1e-9, max_abs(gamma)):
        raise ValueError(f"canonical connection does not annihilate phi (residual {nabla_bar_phi:.3g})")
    terms = ricci_terms(t)
    sources = (terms["*(tau1^*phi)"], t.tau2, t.tau3)
    return SimpleNamespace(
        phi=phi,
        d_mats=mats,
        jacobi_product=jacobi_product,
        jacobi=jacobi,
        d_squared=d_squared,
        gamma=gamma,
        curvature=curvature,
        dphi=dphi,
        dstarphi=dstarphi,
        torsion=t,
        structure_residual=structure_residual,
        xi=xi,
        gamma_bar=gamma_bar,
        nabla_bar_phi=nabla_bar_phi,
        nabla_bar_tau2=_connection_stack(gamma_bar, t.tau2),
        ricci_terms=terms,
        ricci_derivs={
            "exterior": [invariant_d(mats, a) for a in sources],
            "canonical": [covariant_wedge(gamma_bar, a) for a in sources],
        },
    )


# --- warped products -----------------------------------------------------------------


def einstein_warp_check(f, rho: float, rho_star: float) -> tuple:
    """Residuals of (f')^2 + rho f^2 = rho* and f'' + rho f = 0 for a warp jet f."""
    r1 = f.d1**2 + rho * f.value**2 - rho_star
    r2 = f.d2 + rho * f.value
    return (r1, r2)
