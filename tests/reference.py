"""Reference code for the tests: helpers the package itself does not use
(among them the first Bianchi residual and the cyclic residual of the
intrinsic torsion, which only tests read),
the plain loops that built the index tables of `g2lab.exterior_algebra`
before they were read off the wedge table, the degree-by-degree build
of the invariant d-matrices that `g2lab.homogeneous` fuses into one scatter,
the eager build of the invariant geometry that `InvariantGeometry`
makes lazy, and the per-route Ricci rows and per-k closed-structure chain
that `g2lab.torsion.ricci_rows` and `g2lab.homogeneous.analyze` stack.

Each loop builds its rows from the multi-indices directly, with a
permutation sign of its own, so comparing a derived table with its loop
checks the derivation, not a shared helper.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

from g2lab._linalg import as_mode, bound, is_exact, max_abs, max_abs_each, scalar, zeros
from g2lab.curvature import _iphi_matrix, bianchi_b
from g2lab.exterior_algebra import (
    BASIS,
    DIM,
    INDEX,
    Form,
    _derivation_table,
    alternate,
    connection_action,
    connection_matrix,
    covariant_wedge,
    dim_of,
    form_inner,
    frame_interior,
    hodge,
    phi_arrays,
    standard_phi,
    standard_phi_dual,
    to_antisym,
    wedge,
)
from g2lab.g2_algebra import SPLIT_V14_CONSTANTS, lambda3, mixed_project_14, project, projector_matrix, wedge3
from g2lab.homogeneous import (
    _PAIR_I,
    _PAIR_J,
    K_VALUES,
    _d_on_one_forms,
    invariant_d,
    invariant_d_matrices,
    nabla_bar_tau,
    riemann,
)
from g2lab.torsion import (
    RICCI_ROUTES,
    RICCI_TABLE,
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
    on d_2 d_1 and the four other products, and the canonical-connection
    stages are the stacked pass over (phi, *(tau1 ^ *phi), tau2, tau3) that
    the lazy object makes: one scatter, one product with gamma-bar, one of
    gamma with phi's block and one alternation.  (One stacked product rounds
    as separate products do only for some widths, so the per-form stacks of
    `_connection_stack` are compared with it within rounding, in
    tests/test_homogeneous.py.)"""
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
    terms = ricci_terms(t)
    sources = (terms["*(tau1^*phi)"], t.tau2, t.tau3)
    m = connection_matrix(phi, *sources)
    bar = connection_action(gamma_bar, m)
    n = dim_of(3)
    grad_phi = connection_action(gamma, m[:, :n])
    alts = alternate(np.concatenate((grad_phi, bar[:, n:]), axis=1), (3, 2, 2, 3)).reshape(4, -1)
    nabla_bar_phi = max_abs(bar[:, :n])
    if not nabla_bar_phi <= bound(1e-9, max_abs(gamma)):
        raise ValueError(f"canonical connection does not annihilate phi (residual {nabla_bar_phi:.3g})")
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
        nabla_bar_tau2=bar[:, n + dim_of(2) : n + 2 * dim_of(2)],
        ricci_terms=terms,
        ricci_derivs={
            "exterior": [invariant_d(mats, a) for a in sources],
            "canonical": [Form(3, alts[1]), Form(3, alts[2]), Form(4, alts[3])],
        },
    )


# --- the generalized Ricci formula, one route at a time ---------------------------


def loop_ricci_rows(route: str, derivs, terms: dict, ks) -> np.ndarray:
    """The route's generalized Ricci right-hand sides, one Lambda^3_27 row per
    k in ks: the terms stacked in table order, each row their coefficient-
    weighted sum over 6 added left to right, then projected row by row."""
    d_t1_w, d_tau2, d_tau3 = derivs
    exact = d_tau2.exact
    forms = {**terms, "d*(tau1^*phi)": d_t1_w, "d tau2": d_tau2, "*d tau3": hodge(d_tau3)}
    stack = np.array([forms[name].coeffs for name, *_ in RICCI_TABLE])  # (term, 35)
    coeffs = np.array([row[1 + RICCI_ROUTES.index(route)] for row in RICCI_TABLE])  # (term, 2)
    weights = as_mode(np.dot(ks, coeffs.T), exact) / 6
    total = (weights[:, :, None] * stack).sum(axis=1)  # (k, 35), term by term
    p27 = projector_matrix(3, 27, exact)
    return np.array([p27.dot(row) for row in total])


# --- the closed-structure chain, one weighting at a time ---------------------------


def loop_split_v14(gamma, tol: float = 1e-9):
    """`g2lab.g2_algebra.split_v14` one part at a time: project wedge3(gamma)
    onto Lambda^3_d, pull it back by the adjoint of wedge3 and divide by
    SPLIT_V14_CONSTANTS[d].  The Lambda^2_14 gate is relative to the largest
    entry of gamma."""
    if not max_abs(gamma.array.dot(projector_matrix(2, 14, gamma.exact).T) - gamma.array) <= bound(
        tol, max_abs(gamma.array)
    ):
        raise ValueError("slices of gamma are not in Lambda^2_14")
    w = wedge3(gamma)
    parts = {}
    for d, c in SPLIT_V14_CONSTANTS.items():
        wd = project(w, (3, d))
        parts[d] = (1 / scalar(c, gamma.exact)) * mixed_project_14(frame_interior(wd))
    g64 = gamma - parts[27] - parts[7]
    return g64, parts[27], parts[7]


CLOSED_RICCI_CHECKS = tuple(
    (f"closed: Ricci formula, k={k}", f"closed: Ricci norm identity, k={k}") for k in K_VALUES
)
#: flat positions of the entries (i, t, j), i < j, of a 7 x 7 x 7 array: rows
#: the pairs, columns t
TERM2_ENTRIES = (_PAIR_I[:, None] * DIM + np.arange(DIM)) * DIM + _PAIR_J[:, None]


def loop_closed_structure_checks(report, geo, dec):
    """The closed chain of `g2lab.homogeneous.analyze` one weighting k at a
    time, with the split of nabla-bar tau one part at a time (`loop_split_v14`),
    delta phi through the codifferential and tau^3 as (tau ^ tau) ^ tau."""
    t = geo.torsion
    dtau, dbar_tau = geo.ricci_derivs["exterior"][1], geo.ricci_derivs["canonical"][1]
    star_tt = geo.ricci_terms["*(tau2^tau2)"]
    tau = t.tau2
    tau_n = tau.norm2()
    phi = geo.phi
    exact = geo.exact
    one = scalar(1, exact)
    p3, _ = phi_arrays(exact)

    nb_tau = nabla_bar_tau(geo)
    g64, g27, g7 = loop_split_v14(nb_tau)

    # d^nabla-bar tau = d tau - *(tau^tau)/6 - |tau|^2 phi / 6
    rhs = dtau - one / 6 * star_tt - one / 6 * tau_n * phi

    # the inner-product chain around *d(tau^3); *d(tau^3) is 0 on every
    # unimodular algebra, so each inner product is also judged against its
    # Cauchy-Schwarz bound, which grows like |tau|^4
    star_d_tau3 = hodge(geo.d(wedge(wedge(tau, tau), tau))).coeffs[0]
    star_tt27 = project(star_tt, (3, 27))
    lhs_a = star_d_tau3 / 3
    lhs_b = form_inner(dtau, star_tt)
    lhs_c = form_inner(dbar_tau, star_tt27)  # <dbar tau, *(tau^tau)_27>

    def norm(form) -> float:
        return float(form.norm2()) ** 0.5

    scale_ab = max(abs(float(lhs_a)), norm(dtau) * norm(star_tt))
    scale_bc = max(scale_ab, norm(dbar_tau) * norm(star_tt27))

    # closed-case Ricci formula and norms
    r = geo.curvature
    s_g, ric0g, ric0p = dec.s, dec.ric0, dec.ric0_phi
    dbar_tau_n = dbar_tau.norm2()
    ric0ks, formula_residuals, norm_checks = [], [], []
    for k in K_VALUES:
        ric0k = k[0] * ric0g + k[1] * ric0p
        k_dbar, k_tt = k[0] - 4 * k[1], k[0] + 5 * k[1]
        rhs_c = -k_dbar * dbar_tau + one / 3 * k_tt * star_tt27
        ric0ks.append(ric0k)
        formula_residuals.append(lambda3(ric0k).coeffs - rhs_c.coeffs)
        n_pred = (
            one / 2 * k_dbar**2 * dbar_tau_n
            + one / 21 * k_tt**2 * tau_n**2
            - one / 3 * k_tt * k_dbar * lhs_c
        )
        n_true = (ric0k * ric0k).sum()
        norm_checks.append((abs(float(n_pred - n_true)), abs(float(n_true))))

    # contraction of the curvature against phi at the pairs i < j (rows) and t:
    # R_ijab phi_abt = (dbar tau)_ijt - nabla-bar_t tau_ij
    #                  + (tau_pq tau_pt phi_qij - tau_ip tau_jq phi_pqt)/6
    b = _iphi_matrix(exact)  # b[t, ab] = phi_abt
    lhs40 = 2 * r.mat.dot(b.T)  # the sum over a < b, doubled
    tau_arr = to_antisym(tau).array
    term1 = b.T.dot(tau_arr.T.dot(tau_arr))  # phi_qij (tau_pq tau_pt)
    # term2_ijt = tau_ip phi_pqt tau_jq, as (i, t, j): the reshapes and products of np.tensordot
    tp = tau_arr.dot(p3.reshape(DIM, DIM * DIM)).reshape(DIM, DIM, DIM).transpose(0, 2, 1)
    term2 = tp.reshape(DIM * DIM, DIM).dot(tau_arr.T).reshape(-1).take(TERM2_ENTRIES)
    rhs40 = (frame_interior(dbar_tau).T - nb_tau.array.T) + (term1 - term2) / 6

    residuals = iter(
        max_abs_each(
            np.concatenate(([t.tau0], t.tau1.coeffs, t.tau3.coeffs)),
            geo.delta(phi).coeffs - tau.coeffs,
            geo.xi.cyclic_sum(),
            g7.array,
            dbar_tau.coeffs - rhs.coeffs,
            np.concatenate((project(dbar_tau, (3, 1)).coeffs, project(dbar_tau, (3, 7)).coeffs)),
            *(a for pair in zip(formula_residuals, ric0ks) for a in pair),
            dbar_tau.coeffs,
            lhs40 - rhs40,
            lhs40,
        )
    )
    # every check is judged against the size of what it compares
    report.add(
        "closed: torsion reduces to tau2",
        next(residuals),
        max_abs([t.tau0], t.tau1.coeffs, tau.coeffs, t.tau3.coeffs),
    )
    report.add(
        "closed: delta phi = tau", next(residuals), max(max_abs(geo.dstarphi.coeffs), max_abs(tau.coeffs))
    )
    report.add("closed: cyclic identity for xi", next(residuals), max_abs(geo.xi.xi))
    dbar_size = max_abs(dbar_tau.coeffs)
    report.add("closed: nabla-bar tau has no 7-part", next(residuals), max_abs(nb_tau.array))
    report.add(
        "closed: canonical-derivative identity for d tau",
        next(residuals),
        max(dbar_size, max_abs(rhs.coeffs)),
        slack=10,
    )
    report.add("closed: d^nabla-bar tau lands in Lambda^3_27", next(residuals), dbar_size, slack=10)
    report.add(
        "closed: *d(tau^3)/3 = <d tau, *(tau^tau)>", abs(float(lhs_a - lhs_b)), scale_ab, slack=10
    )
    report.add(
        "closed: <d tau, *(tau^tau)> = <dbar tau, *(tau^tau)_27>",
        abs(float(lhs_b - lhs_c)),
        scale_bc,
        slack=10,
    )
    for (formula, norm_identity), (n_residual, n_scale) in zip(CLOSED_RICCI_CHECKS, norm_checks):
        residual = next(residuals)
        report.add(formula, residual, next(residuals), slack=10)
        report.add(norm_identity, n_residual, n_scale, slack=10)

    report.add(
        "closed: scalar curvature = -|tau|^2 / 2", abs(float(s_g + tau_n / 2)), abs(float(s_g))
    )

    # extremally pinched Ricci predicate: d^nabla-bar tau = 0 iff
    # ||Ric0||^2 = 4/21 s^2; report both sides
    epr_lhs = float(dec.ric0_norm2)
    epr_rhs = float(4 * s_g * s_g / 21)
    is_epr = next(residuals) <= bound(1e-8, float(tau_n))
    if is_epr:
        report.add(
            "closed: EPR norm identity (dbar tau = 0)", abs(epr_lhs - epr_rhs), epr_rhs, slack=10
        )
    report.summary["extremally_pinched"] = bool(is_epr)
    report.summary["epr_identity"] = (epr_lhs, epr_rhs)

    # closed case: the 64-block norm is tied to the canonical derivative
    w64_n = dec.norm2s["W64"]
    report.add(
        "closed: ||W64||^2 = ||(nabla-bar tau)_64||^2 / 3",
        abs(float(w64_n - g64.tensor_norm2() / 3)),
        float(w64_n),
        slack=10,
    )
    # parallel-torsion characterisation: nabla-bar tau = 0 iff EPR and W64 = 0
    nb_norm = float(nb_tau.tensor_norm2())
    report.summary["parallel_torsion"] = bool(nb_norm <= bound(1e-12, float(tau_n)))

    residual = next(residuals)
    report.add(
        "closed: curvature contraction identity (componentwise)", residual, next(residuals), slack=10
    )

    # the squared identity with the *d(tau^3) term evaluated explicitly
    lhs41 = 2 * (lhs40 * lhs40).sum()  # the (i, j) and (j, i) entries
    rhs41 = (
        3 * w64_n
        + scalar(40, exact) / 7 * dec.ric0_norm2
        - scalar(13, exact) / 147 * s_g * s_g
        + scalar(34, exact) / 63 * star_d_tau3
    )
    report.add(
        "closed: squared contraction identity",
        abs(float(lhs41 - rhs41)),
        abs(float(lhs41)),
        slack=10,
    )


# --- warped products -----------------------------------------------------------------


def einstein_warp_check(f, rho: float, rho_star: float) -> tuple:
    """Residuals of (f')^2 + rho f^2 = rho* and f'' + rho f = 0 for a warp jet f."""
    r1 = f.d1**2 + rho * f.value**2 - rho_star
    r2 = f.d2 + rho * f.value
    return (r1, r2)


# --- residuals only the tests read ------------------------------------------------


def bianchi_residual(r) -> float:
    """max |b(R)| of an algebraic curvature tensor."""
    return max_abs(bianchi_b(r))


def cyclic_residual(xi) -> float:
    """Residual of xi_ijk + xi_jki + xi_kij = 0 (closed structures) of an
    `IntrinsicTorsion`."""
    return max_abs(xi.cyclic_sum())
