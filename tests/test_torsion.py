"""Structure-equation torsion: extraction, recomposition, classification."""

import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from g2lab import _linalg, torsion
from g2lab._linalg import as_mode, max_abs, pinv, scalar
from g2lab.exterior_algebra import (
    Form,
    form_inner,
    hodge,
    standard_phi,
    standard_phi_dual,
    to_antisym,
    wedge,
    wedge_phi_matrix,
)
from g2lab.g2_algebra import (
    odot_bracket,
    project,
    projector_matrix,
    quad_A,
    quad_B,
    sigma_contract,
    sym2_from_27,
)
from g2lab.homogeneous import K_VALUES
from g2lab.torsion import (
    RICCI_ROUTES,
    TorsionComponents,
    conformal_transform,
    extract_torsion,
    fg_type,
    intrinsic_from_torsion,
    recompose,
    ricci_rows,
    ricci_terms,
    scalar_from_torsion,
    xi_from_xibar,
)
from reference import (
    closed_identities,
    cyclic_residual,
    differential_from_xibar,
    loop_ricci_rows,
    random_torsion,
    xibar_from_xi,
)

PHI = standard_phi()


def torsion_distance(a: TorsionComponents, b: TorsionComponents) -> float:
    return max(
        abs(float(a.tau0 - b.tau0)),
        max_abs(a.tau1.coeffs - b.tau1.coeffs),
        max_abs(a.tau2.coeffs - b.tau2.coeffs),
        max_abs(a.tau3.coeffs - b.tau3.coeffs),
    )


def test_component_degree_validation():
    with pytest.raises(ValueError):
        TorsionComponents(0.0, Form.zero(2), Form.zero(2), Form.zero(3))


def test_recompose_nearly_parallel():
    t = TorsionComponents(1.0, Form.zero(1), Form.zero(2), Form.zero(3))
    dphi, dstar = recompose(t)
    np.testing.assert_allclose(dphi.coeffs, standard_phi_dual().coeffs)
    assert max_abs(dstar.coeffs) == 0.0


def test_recompose_type_four():
    e7 = Form.basis((7,))
    t = TorsionComponents(0.0, e7, Form.zero(2), Form.zero(3))
    dphi, dstar = recompose(t)
    np.testing.assert_allclose(dphi.coeffs, (3 * wedge(e7, PHI)).coeffs)
    np.testing.assert_allclose(
        dstar.coeffs, (4 * wedge(e7, standard_phi_dual())).coeffs
    )


def test_recompose_rejects_bad_membership():
    bad = TorsionComponents(0.0, Form.zero(1), Form.basis((1, 7)), Form.zero(3))
    with pytest.raises(ValueError):
        recompose(bad)


def test_extraction_round_trip():
    for seed in range(100):
        t = random_torsion(seed)
        dphi, dstar = recompose(t)
        back = extract_torsion(PHI, dphi, dstar)
        assert torsion_distance(t, back) < 1e-10


def test_extract_zero_is_parallel():
    t = extract_torsion(PHI, Form.zero(4), Form.zero(5))
    assert torsion_distance(t, TorsionComponents.zero()) == 0.0


def test_extract_forced_tau0():
    t = extract_torsion(PHI, 4 * standard_phi_dual(), Form.zero(5))
    assert abs(t.tau0 - 4.0) < 1e-12
    assert max_abs(t.tau1.coeffs) < 1e-12
    assert max_abs(t.tau2.coeffs) < 1e-12
    assert max_abs(t.tau3.coeffs) < 1e-12


def test_extract_rejects_garbage():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        extract_torsion(
            PHI, Form(4, rng.normal(size=35)), Form(5, rng.normal(size=21))
        )


def test_extract_rejects_nonstandard_phi():
    t = random_torsion(1)
    dphi, dstar = recompose(t)
    with pytest.raises(ValueError):
        extract_torsion(2 * PHI, dphi, dstar)


def test_fg_type_cases():
    assert fg_type(TorsionComponents(4.0, Form.zero(1), Form.zero(2), Form.zero(3))) == {1}
    assert fg_type(
        TorsionComponents(0.0, Form.basis((7,)), Form.zero(2), Form.zero(3))
    ) == {4}
    assert fg_type(TorsionComponents.zero()) == frozenset()
    t = random_torsion(3)
    assert fg_type(t) == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        fg_type(t, eps=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fg_type_rejects_non_finite_norms(bad):
    # a NaN norm would otherwise compare as zero and read as parallel
    with pytest.raises(ValueError, match="not finite"):
        fg_type(TorsionComponents(bad, Form.zero(1), Form.zero(2), Form.zero(3)))
    tau3 = Form.zero(3).coeffs.copy()
    tau3[0] = bad
    with pytest.raises(ValueError, match="not finite"):
        fg_type(TorsionComponents(0.0, Form.zero(1), Form.zero(2), Form(3, tau3)))


# --- packed structure equations against the Form-by-Form chain ----------------------
# The chain extract_torsion and recompose computed before the packed matrices:
# projections, pseudo-inverses and wedges one Form at a time.


@functools.cache
def chain_inverses(exact):
    w1 = as_mode(wedge_phi_matrix(1), exact)
    w2 = as_mode(wedge_phi_matrix(2), exact)
    return pinv(w1), projector_matrix(2, 14, exact).dot(pinv(w2))


def chain_extract(dphi, dstarphi):
    exact = dphi.exact
    w1_pinv, w2_pinv = chain_inverses(exact)
    return TorsionComponents(
        form_inner(dphi, standard_phi_dual(exact)) / 7,
        Form(1, w1_pinv.dot(project(dphi, (4, 7)).coeffs) / 3),
        Form(2, w2_pinv.dot(project(dstarphi, (5, 14)).coeffs)),
        hodge(project(dphi, (4, 27))),
    )


def chain_recompose(t):
    phi = standard_phi(t.exact)
    starphi = hodge(phi)
    dphi = t.tau0 * starphi + 3 * wedge(t.tau1, phi) + hodge(t.tau3)
    dstarphi = 4 * wedge(t.tau1, starphi) + wedge(t.tau2, phi)
    return dphi, dstarphi


def chain_membership(t):
    return max_abs(
        project(t.tau2, (2, 14)).coeffs - t.tau2.coeffs,
        project(t.tau3, (3, 27)).coeffs - t.tau3.coeffs,
    )


def torsion_arrays(t):
    return [np.array([t.tau0], dtype=object if t.exact else float), t.tau1.coeffs, t.tau2.coeffs, t.tau3.coeffs]


def assert_float_close(got, want):
    for a, b in zip(got, want):
        assert max_abs(a - b) <= 1e-14 * max(1.0, max_abs(b))


def exact_torsion(seed):
    """A quadruple of small rationals with tau2, tau3 in their subspaces."""
    rng = np.random.default_rng(seed)

    def ints(n):
        return as_mode(rng.integers(-5, 6, size=n), True)

    return TorsionComponents(
        Fraction(int(rng.integers(-5, 6)), 3),
        Form(1, ints(7)),
        Form(2, projector_matrix(2, 14, True).dot(ints(21))),
        Form(3, projector_matrix(3, 27, True).dot(ints(35))),
    )


def test_packed_structure_equations_match_the_chain_in_float():
    for seed in range(50):
        t = random_torsion(seed)
        dphi, dstar = recompose(t)
        want_d, want_s = chain_recompose(t)
        assert_float_close([dphi.coeffs, dstar.coeffs], [want_d.coeffs, want_s.coeffs])
        # extraction from the chain's differentials
        got = extract_torsion(PHI, want_d, want_s)
        assert_float_close(torsion_arrays(got), torsion_arrays(chain_extract(want_d, want_s)))
        assert t.membership_residual() <= 1e-14 and chain_membership(t) <= 1e-14
    # quadruples off the subspaces: both residuals see the same distance
    for bad in (
        TorsionComponents(0.0, Form.zero(1), Form.basis((1, 7)), Form.zero(3)),
        TorsionComponents(0.0, Form.zero(1), Form.zero(2), Form.basis((1, 2, 3))),
    ):
        assert bad.membership_residual() > 0.1
        assert abs(bad.membership_residual() - chain_membership(bad)) <= 1e-14


def test_packed_structure_equations_match_the_chain_exactly():
    for seed in range(3):
        t = exact_torsion(seed)
        dphi, dstar = recompose(t)
        want_d, want_s = chain_recompose(t)
        assert list(dphi.coeffs) == list(want_d.coeffs) and list(dstar.coeffs) == list(want_s.coeffs)
        assert all(isinstance(x, Fraction) for x in list(dphi.coeffs) + list(dstar.coeffs))
        got = extract_torsion(standard_phi(True), dphi, dstar)
        for a, b, c in zip(torsion_arrays(got), torsion_arrays(chain_extract(dphi, dstar)), torsion_arrays(t)):
            assert list(a) == list(b) == list(c)
            assert all(isinstance(x, Fraction) for x in a)
        assert t.membership_residual() == 0.0 == chain_membership(t)


@pytest.mark.parametrize("exact", [False, True])
def test_extraction_rows_equal_the_pseudo_inverse_composition(exact):
    w1_pinv, w2_pinv = chain_inverses(exact)
    want_1 = w1_pinv.dot(projector_matrix(4, 7, exact)) / 3
    want_2 = w2_pinv.dot(projector_matrix(5, 14, exact))
    extract = torsion._structure_tables(exact)[0]
    got_1, got_2 = extract[1:8, :35], extract[8:29, 35:]
    if exact:
        assert np.array_equal(got_1, want_1) and np.array_equal(got_2, want_2)
        assert all(isinstance(x, Fraction) for x in np.concatenate((got_1.flat, got_2.flat)))
    else:
        assert max_abs(got_1 - want_1, got_2 - want_2) <= 1e-15


def test_no_numerical_inverse_builds_the_tables_or_inverts_lambda3(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "g2lab":
            for name in ("pinv", "inv_exact"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.setattr(np.linalg, "pinv", counted("np.linalg.pinv", np.linalg.pinv))
    torsion._structure_tables.cache_clear()
    for exact in (True, False):
        torsion._structure_tables(exact)
        a = projector_matrix(3, 27, exact).dot(as_mode(np.arange(35) % 5 - 2, exact))
        sym2_from_27(Form(3, a))
    assert calls == []
    _linalg.pinv(as_mode(np.eye(2), True))  # the counters do see a call
    assert calls == ["pinv", "inv_exact"]


def test_extraction_gates_in_order():
    dphi, dstar = recompose(random_torsion(2))
    with pytest.raises(ValueError, match="standard three-form"):
        extract_torsion(2 * PHI, Form.zero(5), Form.zero(4))
    with pytest.raises(ValueError, match="degrees"):
        extract_torsion(PHI, dstar, dphi)
    nan_d = Form(4, dphi.coeffs.copy())
    nan_d.coeffs[3] = math.nan
    with pytest.raises(ValueError, match="irreducible subspaces"):
        extract_torsion(PHI, nan_d, dstar)
    with pytest.raises(ValueError, match="not generated"):
        extract_torsion(PHI, dphi, dstar + Form.basis((1, 2, 3, 4, 5)))


# --- intrinsic torsion -------------------------------------------------------------


def test_xibar_trace_piece():
    t = TorsionComponents(2.0, Form.zero(1), Form.zero(2), Form.zero(3))
    xi = intrinsic_from_torsion(t)
    np.testing.assert_allclose(xi.xi_bar, -1.0 * np.eye(7))


def test_xi_xibar_round_trip():
    t = random_torsion(5)
    xi = intrinsic_from_torsion(t)
    np.testing.assert_allclose(xibar_from_xi(xi.xi), xi.xi_bar, atol=1e-12)
    np.testing.assert_allclose(xi_from_xibar(xi.xi_bar), xi.xi, atol=1e-12)


def test_xi_zero_for_parallel():
    xi = intrinsic_from_torsion(TorsionComponents.zero())
    assert max_abs(xi.xi) == 0.0


def test_xibar_piece_projections():
    """Re-projecting xibar recovers the four pieces of the dictionary."""
    from g2lab.exterior_algebra import from_antisym

    t = random_torsion(8)
    xibar = intrinsic_from_torsion(t).xi_bar
    sym = (xibar + xibar.T) / 2
    antisym_form = from_antisym((xibar - xibar.T) / 2, 2)

    assert abs(np.trace(xibar) + 7 * t.tau0 / 2) < 1e-12
    sym0 = sym - np.eye(7) * np.trace(sym) / 7
    np.testing.assert_allclose(sym0, sigma_contract(t.tau3) / 2, atol=1e-10)
    np.testing.assert_allclose(
        project(antisym_form, (2, 14)).coeffs, t.tau2.coeffs, atol=1e-10
    )
    seven_piece = hodge(wedge(t.tau1, standard_phi_dual()))
    np.testing.assert_allclose(
        project(antisym_form, (2, 7)).coeffs, 2 * seven_piece.coeffs, atol=1e-10
    )


def dyadic_torsion(seed: int) -> TorsionComponents:
    """An exact quadruple from dyadic draws, projected onto Lambda^2_14 and Lambda^3_27."""
    rng = np.random.default_rng(seed)

    def dyadic(n):
        return as_mode(np.round(rng.normal(size=n) * 16) / 16, True)

    return TorsionComponents(
        dyadic(1)[0],
        Form(1, dyadic(7)),
        Form(2, projector_matrix(2, 14, True).dot(dyadic(21))),
        Form(3, projector_matrix(3, 27, True).dot(dyadic(35))),
    )


def test_intrinsic_matches_structure_equations():
    """The assembled xibar regenerates (d phi, d *phi) through grad = alt(d)."""
    for seed in range(10):
        t = random_torsion(seed)
        xibar = intrinsic_from_torsion(t).xi_bar
        d1, d2 = differential_from_xibar(xibar)
        r1, r2 = recompose(t)
        assert max_abs(d1.coeffs - r1.coeffs) < 1e-11
        assert max_abs(d2.coeffs - r2.coeffs) < 1e-11
    for seed in range(3):
        t = dyadic_torsion(seed)
        assert max_abs(t.tau2.coeffs) > 0 and max_abs(t.tau3.coeffs) > 0
        d1, d2 = differential_from_xibar(intrinsic_from_torsion(t).xi_bar)
        r1, r2 = recompose(t)
        for got, want in ((d1.coeffs, r1.coeffs), (d2.coeffs, r2.coeffs)):
            assert set(map(type, got)) == {Fraction}
            assert np.array_equal(got, want)


def test_closed_cyclic_identity():
    q14 = projector_matrix(2, 14)
    rng = np.random.default_rng(4)
    t = TorsionComponents(
        0.0, Form.zero(1), Form(2, q14.dot(rng.normal(size=21))), Form.zero(3)
    )
    xi = intrinsic_from_torsion(t)
    assert cyclic_residual(xi) < 1e-12
    # generic torsion does not satisfy it
    assert cyclic_residual(intrinsic_from_torsion(random_torsion(4))) > 0.1


# --- scalar curvature and closed identities -------------------------------------------


def test_scalar_from_torsion_values():
    t = TorsionComponents(4.0, Form.zero(1), Form.zero(2), Form.zero(3))
    assert scalar_from_torsion(t, 0.0) == 42.0
    q14 = projector_matrix(2, 14)
    tau = Form(2, q14.dot(np.random.default_rng(0).normal(size=21)))
    t = TorsionComponents(0.0, Form.zero(1), tau, Form.zero(3))
    assert abs(scalar_from_torsion(t, 0.0) + tau.norm2() / 2) < 1e-12
    assert scalar_from_torsion(TorsionComponents.zero(), 0.0) == 0.0


def test_closed_identities_hand_example():
    tau = Form.from_terms(2, {(1, 2): 1, (3, 4): -1})
    report = closed_identities(tau)
    for name, res in report.items():
        assert res < 1e-12, name
    # frozen hand values: *(tau^tau^phi) = -2 with |tau|^2 = 2 (form norm)
    assert abs(hodge(wedge(wedge(tau, tau), PHI)).coeffs[0] + 2.0) < 1e-13


def test_closed_identities_random():
    q14 = projector_matrix(2, 14)
    for seed in range(20):
        tau = Form(2, q14.dot(np.random.default_rng(seed).normal(size=21)))
        for name, res in closed_identities(tau).items():
            assert res < 1e-9 * max(tau.norm2() ** 2, 1), name


def test_closed_identities_zero_and_reject():
    assert all(v == 0 for v in closed_identities(Form.zero(2)).values())
    with pytest.raises(ValueError):
        closed_identities(Form.basis((1, 2)))


# --- conformal rescaling ----------------------------------------------------------------


def test_conformal_identity():
    t = random_torsion(2)
    assert torsion_distance(conformal_transform(t, 0.0), t) == 0.0


def test_conformal_pure_tau0():
    t = TorsionComponents(3.0, Form.zero(1), Form.zero(2), Form.zero(3))
    out = conformal_transform(t, 0.5)
    assert abs(out.tau0 - 3.0 * math.exp(-0.5)) < 1e-14


def test_conformal_parallel_becomes_type_four():
    df = Form.basis((3,))
    out = conformal_transform(TorsionComponents.zero(), 0.7, df)
    assert fg_type(out) == {4}


def test_conformal_weights_and_type_stability():
    t = random_torsion(9)
    out = conformal_transform(t, 0.3)
    e = math.exp(0.3)
    np.testing.assert_allclose(out.tau2.coeffs, e * t.tau2.coeffs)
    np.testing.assert_allclose(out.tau3.coeffs, e * e * t.tau3.coeffs)
    assert fg_type(out) == fg_type(t)
    with pytest.raises(ValueError):
        conformal_transform(t, 0.0, Form.basis((1, 2)))


def test_recompose_output_splits_by_irreducible_type():
    # the three summands of d phi land in the 1, 7, 27 pieces respectively
    for seed in range(10):
        t = random_torsion(seed)
        dphi, _ = recompose(t)
        p1 = project(dphi, (4, 1))
        p7 = project(dphi, (4, 7))
        p27 = project(dphi, (4, 27))
        np.testing.assert_allclose(
            p1.coeffs, (t.tau0 * standard_phi_dual()).coeffs, atol=1e-12
        )
        np.testing.assert_allclose(
            p7.coeffs, (3 * wedge(t.tau1, PHI)).coeffs, atol=1e-11
        )
        np.testing.assert_allclose(p27.coeffs, hodge(t.tau3).coeffs, atol=1e-11)


# --- the generalized Ricci formula ---------------------------------------------------
# The two routes as hand-written sums, the form they had before the coefficient
# table; the exterior one keeps its summation order, which `ricci_rows` must
# reproduce bit for bit in float.


def ricci_rhs_exterior_reference(t, d_star_t1_wstar, d_tau2, d_tau3, k):
    k1, k2 = k
    starphi = hodge(standard_phi(t.exact))
    t1_w = hodge(wedge(t.tau1, starphi))
    rhs = (
        -(5 * k1 + 4 * k2) * d_star_t1_wstar
        + 2 * (5 * k1 + 4 * k2) * wedge(t.tau1, t1_w)
        - (k1 - 4 * k2) * d_tau2
        + scalar(1, t.exact) / 2 * (k1 + 2 * k2) * hodge(wedge(t.tau2, t.tau2))
        + (k1 + 4 * k2) * hodge(d_tau3)
        + k2 * quad_A(t.tau3)
        + scalar(1, t.exact) / 2 * k1 * quad_B(t.tau3)
        - scalar(1, t.exact) / 2 * (k1 - 4 * k2) * (t.tau0 * t.tau3)
        + (k1 - 4 * k2) * wedge(t.tau1, t.tau2)
        + (3 * k1 - 4 * k2) * hodge(wedge(t.tau1, t.tau3))
        + 2 * k2 * project(odot_bracket(t.tau2, t.tau3), (3, 27))
    )
    return project(rhs, (3, 27))


def ricci_rhs_canonical_reference(t, dbar_star_t1_wstar, dbar_tau2, dbar_tau3, k):
    k1, k2 = k
    one = scalar(1, t.exact)
    starphi = hodge(standard_phi(t.exact))
    t1_w = hodge(wedge(t.tau1, starphi))
    rhs = (
        -(5 * k1 + 4 * k2) * dbar_star_t1_wstar
        - 2 * one / 3 * (5 * k1 + 4 * k2) * wedge(t.tau1, t1_w)
        - (k1 - 4 * k2) * dbar_tau2
        + one / 3 * (k1 + 5 * k2) * hodge(wedge(t.tau2, t.tau2))
        + (k1 + 4 * k2) * hodge(dbar_tau3)
        - one / 6 * (k1 - 2 * k2) * (quad_A(t.tau3) - 2 * quad_B(t.tau3))
        - 2 * one / 3 * (k1 - 2 * k2) * (t.tau0 * t.tau3)
        - 4 * one / 3 * (k1 + 2 * k2) * wedge(t.tau1, t.tau2)
        + 2 * one / 3 * (k1 - 4 * k2) * hodge(wedge(t.tau1, t.tau3))
        + one / 6 * (k1 + 8 * k2) * project(odot_bracket(t.tau2, t.tau3), (3, 27))
    )
    return project(rhs, (3, 27))


RICCI_REFERENCES = {
    "exterior": ricci_rhs_exterior_reference,
    "canonical": ricci_rhs_canonical_reference,
}


def ricci_inputs(seed: int, exact: bool = False):
    """random_torsion(seed) and random derivative inputs (3-, 3-, 4-form)."""
    t = random_torsion(seed)
    rng = np.random.default_rng([seed, 1])
    derivs = [Form(d, rng.normal(size=35)) for d in (3, 3, 4)]
    if exact:
        t = TorsionComponents(
            scalar(t.tau0, True),
            *(Form(f.degree, as_mode(f.coeffs, True)) for f in (t.tau1, t.tau2, t.tau3)),
        )
        derivs = [Form(f.degree, as_mode(f.coeffs, True)) for f in derivs]
    return t, derivs


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("route", RICCI_ROUTES)
@pytest.mark.parametrize("k", K_VALUES + ((3, 7),))
def test_ricci_rhs_matches_the_hand_written_routes(route, k, exact):
    for seed in range(2 if exact else 6):
        t, derivs = ricci_inputs(seed, exact)
        ref = RICCI_REFERENCES[route](t, *derivs, k)
        got = ricci_rows({route: derivs}, ricci_terms(t), (k,))[0, 0]
        if exact:
            assert set(map(type, got)) == {Fraction} and list(got) == list(ref.coeffs)
            continue
        if route == "exterior":  # same terms in the same order
            np.testing.assert_array_equal(got, ref.coeffs)
        assert max_abs(got - ref.coeffs) <= 1e-14 * max(1.0, max_abs(ref.coeffs))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("route", RICCI_ROUTES)
def test_stacked_ricci_rows_equal_ricci_rhs_per_k(route, exact):
    ks = K_VALUES + ((3, 7),)
    for seed in range(2 if exact else 6):
        t, derivs = ricci_inputs(seed, exact)
        terms = ricci_terms(t)
        rows = ricci_rows({route: derivs}, terms, ks)[0]
        assert rows.shape == (len(ks), 35)
        for row, k in zip(rows, ks):
            want = ricci_rows({route: derivs}, terms, (k,))[0, 0]
            ref = RICCI_REFERENCES[route](t, *derivs, k).coeffs
            if exact:
                assert set(map(type, row)) == {Fraction}
                assert list(row) == list(want) == list(ref)
                continue
            np.testing.assert_array_equal(row, want)  # bit for bit
            if route == "exterior":
                np.testing.assert_array_equal(row, ref)
            assert max_abs(row - ref) <= 1e-14 * max(1.0, max_abs(ref))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_two_route_ricci_rows_equal_the_per_route_loop(exact):
    # one call for both routes and every k gives, per route, the rows of the
    # per-route loop: bit for bit in float, the same Fractions in exact mode
    ks = K_VALUES + ((3, 7),)
    for seed in range(2 if exact else 6):
        t, derivs = ricci_inputs(seed, exact)
        other = [3 * f for f in derivs]
        terms = ricci_terms(t)
        rows = ricci_rows(dict(zip(RICCI_ROUTES, (derivs, other))), terms, ks)
        assert rows.shape == (2, len(ks), 35)
        for got, route, d in zip(rows, RICCI_ROUTES, (derivs, other)):
            want = loop_ricci_rows(route, d, terms, ks)
            if exact:
                assert set(map(type, got.flat)) == {Fraction} and np.array_equal(got, want)
            else:
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("route", RICCI_ROUTES)
def test_weyl_ricci_ignores_the_tau1_derivative(route):
    t, (d_a, d_tau2, d_tau3) = ricci_inputs(4)
    terms = ricci_terms(t)
    other = Form(3, 1e3 * np.random.default_rng(9).normal(size=35))
    for k, ignored in (((4, -5), True), ((1, 0), False)):
        a = ricci_rows({route: (d_a, d_tau2, d_tau3)}, terms, (k,))[0, 0]
        b = ricci_rows({route: (other, d_tau2, d_tau3)}, terms, (k,))[0, 0]
        assert np.array_equal(a, b) == ignored
