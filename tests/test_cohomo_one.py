"""Warped products and cohomogeneity-one fibers: jets, two-route torsion."""

import contextlib
import functools
import io
import math
import sys

import dict_engine as ref
import numpy as np
import pytest

from g2lab import cohomo_one as co
from g2lab import exterior_algebra
from g2lab._linalg import max_abs
from g2lab.cli import main
from g2lab.cohomo_one import (
    LEIBNIZ,
    CohomSpec,
    Jet,
    ProductForm,
    WarpSpec,
    cohom_torsion,
    delta_tau1,
    flag_model,
    holonomy_residual,
    holonomy_triple,
    jet_product,
    jet_profile,
    jet_var,
    nearly_kahler_model,
    ricW_vanishes,
    scalar_curvature_warped,
    sweep_grid,
    theta_family,
    type_sweep,
    warped_phi,
    warped_torsion,
)
from g2lab.exterior_algebra import (
    Form,
    hodge,
    interior,
    standard_phi,
    wedge,
)
from g2lab.torsion import TorsionComponents, conformal_transform, fg_type
from reference import einstein_warp_check, wedge_all

T0 = 1.1


# --- jets -------------------------------------------------------------------------


def test_jet_arithmetic_against_closed_forms():
    t = 0.8
    f = jet_var(t).sin() * jet_var(t).exp()  # sin(t) e^t
    assert abs(f.value - math.sin(t) * math.exp(t)) < 1e-14
    assert abs(f.d1 - math.exp(t) * (math.sin(t) + math.cos(t))) < 1e-14
    assert abs(f.d2 - 2 * math.exp(t) * math.cos(t)) < 1e-14

    g = 1 / jet_var(t).cos()  # sec t
    sec, tan = 1 / math.cos(t), math.tan(t)
    assert abs(g.d1 - sec * tan) < 1e-12
    assert abs(g.d2 - sec * (2 * tan**2 + 1)) < 1e-12

    h = jet_var(t).sin().log()
    assert abs(h.d1 - math.cos(t) / math.sin(t)) < 1e-12

    chain = (2 * jet_var(t)).sin()  # sin(2t) via composition
    assert abs(chain.d1 - 2 * math.cos(2 * t)) < 1e-13
    assert abs(chain.d2 + 4 * math.sin(2 * t)) < 1e-13


def test_jet_profiles():
    assert jet_profile("sinh", 0.5).value == math.sinh(0.5)
    assert jet_profile("const:2.5", 9.0).value == 2.5
    assert jet_profile("const:2.5", 9.0).d1 == 0.0
    with pytest.raises(ValueError):
        jet_profile("nope", 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        WarpSpec(Jet.const(-1.0), Jet.const(0.0), 1.0)
    with pytest.raises(ValueError):
        WarpSpec(Jet.const(1.0), Jet.const(0.0), -2.0)
    with pytest.raises(ValueError):
        CohomSpec(Jet.const(1.0), Jet.const(-1.0), Jet.const(1.0), Jet.const(0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_entries(bad):
    good = Jet(1.0, 0.2, 0.1)
    for jet in (Jet(bad), Jet(1.0, bad, 0.0), Jet(1.0, 0.0, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            WarpSpec(jet, good, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            WarpSpec(good, jet, 1.0)
        for i in range(4):
            jets = [good] * 4
            jets[i] = jet
            with pytest.raises(ValueError, match="must be finite"):
                CohomSpec(*jets)
    with pytest.raises(ValueError, match="sigma must be finite"):
        WarpSpec(good, good, bad)


def test_nan_residual_fails_the_gates(monkeypatch):
    # a NaN from the generic route must not pass the two-route comparison
    nan_torsion = TorsionComponents(math.nan, Form.zero(1), Form.zero(2), Form.zero(3))
    warp = WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0)
    cohom = CohomSpec(*holonomy_triple(0.5, 0.5, 0.5), Jet(0.3, 0.5, 0.1))
    monkeypatch.setattr(co._Solve, "generic_torsion", lambda solve, tol=1e-8: nan_torsion)
    with pytest.raises(ValueError, match="disagree"):
        warped_torsion(warp)
    with pytest.raises(ValueError, match="disagree"):
        cohom_torsion(cohom)
    # a NaN holonomy residual is off the locus, not on it
    monkeypatch.undo()
    monkeypatch.setattr(co, "holonomy_residual", lambda *fs: (math.nan, 0.0, 0.0))
    with pytest.warns(UserWarning, match="holonomy condition fails"):
        cohom_torsion(cohom)


# --- fiber models --------------------------------------------------------------------


def test_model_point_dictionary():
    spec = WarpSpec(Jet.const(1.0), Jet.const(0.0), 1.0)
    forms = warped_phi(spec)
    np.testing.assert_allclose(forms.phi_point.coeffs, standard_phi().coeffs)
    np.testing.assert_allclose(
        forms.starphi_point.coeffs, hodge(standard_phi()).coeffs
    )


def test_pointwise_phi_always_standard():
    # any admissible (f, theta, sigma) evaluates to the standard phi
    for spec in (
        WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0),
        WarpSpec(jet_var(T0).exp(), Jet(0.9, 0.4, 0.2), 0.0),
        CohomSpec(*holonomy_triple(0.7, 1.0, 1.2), Jet(0.3, 0.5, 0.1)),
    ):
        forms = warped_phi(spec)
        np.testing.assert_allclose(
            forms.phi_point.coeffs, standard_phi().coeffs, atol=1e-14
        )
        assert abs(forms.phi_point.norm2() - 7.0) < 1e-12


def test_compatibility_at_model_point():
    spec = WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0)
    phi = warped_phi(spec).phi_point
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=7), rng.normal(size=7)
    res = wedge_all(interior(u, phi), interior(v, phi), phi)
    assert abs(res.coeffs[0] - 6 * np.dot(u, v)) < 1e-12


def test_symbolic_star_matches_display():
    # star(phi) computed through the fiber Hodge table equals the displayed
    # (1/2) omega_t^2 + psi_t^- ^ dt
    spec = WarpSpec(jet_var(T0).sin(), Jet(0.4, 0.7, 0.1), 1.0)
    forms = warped_phi(spec)
    s = forms.phi.star()
    index = s.frame.model.tables.index
    assert abs(s.fiber[index["om2"], 0] - 0.5) < 1e-14
    assert abs(s.dt[index["psi+"], 0] - math.sin(0.4)) < 1e-14
    assert abs(s.dt[index["psi-"], 0] - math.cos(0.4)) < 1e-14


def test_d_squared_vanishes_pointwise():
    # value-level d^2 phi = 0 and d^2 *phi = 0 for generic jets, on the
    # reference engine, whose d acts on whole order-2 jets
    for spec in (
        WarpSpec(Jet(0.9, 0.6, -0.3), Jet(0.8, 1.2, 0.4), 1.3),
        CohomSpec(*holonomy_triple(0.6, 0.9, 1.4), Jet(0.5, 0.7, -0.2)),
    ):
        forms = warped_phi(spec)
        th = spec.theta.value
        for base in (forms.phi, forms.starphi):
            dd = ref.to_dict(base).d().d().evaluate(th)
            assert max_abs(dd.coeffs) < 1e-13


def test_fiber_models_closed_under_wedge():
    # the tables are built once per process, so check every entry here: row s
    # is the symbol form, row n + s the symbol ^ e^7, and each column of the
    # star and the wedge, rebuilt over the rows of its degree, is the R^7
    # `hodge` or `wedge` of its rows
    e7 = Form.basis((7,))
    for kind, model in (("NK", nearly_kahler_model(1.0)), ("flag", flag_model())):
        tab = model.tables
        n = len(tab.index)
        fiber = [model.dictionary(s) for s in tab.index]
        rows = fiber + [wedge(form, e7) for form in fiber]
        degrees = np.array([row.degree for row in rows])
        for a, row in enumerate(rows):
            np.testing.assert_array_equal(tab.dictionaries[row.degree][a], row.coeffs)

        def rebuild(column, degree):
            assert not column[degrees != degree].any(), degree
            return Form(degree, column.dot(tab.dictionaries[degree]))

        for a, row in enumerate(rows):
            for b, row2 in enumerate(rows):
                degree = row.degree + row2.degree
                column = tab.wedge[:, a, b]
                if degree > 7:
                    assert not column.any()
                    continue
                got = rebuild(column, degree)
                assert max_abs(got.coeffs - wedge(row, row2).coeffs) < 1e-12, (a, b)
            got = rebuild(tab.star[:, a], 7 - row.degree)
            assert max_abs(got.coeffs - hodge(row).coeffs) < 1e-12, a
        # the fiber blocks against the reference: its own fiber star, and the
        # star and wedge tables it fits in the symbol span by least squares
        star_table, wedge_table = ref.dict_tables(kind)
        for s1 in model.symbols:
            i = tab.index[s1]
            got = rebuild(tab.star[:, i], 7 - model.degree(s1))
            want = wedge(ref.star6(model.dictionary(s1)), e7)
            assert max_abs(got.coeffs - want.coeffs) < 1e-12, s1
            fitted = np.zeros(n)
            for s2, x in star_table[s1].items():
                fitted[tab.index[s2]] = x
            assert max_abs(tab.star[n:, i] - fitted) < 1e-14, s1
            for s2 in model.symbols:
                fitted = np.zeros(n)
                for s3, x in wedge_table.get((s1, s2), {}).items():
                    fitted[tab.index[s3]] = x
                assert max_abs(tab.wedge[:n, i, tab.index[s2]] - fitted) < 1e-14, (s1, s2)


def test_fiber_tables_built_once_per_kind(monkeypatch):
    nearly_kahler_model(0.3)
    flag_model()
    calls = {"wedge": 0, "hodge": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(co, "wedge", counting("wedge", co.wedge))
    monkeypatch.setattr(co, "hodge", counting("hodge", co.hodge))
    for sigma in (0.0, 0.5, 1.0, 2.5):
        nearly_kahler_model(sigma)
    flag_model()
    assert calls == {"wedge": 0, "hodge": 0}
    # the counters do see a build: drop the cached tables and rebuild them
    monkeypatch.setattr(co, "_flag_tables", functools.cache(co._flag_tables.__wrapped__))
    flag_model()
    flag_model()
    assert calls["wedge"] > 0 and calls["hodge"] > 0
    built = dict(calls)
    flag_model()
    assert calls == built


def test_models_share_tables_but_not_d():
    nk0, nk1 = nearly_kahler_model(0.0), nearly_kahler_model(1.0)
    assert nk0.tables.wedge is nk1.tables.wedge
    assert nk0.tables.star is nk1.tables.star
    assert nk0.symbols is nk1.symbols
    spec = WarpSpec(jet_var(T0).sin(), Jet.const(0.0), 1.0)
    # d om = 3 sigma psi+ in geometric symbols; unit symbols add f^2 / f^3:
    # the value of the fiber psi+ row of d on the fiber om row
    index = nk0.tables.index

    def d_om_to_psi(model):
        op = co._d_values(model, (spec.f,)).reshape(2, len(index), 2, len(index), 3)
        return op[0, index["psi+"], 0, index["om"], 0]

    assert d_om_to_psi(nk0) == 0.0
    assert abs(d_om_to_psi(nk1) - 3 / math.sin(T0)) < 1e-14
    assert flag_model().tables.wedge is flag_model().tables.wedge


@pytest.mark.parametrize("kind", ["NK", "flag"])
def test_d_values_are_the_value_rows_of_the_jet_operator(kind):
    # bit for bit: each entry is rounded as the value of the order-2 jet
    # product it stands for in the reference's whole-jet operator
    rng = np.random.default_rng(59)
    for _ in range(20):
        if kind == "NK":
            spec = WarpSpec(random_jet(rng, 0.3), random_jet(rng), rng.uniform(0.0, 2.0))
        else:
            spec = CohomSpec(random_jet(rng, 0.3), random_jet(rng, 0.3), random_jet(rng, 0.3), random_jet(rng))
        frame = co._Frame(spec)
        n = len(frame.model.tables.index)
        full = ref.d_operator(frame.model, frame.factors).reshape(2, n, 3, 2, n, 3)[:, :, 0]
        assert frame.d_values.shape == (2 * n, 6 * n)
        assert np.array_equal(frame.d_values, full.reshape(2 * n, 6 * n))


def test_reconstruction_is_judged_against_the_terms_of_d():
    # at t = 1e-7 d phi and d *phi cancel terms of size 6e7 down to 1.6e-7:
    # the residual 1.49e-8 is rounding on the terms, and an absolute gate
    # once rejected this valid spec as malformed
    spec = WarpSpec(jet_profile("sin", 1e-7), Jet.const(0.0), 1.0)
    solve = co._Solve(spec)
    solve.generic_torsion()
    # the gate's tolerance is the caller's
    with pytest.raises(ValueError, match="not generated by any torsion quadruple"):
        solve.generic_torsion(1e-20)
    # in the two-route check it is judged after the routes are compared, and
    # a failure is a failed check: here the routes agree to 1.1e-16 and the
    # structure solve rebuilds (d phi, d *phi) to 2.2e-16 on terms of size 1.37
    spec = WarpSpec(jet_profile("cosh", 0.5), jet_profile("cos", 0.5), 0.0)
    with pytest.raises(co.RouteMismatch, match="not generated by any torsion quadruple"):
        warped_torsion(spec, tol=1.3e-16)
    with pytest.raises(co.RouteMismatch, match="disagree"):
        warped_torsion(spec, tol=1e-30)
    warped_torsion(spec, tol=2e-16)


def test_shared_tables_are_read_only():
    model = nearly_kahler_model(1.0)
    with pytest.raises(ValueError):
        model.dictionary("om").coeffs[0] = 5.0
    with pytest.raises(ValueError):
        flag_model().dictionary("vol").coeffs *= 2
    with pytest.raises(ValueError):
        model.tables.wedge[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        model.tables.star[0, 0] = 1.0
    with pytest.raises(TypeError):
        model.tables.index["om"] = 0
    # every array the product forms read is read-only: exponents, sign, star,
    # wedge, the four arrays of the d pattern and the eight dictionaries
    for tab in (model.tables, flag_model().tables):
        arrays = [x for x in tab if isinstance(x, np.ndarray)] + list(tab.dictionaries)
        assert len(arrays) == 8 + 8
        assert not any(a.flags.writeable for a in arrays)
    # the failed writes left every later result untouched
    assert model.dictionary("om").coeff((1, 2)) == 1.0
    assert abs(warped_torsion(WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0)).tau0 - 4.0) < 1e-12


def test_repeated_calls_give_identical_arrays():
    warp = WarpSpec(Jet(0.9, 0.6, -0.3), Jet(0.8, 1.2, 0.4), 1.3)
    cohom = CohomSpec(*holonomy_triple(0.6, 0.9, 1.4), Jet(0.5, 0.7, -0.2))
    for solve, spec in ((warped_torsion, warp), (cohom_torsion, cohom)):
        first, second = solve(spec), solve(spec)
        assert first.tau0 == second.tau0
        for a, b in ((first.tau1, second.tau1), (first.tau2, second.tau2), (first.tau3, second.tau3)):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert ricW_vanishes(warp) == ricW_vanishes(warp)
    assert ricW_vanishes(warp, k=(1, 0)) == ricW_vanishes(warp, k=(1, 0))


# --- warped torsion -------------------------------------------------------------------


def test_nearly_parallel_sphere():
    spec = WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0)
    t = warped_torsion(spec)
    assert abs(t.tau0 - 4.0) < 1e-12
    assert max_abs(t.tau1.coeffs) < 1e-12
    assert max_abs(t.tau2.coeffs) < 1e-12
    assert max_abs(t.tau3.coeffs) < 1e-12
    assert abs(scalar_curvature_warped(spec) - 42.0) < 1e-10


def test_flat_cone_is_parallel():
    spec = WarpSpec(jet_var(T0), Jet.const(0.0), 1.0)
    t = warped_torsion(spec)
    assert fg_type(t) == frozenset()


@pytest.mark.parametrize("t0", [0.3, 0.7, 1.2, 2.0, 2.8])
def test_example_type4_on_sphere(t0):
    spec = WarpSpec(jet_var(t0).sin(), Jet.const(0.0), 1.0)
    tor = warped_torsion(spec)
    assert fg_type(tor) == {4}
    assert abs(tor.tau1.coeffs[6] + math.tan(t0 / 2)) < 1e-11


def test_two_route_agreement_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = WarpSpec(
            Jet(rng.uniform(0.3, 2.0), rng.normal(), rng.normal()),
            Jet(rng.uniform(-2, 2), rng.normal(), rng.normal()),
            rng.uniform(0.0, 2.0),
        )
        warped_torsion(spec, tol=1e-9)  # raises on disagreement


def test_einstein_specs_have_scalar_42rho():
    cases = [
        (WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0), 1.0),  # round sphere
        (WarpSpec(jet_var(T0), Jet.const(0.0), 1.0), 0.0),  # flat
        (WarpSpec(jet_profile("sinh", T0), Jet.const(0.0), 1.0), -1.0),
        (WarpSpec(jet_var(T0).exp(), Jet.const(0.0), 0.0), -1.0),
    ]
    for spec, rho in cases:
        assert abs(scalar_curvature_warped(spec) - 42 * rho) < 1e-9


def test_delta_tau1_value():
    # tau1 = dt on the e^t cusp: delta(dt) = -6
    spec = WarpSpec(jet_var(T0).exp(), Jet.const(0.0), 0.0)
    assert abs(delta_tau1(spec) + 6.0) < 1e-12


# --- cohomogeneity one ----------------------------------------------------------------


def test_holonomy_triple_and_residuals():
    eq = holonomy_triple(0.5, 0.5, 0.5)
    assert max(abs(x) for x in holonomy_residual(*eq)) < 1e-13
    assert abs(eq[0].d1 - 0.5) < 1e-13  # f = t/2 solution
    uneq = holonomy_triple(0.6, 0.9, 1.4)
    assert max(abs(x) for x in holonomy_residual(*uneq)) < 1e-13
    rng = np.random.default_rng(2)
    random_jets = [Jet(rng.uniform(0.5, 2), rng.normal(), 0.0) for _ in range(3)]
    assert max(abs(x) for x in holonomy_residual(*random_jets)) > 1e-3
    with pytest.raises(ValueError):
        holonomy_triple(1.0, -1.0, 1.0)
    # a warped profile under the wrong condition: residuals are data
    s = jet_var(T0).sin()
    assert isinstance(holonomy_residual(s, s, s), tuple)


def test_cohom_parallel_iff_cos_theta_one():
    eq = holonomy_triple(0.5, 0.5, 0.5)
    t = cohom_torsion(CohomSpec(*eq, Jet.const(0.0)))
    assert fg_type(t) == frozenset()


def test_cohom_equal_factors_kill_tau2():
    eq = holonomy_triple(0.8, 0.8, 0.8)
    t = cohom_torsion(CohomSpec(*eq, Jet(0.9, 0.4, 0.2)))
    assert max_abs(t.tau2.coeffs) < 1e-12
    assert fg_type(t) == {1, 3, 4}


def test_cohom_cos_theta_minus_one():
    eq = holonomy_triple(0.5, 0.5, 0.5)
    t = cohom_torsion(CohomSpec(*eq, Jet.const(math.pi)))
    assert fg_type(t) == {4}
    uneq = holonomy_triple(0.6, 0.9, 1.4)
    t = cohom_torsion(CohomSpec(*uneq, Jet.const(math.pi)))
    assert fg_type(t) == {2, 4}


def test_cohom_warns_off_holonomy_locus():
    spec = CohomSpec(Jet(1.0, 0.3, 0.0), Jet(1.1, 0.2, 0.0), Jet(0.9, 0.1, 0.0), Jet(0.5, 0.5, 0.0))
    with pytest.warns(UserWarning):
        t = cohom_torsion(spec)
    # the generic route still returns a valid quadruple
    assert t.membership_residual() < 1e-9


def test_closed_form_outputs_reject_a_spec_off_the_holonomy_locus():
    # the closed-form torsion assumes (f_i f_j)' = f_k, and these outputs
    # have no structure-equation route to fall back to
    spec = CohomSpec(Jet(0.7, 0.2, 0.1), Jet(1.1, -0.3, 0.2), Jet(0.9, 0.5, -0.1), Jet(0.8, 0.4, 0.1))
    res = holonomy_residual(spec.f1, spec.f2, spec.f3)
    assert min(map(abs, res)) > 0.4
    for output in (delta_tau1, scalar_curvature_warped, ricW_vanishes):
        with pytest.raises(ValueError, match="holonomy condition fails") as info:
            output(spec)
        assert str(res) in str(info.value)
    # the torsion still falls back to the structure-equation route
    with pytest.warns(UserWarning, match="holonomy condition fails"):
        assert cohom_torsion(spec).membership_residual() < 1e-9
    # on the locus all three are numbers
    on = CohomSpec(*holonomy_triple(0.7, 1.1, 0.9), Jet(0.8, 0.4, 0.1))
    assert all(math.isfinite(output(on)) for output in (delta_tau1, scalar_curvature_warped, ricW_vanishes))


def test_theta_family():
    b = Jet(0.7, 0.2, 0.0)
    th = theta_family(b, 1.0)
    assert abs(math.cos(th.value)) < 1e-13  # a = 1 -> cos theta = 0
    assert abs(th.d1 - b.value * math.sin(th.value)) < 1e-13
    th2 = theta_family(b, 0.4, branch=-1)
    assert abs(th2.d1 - b.value * math.sin(th2.value)) < 1e-13
    with pytest.raises(ValueError):
        theta_family(b, -1.0)
    # any other branch would not solve theta' = b sin(theta)
    for branch in (2, 0.5):
        with pytest.raises(ValueError, match="branch"):
            theta_family(b, 0.4, branch=branch)


def test_theta_family_kills_components():
    f = jet_var(T0).sin()
    spec = WarpSpec(f, theta_family(1 / f, 1.3), 1.0)  # theta' = sin(theta)/f
    t = warped_torsion(spec)
    assert max_abs(t.tau3.coeffs) < 1e-11
    assert fg_type(t) == {1, 4}
    spec = WarpSpec(f, theta_family(-6 / f, 0.6), 1.0)
    t = warped_torsion(spec)
    assert abs(t.tau0) < 1e-11
    assert fg_type(t) == {3, 4}


def test_einstein_warp_check():
    t = 0.9
    assert max(map(abs, einstein_warp_check(jet_var(t).sin(), 1.0, 1.0))) < 1e-13
    assert max(map(abs, einstein_warp_check(jet_var(t), 0.0, 1.0))) < 1e-13
    assert max(map(abs, einstein_warp_check(jet_profile("sinh", t), -1.0, 1.0))) < 1e-13
    assert max(map(abs, einstein_warp_check(jet_var(t).exp(), 1.0, 1.0))) > 0.1


# --- Weyl-Ricci vanishing and conformal structure ---------------------------------------


def test_ricW_vanishes_named_examples():
    assert ricW_vanishes(WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0)) < 1e-12
    assert ricW_vanishes(WarpSpec(jet_var(T0).exp(), Jet.const(0.0), 0.0)) < 1e-12
    assert ricW_vanishes(WarpSpec(jet_var(T0).sin(), Jet(0.4, 0.9, 0.3), 1.0)) < 1e-12


def test_ricW_vanishes_random_sample():
    rng = np.random.default_rng(13)
    for _ in range(50):
        spec = WarpSpec(
            Jet(rng.uniform(0.3, 2.0), rng.normal(), rng.normal()),
            Jet(rng.uniform(-2, 2), rng.normal(), rng.normal()),
            rng.uniform(0.0, 2.0),
        )
        assert ricW_vanishes(spec) < 1e-9 * max(1.0, spec.f.value ** -2)


def test_ricW_residual_within_the_benchmark_judge_on_every_profile():
    # the warped-sweep judge: 1e-9 times the scalar curvature of the same
    # structure; it fails only for t within about 3.4e-4 of 0 (and of pi for
    # f = sin), where the residual is rounding of terms of size 1/f^2
    for f in ("sin", "exp", "cosh", "sinh"):
        for theta in ("t", "zero", "sin", "cos"):
            for sigma in (0.0, 1.0):
                for t in np.linspace(1e-3, math.pi - 1e-3, 41):
                    spec = WarpSpec(jet_profile(f, t), jet_profile(theta, t), sigma)
                    scale = max(1.0, abs(scalar_curvature_warped(spec)))
                    assert ricW_vanishes(spec) <= 1e-9 * scale, (f, theta, sigma, t)


def test_generalized_ricci_not_zero_at_other_weights():
    # the vanishing is specific to the (4, -5) weighting; use a warp factor
    # whose metric is not Einstein so that Ric0 is actually nonzero
    spec = WarpSpec(Jet(0.9, 0.6, -0.3), Jet(0.4, 0.9, 0.3), 1.0)
    assert ricW_vanishes(spec, k=(1, 0)) > 1e-3
    assert ricW_vanishes(spec, k=(4, -5)) < 1e-10


def test_conformal_warp_matches_transform_rule():
    rng = np.random.default_rng(23)
    for _ in range(20):
        spec = WarpSpec(
            Jet(rng.uniform(0.4, 1.8), rng.normal(), rng.normal()),
            Jet(rng.uniform(-2, 2), rng.normal(), rng.normal()),
            rng.uniform(0.0, 1.5),
        )
        u = Jet(0.4 * rng.normal(), rng.normal(), rng.normal())
        t_new = warped_torsion(ref.conformal_warp(spec, u))
        du = Form(1, np.array([0, 0, 0, 0, 0, 0, u.d1]))
        t_pred = conformal_transform(warped_torsion(spec), u.value, du)
        e = math.exp(-u.value)  # frame weight per degree
        assert abs(t_new.tau0 - t_pred.tau0) < 1e-10
        assert max_abs(t_new.tau1.coeffs - e * t_pred.tau1.coeffs) < 1e-10
        assert max_abs(t_new.tau2.coeffs - e**2 * t_pred.tau2.coeffs) < 1e-10
        assert max_abs(t_new.tau3.coeffs - e**3 * t_pred.tau3.coeffs) < 1e-10


# --- type sweep ----------------------------------------------------------------------


def test_type_sweep_realizes_required_classes():
    table = type_sweep()
    realized = {tuple(v) for v in table.values()}
    required = [
        (),
        (1,),
        (4,),
        (1, 4),
        (3, 4),
        (1, 3, 4),
        (2, 4),
        (2, 3, 4),
        (1, 2, 3, 4),
        (1, 3),
    ]
    for r in required:
        assert r in realized, f"class {set(r) or 'parallel'} not realized"
    assert (1, 2, 3) not in realized


@pytest.mark.parametrize("t", [0.05, 1.0, 3.1])
def test_sweep_grid_realizes_its_designed_classes(t):
    table, wrong = co.sweep_check(t)
    assert wrong == []
    assert table == {name: list(cls) for name, _, cls in sweep_grid(t)}
    assert table == type_sweep(t)
    assert len(table) == 14


def test_sweep_grid_two_route_everywhere():
    # every grid entry passes the internal closed-form / generic agreement
    for name, spec, _ in sweep_grid():
        if isinstance(spec, WarpSpec):
            warped_torsion(spec, tol=1e-8)
        else:
            cohom_torsion(spec, tol=1e-8)


def test_fiber_normalisation_identities():
    nk = nearly_kahler_model(1.0)
    om3 = nk.dictionary("om3")
    pp = wedge(nk.dictionary("psi+"), nk.dictionary("psi-"))
    # 2 om^3 = 3 psi+ ^ psi-
    assert max_abs(2 * om3.coeffs - 3 * pp.coeffs) < 1e-13

    flag = flag_model()
    vol = flag.dictionary("vol")
    pp = wedge(flag.dictionary("psi+"), flag.dictionary("psi-"))
    # vol = om1 om2 om3 = (1/4) psi+ ^ psi-
    assert max_abs(vol.coeffs - pp.coeffs / 4) < 1e-13
    for i in (1, 2, 3):
        om_i = flag.dictionary(f"om{i}")
        assert max_abs(wedge(om_i, om_i).coeffs) == 0.0
        for psi in ("psi+", "psi-"):
            assert max_abs(wedge(om_i, flag.dictionary(psi)).coeffs) == 0.0


# --- the array engine against the dict-of-Jet reference ---------------------------------
# dict_engine.py keeps the product forms as they were computed before the array
# engine: dictionaries {symbol: Jet}, scalar jet arithmetic per symbol.


def assert_matches_ref(new, want, what="", terms=0.0):
    """new within 1e-14 max(1, |want|, terms) of the reference: |want| is the
    largest entry of the array, terms the largest summed product where a
    result cancels."""
    new, want = np.asarray(new, dtype=float), np.asarray(want, dtype=float)
    assert new.shape == want.shape, what
    err = max_abs(new - want) / max(1.0, max_abs(want), terms)
    assert err <= 1e-14, (what, err)


def check_form(form: ProductForm, want: "ref.DictProductForm", theta: float, what: str, terms=0.0):
    """The jets of form against the reference result, and its pointwise value
    against the reference evaluation of the same jets.  (The reference rotates
    psi+ into psi- only when both are keys of its dictionary, which its own
    results do not always have.)"""
    assert form.degree == want.degree, what
    assert_matches_ref(form.jets, ref.to_array(want, form.frame.model.tables.index), what, terms)
    if 1 <= form.degree <= 7:
        want_point = ref.to_dict(form).evaluate(theta)
        assert_matches_ref(form.evaluate(theta).coeffs, want_point.coeffs, what + " evaluated")


def check_d(form: ProductForm, theta: float, what: str):
    """The value rows of d on form against the value of the reference d, and
    `d_at` against the reference evaluation of the reference d (no 8-forms)."""
    frame = form.frame
    want = ref.to_array(ref.to_dict(form).d(), frame.model.tables.index)
    assert_matches_ref(frame.d_values.dot(form.jets.reshape(-1)), want[:, :, 0].reshape(-1), what)
    if form.degree < 7:
        want_point = ref.to_dict(ProductForm(frame, form.degree + 1, want)).evaluate(theta)
        assert_matches_ref(form.d_at(theta).coeffs, want_point.coeffs, what + " at the point")


def check_engine(forms: dict, theta: float):
    """d, star and every wedge of the given product forms against the
    reference, each operation on the reference copy of the same input."""
    for name, form in forms.items():
        check_form(form, ref.to_dict(form), theta, name)
        check_d(form, theta, f"d {name}")
        check_form(form.star(), ref.to_dict(form).star(), theta, f"* {name}")
        for other_name, other in forms.items():
            if form.degree + other.degree <= 7:
                # phi ^ tau3 = 0 on Lambda^3_27, a sum of products that cancel
                want = ref.to_dict(form).wedge(ref.to_dict(other))
                terms = max_abs(form.jets) * max_abs(other.jets)
                check_form(form.wedge(other), want, theta, f"{name} ^ {other_name}", terms)


def random_form(frame, degree: int, rng) -> ProductForm:
    """Random jets on every symbol that fits a product form of the degree."""
    jets = np.zeros((2, len(frame.model.tables.index), 3))
    for s, i in frame.model.tables.index.items():
        for block, deg in enumerate((degree, degree - 1)):
            if frame.model.degree(s) == deg:
                jets[block, i] = rng.normal(size=3)
    return ProductForm(frame, degree, jets)


def random_jet(rng, low=None) -> Jet:
    value = rng.uniform(low, 2.0) if low else rng.uniform(-2.0, 2.0)
    return Jet(value, rng.normal(), rng.normal())


def test_product_table_is_the_jet_product():
    rng = np.random.default_rng(31)
    nonzero = {tuple(int(x) for x in ijk): LEIBNIZ[ijk] for ijk in zip(*np.nonzero(LEIBNIZ))}
    assert nonzero == {(0, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (2, 0, 2): 1, (1, 1, 2): 2, (0, 2, 2): 1}
    assert not LEIBNIZ.flags.writeable
    for _ in range(200):
        a, b = random_jet(rng), random_jet(rng)
        want = a * b
        want = [want.value, want.d1, want.d2]
        arr_a, arr_b = np.array([a.value, a.d1, a.d2]), np.array([b.value, b.d1, b.d2])
        assert_matches_ref(jet_product(arr_a, arr_b), want, "jet_product")
        assert_matches_ref(ref.jet_matrices(arr_a) @ arr_b, want, "jet_matrices")
    # broadcast over leading axes
    a, b = rng.normal(size=(4, 5, 3)), rng.normal(size=(5, 3))
    rows = [[jet_product(a[i, j], b[j]) for j in range(5)] for i in range(4)]
    assert_matches_ref(jet_product(a, b), rows, "broadcast")


@pytest.mark.parametrize("kind", ["NK", "flag"])
def test_array_engine_matches_reference_on_random_forms(kind):
    rng = np.random.default_rng(37)
    for _ in range(4):
        if kind == "NK":
            spec = WarpSpec(random_jet(rng, 0.3), random_jet(rng), rng.uniform(0.0, 2.0))
        else:  # d needs no holonomy condition: arbitrary positive warp factors
            spec = CohomSpec(random_jet(rng, 0.3), random_jet(rng, 0.3), random_jet(rng, 0.3), random_jet(rng))
        frame = co._Frame(spec)
        forms = {f"random {p}": random_form(frame, p, rng) for p in range(8)}
        check_engine(forms, rng.uniform(-2.0, 2.0))


@pytest.mark.parametrize("kind", ["NK", "flag"])
def test_star_and_wedge_are_the_pointwise_ones(kind):
    # independent of the reference engine: the product-form star and wedge,
    # evaluated, against the R^7 `hodge` and `wedge` of the evaluated forms
    rng = np.random.default_rng(53)
    for _ in range(4):
        if kind == "NK":
            spec = WarpSpec(random_jet(rng, 0.3), random_jet(rng), rng.uniform(0.0, 2.0))
        else:
            spec = CohomSpec(random_jet(rng, 0.3), random_jet(rng, 0.3), random_jet(rng, 0.3), random_jet(rng))
        frame, theta = co._Frame(spec), rng.uniform(-2.0, 2.0)
        forms = [random_form(frame, p, rng) for p in range(8)]
        points = [a.evaluate(theta) for a in forms]
        for a, pa in zip(forms, points):
            got = a.star().evaluate(theta)
            assert_matches_ref(got.coeffs, hodge(pa).coeffs, f"* {a.degree}", max_abs(pa.coeffs))
            for b, pb in zip(forms, points):
                if a.degree + b.degree <= 7:
                    got, terms = a.wedge(b).evaluate(theta), max_abs(pa.coeffs) * max_abs(pb.coeffs)
                    assert_matches_ref(got.coeffs, wedge(pa, pb).coeffs, f"{a.degree} ^ {b.degree}", terms)


def structure_forms(spec) -> dict:
    """The product forms the torsion routes and ricW_vanishes build."""
    solve = co._Solve(spec)
    phi, starphi = solve.phi_forms
    sym = solve.sym
    forms = {"phi": phi, "*phi": starphi, "tau1": sym["tau1"], "tau2": sym["tau2"], "tau3": sym["tau3"]}
    forms["tau1 ^ *phi"] = sym["tau1"].wedge(starphi)
    return forms


def test_array_engine_matches_reference_on_warped_sweep_profiles():
    rng = np.random.default_rng(41)
    for f in ("sin", "exp", "cosh", "sinh"):
        for theta in ("t", "zero", "sin", "cos"):
            for sigma in (0.0, 1.0):
                t = rng.uniform(0.05, math.pi - 0.05)
                spec = WarpSpec(jet_profile(f, t), jet_profile(theta, t), sigma)
                check_engine(structure_forms(spec), spec.theta.value)


def test_array_engine_matches_reference_on_holonomy_triples():
    rng = np.random.default_rng(43)
    for _ in range(16):
        theta = Jet(rng.uniform(0.0, math.pi), rng.uniform(-1, 1), rng.uniform(-1, 1))
        spec = CohomSpec(*holonomy_triple(*rng.uniform(0.3, 1.5, size=3)), theta)
        check_engine(structure_forms(spec), theta.value)


def test_reference_conversion_rejects_misplaced_jets():
    frame = co._Frame(WarpSpec(jet_var(T0).sin(), jet_var(T0), 1.0))
    bad = ProductForm.of(frame, 3, fiber={"om": 1.0})  # om has degree 2
    with pytest.raises(ValueError, match="degree"):
        ref.to_dict(bad)


def test_torsion_call_builds_each_stage_once(monkeypatch):
    warp = WarpSpec(Jet(0.9, 0.6, -0.3), Jet(0.8, 1.2, 0.4), 1.3)
    cohom = CohomSpec(*holonomy_triple(0.6, 0.9, 1.4), Jet(0.5, 0.7, -0.2))
    warped_torsion(warp), cohom_torsion(cohom)  # the tables exist
    calls, results = {}, {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            results[name] = real(*args, **kwargs)
            return results[name]

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_Frame", "_tau_symbolic", "nearly_kahler_model", "flag_model", "_d_values"):
        counting(co, name)
    # every binding of the exterior-algebra wedge in the package
    real_wedge = exterior_algebra.wedge
    for name, module in list(sys.modules.items()):
        if name.startswith("g2lab") and getattr(module, "wedge", None) is real_wedge:
            counting(module, "wedge")
    # one frame, one fiber model and one build of the value rows of d per
    # solve: the closed-form and the structure-equation route share them
    for solve, spec, model in ((warped_torsion, warp, "nearly_kahler_model"), (cohom_torsion, cohom, "flag_model")):
        calls.clear()
        solve(spec)
        assert calls == {"_Frame": 1, "_tau_symbolic": 1, model: 1, "_d_values": 1}
        n = len(results[model].tables.index)
        assert results["_d_values"].shape == (2 * n, 6 * n)
    # the scalar curvature and its delta tau1 share one closed-form solve,
    # which needs no d
    calls.clear()
    scalar_curvature_warped(warp)
    assert calls == {"_Frame": 1, "_tau_symbolic": 1, "nearly_kahler_model": 1}
    # the counters do see a wedge; the Ricci terms of ricW come from one
    # bilinear pass, which calls none
    calls.clear()
    exterior_algebra.wedge(Form.basis((1,)), Form.basis((2,)))
    assert calls == {"wedge": 1}
    once = {"_Frame": 1, "_tau_symbolic": 1, "nearly_kahler_model": 1, "_d_values": 1}
    calls.clear()
    ricW_vanishes(warp)
    assert calls == once
    # `g2lab warp` reports torsion, scalar curvature and ricW from one frame
    # and one pointwise closed-form torsion
    closed_at_point = co._Solve.t_closed.func

    def t_closed(solve):
        calls["t_closed"] = calls.get("t_closed", 0) + 1
        return closed_at_point(solve)

    member = functools.cached_property(t_closed)
    member.__set_name__(co._Solve, "t_closed")
    monkeypatch.setattr(co._Solve, "t_closed", member)
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--json", "warp", "--f", "exp", "--theta", "sin", "--t", "0.7"]) == 0
    assert calls == {**once, "t_closed": 1}


def test_warped_outputs_match_the_frozen_snapshot():
    # packed torsion, torsion norms, tau0, s and the Weyl-Ricci residual of 32
    # profiles at five t and of four holonomy triples, bit for bit (float.hex); see
    # tests/warped_snapshot.py for how the snapshot was made
    import json
    from pathlib import Path

    import warped_snapshot

    frozen = json.loads((Path(__file__).parent / "data" / "warped_snapshot.json").read_text())
    outputs = warped_snapshot.warped_outputs()
    assert outputs.keys() == frozen.keys()
    for name, values in frozen.items():
        assert outputs[name] == values, name
