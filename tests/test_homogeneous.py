"""Left-invariant geometry: connection, curvature, torsion, analyze."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import reference
from algebras import (
    CLOSED_NILPOTENT,
    CLOSED_Z,
    almost_abelian,
    closed_almost_abelian,
    closed_nilpotent,
    seeded_closed_z,
)
from g2lab._linalg import as_mode, bound, max_abs
from g2lab.curvature import CurvatureTensor, decompose, kn_product, ric_W, scalar_curvature
from g2lab.exterior_algebra import (
    BASIS,
    Form,
    dim_of,
    form_inner,
    phi_arrays,
    standard_phi,
    standard_phi_dual,
    to_antisym,
    wedge,
)
from g2lab.g2_algebra import MixedV14, lambda3, lambda3_rows, projector_matrix, split_v14, sym2_from_27
from g2lab.homogeneous import (
    CHECKS,
    K_VALUES,
    InvariantGeometry,
    LieAlgebraSpec,
    Report,
    _catalogue,
    analyze,
    builtin_examples,
    canonical_connection,
    connection_form_action,
    covariant_wedge,
    d_squared_residual,
    geometry,
    invariant_d,
    invariant_d_matrices,
    invariant_delta,
    jacobi_residual,
    levi_civita,
    nabla_bar_tau,
    riemann,
    spec_from_coframe_d,
)
from g2lab.torsion import (
    TorsionComponents,
    ricci_rows,
    extract_torsion,
    fg_type,
    recompose,
)

PHI = standard_phi()


def diag_spec(name, a):
    return spec_from_coframe_d(name, {i: {(i, 7): -a[i - 1]} for i in range(1, 7)})


SU2SU2 = spec_from_coframe_d(
    "su2su2",
    {
        1: {(2, 3): -1},
        2: {(1, 3): 1},
        3: {(1, 2): -1},
        4: {(5, 6): -1},
        5: {(4, 6): 1},
        6: {(4, 5): -1},
    },
)
HEIS = spec_from_coframe_d("heis", {7: {(1, 2): -1, (3, 4): -1, (5, 6): -1}})


def test_spec_validation():
    with pytest.raises(ValueError):
        LieAlgebraSpec("bad-shape", np.zeros((7, 7)))
    c = np.zeros((7, 7, 7))
    c[0, 1, 2] = 1.0  # not antisymmetric in (i, j)
    with pytest.raises(ValueError):
        LieAlgebraSpec("bad-sym", c)
    with pytest.raises(ValueError):
        spec_from_coframe_d("bad-pair", {1: {(3, 2): 1.0}})
    for k in (0, 8):  # 0 once wrote de^7 through c[-1], and 8 raised IndexError
        with pytest.raises(ValueError, match="bad coframe index"):
            spec_from_coframe_d("bad-k", {k: {(1, 2): 1.0}})
    # antisymmetry is judged against the size of the constants: a float change
    # of coframe of Bryant's algebra, scaled to |c| = 1e4, is antisymmetric up
    # to rounding above an absolute 1e-12, while 1e-6 |c| is not rounding
    rng = np.random.default_rng(0)
    a = np.eye(7) + 0.3 * rng.normal(size=(7, 7))
    a_inv = np.linalg.inv(a)
    c = np.einsum("ak,kij,ib,jc->abc", a, builtin_examples()["bryant"]["spec"].c, a_inv, a_inv)
    c *= 1e4 / max_abs(c)
    assert max_abs(c + c.transpose(0, 2, 1)) > 1e-12
    LieAlgebraSpec("conjugated", c)
    c[0, 1, 2] += 1e-6 * max_abs(c)
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebraSpec("conjugated-bad", c)


def test_jacobi_rejection():
    bad = spec_from_coframe_d("nojacobi", {1: {(1, 7): -1}, 7: {(3, 4): -0.5}})
    assert jacobi_residual(bad) > 0.1
    # every view that needs the connection meets the Jacobi gate first
    for view in (geometry, analyze, levi_civita, canonical_connection):
        with pytest.raises(ValueError, match="fail the Jacobi identity"):
            view(bad)
    # d^2 needs no connection: it is measured, not gated
    assert d_squared_residual(bad) >= jacobi_residual(bad)


def test_abelian_is_flat():
    spec = builtin_examples()["flat"]["spec"]
    assert max_abs(levi_civita(spec)) == 0.0
    assert max_abs(riemann(spec, levi_civita(spec)).mat) == 0.0
    mats = invariant_d_matrices(spec)
    assert max_abs(mats[3]) == 0.0
    assert max_abs(invariant_delta(mats, PHI).coeffs) == 0.0
    xi, gamma_bar = canonical_connection(spec)
    assert max_abs(xi.xi) == 0.0 and max_abs(gamma_bar) == 0.0


def test_hyperbolic_koszul_pattern():
    spec = builtin_examples()["hyperbolic"]["spec"]
    gamma = levi_civita(spec)
    for i in range(6):
        assert gamma[i, 6, i] == 1.0
        assert gamma[i, i, 6] == -1.0
    assert max_abs(gamma[6]) == 0.0
    # metric compatibility and torsion-free
    assert max_abs(gamma + gamma.transpose(0, 2, 1)) == 0.0
    cl = spec.c.transpose(1, 2, 0)
    assert max_abs(gamma - gamma.transpose(1, 0, 2) - cl) == 0.0


def test_hyperbolic_constant_curvature_oracle():
    # sectional curvature -1: R = -(1/2) r_g(g) exactly
    spec = builtin_examples()["hyperbolic"]["spec"]
    r = riemann(spec, levi_civita(spec))
    assert max_abs(r.mat + kn_product(np.eye(7)).mat / 2) < 1e-13
    dec = decompose(r)
    assert abs(dec.s + 42.0) < 1e-12
    assert max_abs(dec.w77.mat) < 1e-12
    assert max_abs(dec.w64.mat) < 1e-12
    assert max_abs(dec.w27.mat) < 1e-12
    assert max_abs(dec.ric0) < 1e-12


def test_hyperbolic_torsion_type_four():
    spec = builtin_examples()["hyperbolic"]["spec"]
    geo = geometry(spec)
    t = geo.torsion
    assert fg_type(t) == {4}
    np.testing.assert_allclose(t.tau1.coeffs, Form.basis((7,)).coeffs, atol=1e-13)
    # xibar concentrates in the 7-part
    xb = geo.xi.xi_bar
    assert abs(np.trace(xb)) < 1e-12
    assert max_abs(xb + xb.T) < 1e-12  # purely antisymmetric


def test_d_squared_and_adjointness_unimodular():
    rng = np.random.default_rng(0)
    for spec in (SU2SU2, HEIS, builtin_examples()["flat"]["spec"]):
        assert d_squared_residual(spec) < 1e-12
        mats = invariant_d_matrices(spec)
        for k in range(1, 7):
            a = Form(k - 1, rng.normal(size=dim_of(k - 1)))
            b = Form(k, rng.normal(size=dim_of(k)))
            lhs = form_inner(invariant_d(mats, a), b)
            rhs = form_inner(a, invariant_delta(mats, b))
            assert abs(lhs - rhs) < 1e-12


def test_bryant_structure_equations():
    spec = builtin_examples()["bryant"]["spec"]
    mats = invariant_d_matrices(spec)
    assert jacobi_residual(spec) < 1e-13
    dphi = invariant_d(mats, PHI)
    assert max_abs(dphi.coeffs) < 1e-13  # closed three-form
    # delta phi = tau lies in Lambda^2_14
    geo = geometry(spec)
    tau = geo.torsion.tau2
    from g2lab.g2_algebra import project

    assert max_abs(project(tau, (2, 14)).coeffs - tau.coeffs) < 1e-12
    assert max_abs(geo.delta(PHI).coeffs - tau.coeffs) < 1e-12


def test_bryant_parallel_torsion_and_w64():
    geo = geometry(builtin_examples()["bryant"]["spec"])
    nb = nabla_bar_tau(geo)
    assert max_abs(nb.array) < 1e-12  # nabla-bar tau = 0
    dec = decompose(geo.curvature)
    assert max_abs(dec.w64.mat) < 1e-12
    # scalar curvature from the closed-case formula
    assert abs(scalar_curvature(geo.curvature) + geo.torsion.tau2.norm2() / 2) < 1e-12


def test_bryant_extremally_pinched_ricci():
    geo = geometry(builtin_examples()["bryant"]["spec"])
    from g2lab.curvature import ricci, traceless_part

    ric0 = traceless_part(ricci(geo.curvature))
    s = scalar_curvature(geo.curvature)
    assert abs((ric0 * ric0).sum() - 4 / 21 * s * s) < 1e-10


def test_canonical_connection_annihilates_phi():
    for spec in (
        builtin_examples()["bryant"]["spec"],
        builtin_examples()["hyperbolic"]["spec"],
        diag_spec("d2", [1, 2, 3, 1, 2, 3]),
        SU2SU2,
    ):
        xi, gamma_bar = canonical_connection(spec)
        geo = geometry(spec)
        assert np.array_equal(xi.xi, geo.xi.xi) and np.array_equal(gamma_bar, geo.gamma_bar)
        res = max(max_abs(f.coeffs) for f in connection_form_action(geo.gamma_bar, PHI))
        assert res < 1e-12
        assert max_abs(gamma_bar + gamma_bar.transpose(0, 2, 1)) < 1e-13


def test_d_equals_alt_grad():
    spec = diag_spec("d3", [0.5, 1.5, 2.5, 0.7, 1.1, 0.3])
    geo = geometry(spec)
    for form in (PHI, standard_phi_dual(), geo.torsion.tau2):
        lhs = covariant_wedge(geo.gamma, form)
        rhs = geo.d(form)
        assert max_abs(lhs.coeffs - rhs.coeffs) < 1e-12


def test_covariant_wedge_of_a_top_degree_form_is_rejected():
    geo = geometry(builtin_examples()["bryant"]["spec"])
    vol = Form.basis(tuple(range(1, 8)))
    for alt_grad in (lambda a: covariant_wedge(geo.gamma, a), geo.d_nabla_bar, geo.d):
        with pytest.raises(ValueError, match="top-degree form vanishes identically"):
            alt_grad(vol)


def test_nabla_bar_tau_split_closed():
    geo = geometry(HEIS)
    # heis is not closed; use bryant and a closed nilpotent variant
    geo = geometry(builtin_examples()["bryant"]["spec"])
    nb = nabla_bar_tau(geo)
    g64, g27, g7 = split_v14(nb)
    assert max_abs(g7.array) < 1e-12


@pytest.mark.parametrize(
    "name", ["flat", "hyperbolic", "bryant"]
)
def test_analyze_builtins_pass(name):
    ex = builtin_examples()[name]
    rep = analyze(ex["spec"])
    assert rep.passed, [c.name for c in rep.failed_checks()]
    expected = ex["expected"]
    if "fg_type" in expected:
        assert rep.summary["fg_type"] == expected["fg_type"]
    if "scalar_curvature" in expected:
        assert abs(rep.summary["scalar_curvature"] - expected["scalar_curvature"]) < 1e-9
    if expected.get("extremally_pinched"):
        assert rep.summary["extremally_pinched"]
    if expected.get("parallel_torsion"):
        assert rep.summary["parallel_torsion"]
    if expected.get("W64_zero"):
        assert rep.summary["block_norms"]["W64"] < 1e-12
    if expected.get("pure_scalar_block"):
        bn = rep.summary["block_norms"]
        assert max(bn["W77"], bn["W64"], bn["W27"], bn["R0"]) < 1e-10


def test_analyze_generic_families():
    rng = np.random.default_rng(42)
    specs = [
        diag_spec("d2", [1, 2, 3, 1, 2, 3]),
        SU2SU2,
        HEIS,
        almost_abelian("aa1", rng.normal(size=(6, 6))),
    ]
    for spec in specs:
        rep = analyze(spec)
        assert rep.passed, (spec.name, [c.name for c in rep.failed_checks()])


def test_analyze_flat_summary_is_trivial():
    rep = analyze(builtin_examples()["flat"]["spec"])
    assert rep.summary["fg_type"] == []
    assert rep.summary["scalar_curvature"] == 0.0
    assert all(v < 1e-14 for v in rep.summary["block_norms"].values())


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_closed_structure_with_non_parallel_torsion(exact):
    # Bryant's nabla-bar tau is 0: only this input exercises the nabla-bar tau
    # term of the curvature contraction identity
    spec = closed_almost_abelian("closed", CLOSED_Z, exact)
    geo = geometry(spec)
    assert max_abs(geo.d(geo.phi).coeffs) == 0
    rep = analyze(spec)
    assert rep.passed, [c.name for c in rep.failed_checks()]
    names = [c.name for c in rep.checks]
    assert len(names) == 37 and sum(n.startswith("closed:") for n in names) == 18  # all but EPR's
    assert "closed: curvature contraction identity (componentwise)" in names
    assert rep.summary["fg_type"] == [2]
    assert rep.summary["extremally_pinched"] is False
    assert rep.summary["parallel_torsion"] is False
    if exact:
        assert [c.name for c in rep.checks if c.residual != 0] == []


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", sorted(CLOSED_NILPOTENT))
def test_closed_nilpotent_structures(name, exact):
    # the closed inputs that are not almost-abelian: d phi = 0 exactly, type
    # {2}, every check of the closed chain passes, neither EPR nor parallel
    spec = closed_nilpotent(name, exact)
    geo = geometry(spec)
    assert all(v == 0 for v in geo.dphi.coeffs)
    rep = analyze(spec)
    assert rep.passed, [c.name for c in rep.failed_checks()]
    assert len(rep.checks) == 37
    assert rep.summary["fg_type"] == [2]
    assert rep.summary["extremally_pinched"] is False
    assert rep.summary["parallel_torsion"] is False
    if exact:
        assert [c.name for c in rep.checks if c.residual != 0] == []


def g2_frame_change(rng) -> np.ndarray:
    """A seeded element exp(X) of G2: X a random combination of a basis of g2,
    the null space of X -> X.phi on so(7), and exp a power series."""
    from g2lab.exterior_algebra import connection_action, connection_matrix

    m = connection_matrix(PHI)
    so7 = []
    for i, j in BASIS[2]:
        x = np.zeros((7, 7))
        x[i, j], x[j, i] = 1.0, -1.0
        so7.append(x)
    # X acting on phi: the action of a connection whose only direction is X
    action = np.array([connection_action(np.concatenate(([x], np.zeros((6, 7, 7)))), m)[0] for x in so7])
    _, sing, vt = np.linalg.svd(action.T)
    assert sing[6] > 1e-6 and np.all(sing[7:] < 1e-12)  # so(7) / g2 is 7-dimensional
    g2 = vt[7:]  # 14 coefficient vectors over so7
    x = np.tensordot(rng.normal(size=14).dot(g2), np.array(so7), axes=1)
    a, term = np.eye(7), np.eye(7)
    for n in range(1, 40):
        term = term.dot(x) / n
        a = a + term
    return a


def _summary_leaves(value) -> list:
    if isinstance(value, dict):
        return [v for item in value.values() for v in _summary_leaves(item)]
    if isinstance(value, (list, tuple)):
        return [v for item in value for v in _summary_leaves(item)]
    return [value]


def test_g2_change_of_frame_keeps_every_verdict():
    # c'^a_bc = A^a_k c^k_ij (A^-1)^i_b (A^-1)^j_c is the same structure in the
    # coframe e' = A e, and A in G2 keeps phi standard, so every verdict, class
    # and closed-chain boolean stays and the summary moves by rounding only;
    # a sign error in a table that is not G2-equivariant breaks this
    rng = np.random.default_rng(2024)
    specs = [ex["spec"] for ex in builtin_examples().values()]
    specs += [closed_almost_abelian("closed", CLOSED_Z), HEIS, SU2SU2]
    for spec in specs:
        a = g2_frame_change(rng)
        a_inv = np.linalg.inv(a)
        p3 = phi_arrays()[0]  # phi in the coframe e' = A e is standard
        assert max_abs(np.einsum("ijk,ia,jb,kc->abc", p3, a_inv, a_inv, a_inv) - p3) < 1e-12
        c = np.einsum("ak,kij,ib,jc->abc", a, spec.c, a_inv, a_inv)
        rep, moved = analyze(spec), analyze(LieAlgebraSpec(spec.name, c))
        assert moved.passed == rep.passed, (spec.name, [c.name for c in moved.failed_checks()])
        assert [c.name for c in moved.checks] == [c.name for c in rep.checks]
        assert moved.summary.keys() == rep.summary.keys()
        # each number against the size of its kind: torsion against the
        # largest torsion norm, squared curvature against ||R||^2
        r2 = sum(rep.summary["block_norms"].values())
        scales = {"torsion_norms": max(rep.summary["torsion_norms"].values()), "scalar_curvature": r2**0.5}
        for key, value in rep.summary.items():
            want, got = _summary_leaves(value), _summary_leaves(moved.summary[key])
            if key in ("fg_type", "extremally_pinched", "parallel_torsion"):
                assert got == want, (spec.name, key)
                continue
            bound = 1e-10 * scales.get(key, r2)
            assert all(abs(g - w) <= bound for g, w in zip(got, want)), (spec.name, key, got, want)


def test_closed_inner_product_chain_holds_at_every_scale():
    # *d(tau^3) is 0 on these unimodular algebras while the inner products
    # grow like |tau|^4 = lambda^4; judged against max(|*d(tau^3)/3|, 1)
    # alone, the chain failed on 1 of the 13 algebras at 2^3 and 11 at 2^6
    rng = np.random.default_rng(77)
    zs = [CLOSED_Z] + [seeded_closed_z(rng) for _ in range(12)]
    chain = {
        "closed: *d(tau^3)/3 = <d tau, *(tau^tau)>",
        "closed: <d tau, *(tau^tau)> = <dbar tau, *(tau^tau)_27>",
    }
    for i, z in enumerate(zs):
        spec = closed_almost_abelian(f"closed {i}", z)
        for k in range(-8, 9):
            rep = analyze(LieAlgebraSpec(spec.name, spec.c * 2.0**k))
            assert chain <= {c.name for c in rep.checks}
            assert rep.passed, (i, k, [c.name for c in rep.failed_checks()])


def test_verdicts_hold_from_2_to_the_minus_24_to_2_to_the_24():
    # the Lambda^2_14 gates of nabla-bar tau and the split, the conversion,
    # the structure equations, first Bianchi and every check of the closed
    # chain are judged against the size of what they compare: absolute,
    # CLOSED_Z left Lambda^2_14 at 2^12 (membership residual 1.5e-8 on a
    # stack of size 1.9e8), the almost-abelian conversion failed from 2^12,
    # the structure equations (7 of these inputs at 2^24) and delta phi = tau
    # from 2^21, and the cyclic identity at 2^24
    rng = np.random.default_rng(77)
    specs = [closed_almost_abelian("closed", CLOSED_Z)]
    specs += [closed_nilpotent(name) for name in sorted(CLOSED_NILPOTENT)]
    specs += [closed_almost_abelian(f"closed {i}", seeded_closed_z(rng)) for i in range(12)]
    rng = np.random.default_rng(3)
    specs += [almost_abelian(f"aa{i}", rng.integers(-8, 9, size=(6, 6)) / 4) for i in range(4)]
    for spec in specs:
        for k in range(-24, 25):
            rep = analyze(LieAlgebraSpec(spec.name, spec.c * 2.0**k))
            assert rep.passed, (spec.name, k, [c.name for c in rep.failed_checks()])


#: the checks whose scale is 0 on an input where their residual is not:
#: hyperbolic space is Einstein, so Ric0^k is 0 while the canonical route's
#: terms are not (these fail from lambda = 2^13)
UNSCALED = {
    ("hyperbolic", "Ricci formula, canonical route, k=(1, 0)"),
    ("hyperbolic", "Ricci formula, canonical route, k=(0, 1)"),
}


def test_every_check_scales_by_its_catalogue_weight():
    # structure constants 2^k c give each check 2^(k w) times the residual
    # and the scale of c, bit for bit, with w the weight of its catalogue row
    weight = dict(zip(CHECKS["name"], CHECKS["weight"].tolist()))
    specs = [ex["spec"] for ex in builtin_examples().values()]
    specs.append(closed_almost_abelian("CLOSED_Z", CLOSED_Z))
    specs += [closed_nilpotent(name) for name in sorted(CLOSED_NILPOTENT)]
    rng = np.random.default_rng(3)
    specs += [almost_abelian(f"aa{i}", rng.integers(-8, 9, size=(6, 6)) / 4) for i in range(3)]
    recorded, nonzero, unscaled = {}, set(), set()
    for spec in specs:
        unit = analyze(spec).checks
        recorded[spec.name] = {c.name for c in unit}
        nonzero |= {c.name for c in unit if c.residual or c.scale}
        unscaled |= {(spec.name, c.name) for c in unit if c.residual and not c.scale}
        for k in (-13, 5, 13):
            scaled = analyze(LieAlgebraSpec(spec.name, spec.c * 2.0**k)).checks
            assert [c.name for c in scaled] == [c.name for c in unit], (spec.name, k)
            for got, want in zip(scaled, unit):
                w = weight[got.name]
                assert got.residual == math.ldexp(want.residual, k * w), (spec.name, k, got.name)
                assert got.scale == math.ldexp(want.scale, k * w), (spec.name, k, got.name)
    assert set().union(*recorded.values()) == set(weight)
    epr = "closed: EPR norm identity (dbar tau = 0)"
    assert epr in recorded["flat"] and epr in recorded["bryant"] and epr not in recorded["CLOSED_Z"]
    # Jacobi and d^2 are exactly 0 on dyadic constants; every other check
    # compares something nonzero on some input
    assert set(weight) - nonzero == {"jacobi (d d e^k = 0)", "d^2 = 0 (all degrees)"}
    assert unscaled == UNSCALED


#: the checks of `analyze` whose residuals are rounding on Gamma
GAMMA_CHECKS = (
    "Levi-Civita metric (Gamma antisym in last two)",
    "Levi-Civita torsion-free",
    "d = alt(grad) on phi",
    "nabla-bar phi = 0",
    "nabla-bar g = 0 (gamma-bar antisymmetry)",
    "gamma-bar is g2-valued",
)


def test_gamma_rounding_checks_are_judged_against_gamma():
    # judged absolutely, CLOSED_Z failed "nabla-bar phi = 0" from 2^23 (3.7e-9
    # at 2^24 against 1e-9), a residual that the nabla-bar phi gate itself
    # passed against bound(1e-9, max |Gamma|)
    spec = closed_almost_abelian("closed", CLOSED_Z)
    scaled = LieAlgebraSpec(spec.name, spec.c * 2.0**24)
    rep = analyze(scaled)
    assert rep.passed, [c.name for c in rep.failed_checks()]
    size = max_abs(geometry(scaled).gamma)
    judged = {c.name: c for c in rep.checks if c.name in GAMMA_CHECKS}
    assert sorted(judged) == sorted(GAMMA_CHECKS)
    for c in judged.values():
        assert c.scale == size > 1e7 and c.tol == bound(rep.tol, size), c.name


def _mutant_residuals(geo) -> dict:
    """Per rescaled check of the closed chain, the residual of a mutant of
    what it compares: 1/5 for the 1/6 of *(tau^tau) in the canonical
    identity, d tau for d^nabla-bar tau in the Lambda^3_27 check, and the
    Lambda^3_27 piece of wedge3(nabla-bar tau) pulled back as the 7-part in
    the 7-part check (every Lambda^3_7 piece vanishes on a closed structure,
    so no mutant of the derivative moves it)."""
    from g2lab.g2_algebra import _split_v14_tables

    exact = geo.exact
    tau, phi = geo.torsion.tau2, geo.phi.coeffs
    dtau, dbar_tau = (geo.ricci_derivs[route][1].coeffs for route in ("exterior", "canonical"))
    star_tt = geo.ricci_terms["*(tau2^tau2)"].coeffs
    rhs = dtau - star_tt / 5 - tau.norm2() * phi / 6
    _, adjoint, _ = _split_v14_tables(exact)
    g7 = projector_matrix(3, 27, exact).dot(dbar_tau).dot(adjoint)
    return {
        "closed: canonical-derivative identity for d tau": max_abs(dbar_tau - rhs),
        "closed: d^nabla-bar tau lands in Lambda^3_27": max_abs(
            projector_matrix(3, 1, exact).dot(dtau), projector_matrix(3, 7, exact).dot(dtau)
        ),
        "closed: nabla-bar tau has no 7-part": max_abs(g7),
    }


@pytest.mark.parametrize("k", [-10, 0, 10])
def test_rescaled_judges_still_catch_a_mutant(monkeypatch, k):
    import g2lab.torsion as tr
    from g2lab.torsion import CONVERSION_TABLE

    lam = 2.0**k
    # the conversion with 3 for the 8/3 of its 7-part fails its check
    spec = almost_abelian("aa", np.random.default_rng(5).integers(-8, 9, size=(6, 6)) / 4)
    spec = LieAlgebraSpec("aa", spec.c * lam)
    name = "d tau2 vs canonical-derivative conversion"
    assert analyze(spec).passed
    weights = tr._conversion_weights(False).copy()
    weights[[n for n, _ in CONVERSION_TABLE].index("(tau1^tau2)_7")] = -3.0
    monkeypatch.setattr(tr, "_conversion_weights", lambda exact: weights)
    assert [c.name for c in analyze(spec).failed_checks()] == [name]
    monkeypatch.undo()

    # the closed chain's rescaled checks against mutants of what they compare
    spec = closed_almost_abelian("closed", CLOSED_Z)
    spec = LieAlgebraSpec("closed", spec.c * lam)
    rep = analyze(spec)
    assert rep.passed
    tols = {c.name: c.tol for c in rep.checks}
    for name, residual in _mutant_residuals(geometry(spec)).items():
        assert residual > tols[name], (name, residual, tols[name])
    # and the Lambda^2_14 gate of nabla-bar tau rejects the Levi-Civita one
    with pytest.raises(ValueError, match="left Lambda\\^2_14"):
        nabla_bar_tau(_with_gamma_bar(spec, levi_civita(spec)))


def test_connection_pass_matches_the_per_form_actions():
    # the stacked pass against one scatter, action and alternation per form:
    # the same Fractions in exact mode and the same floats up to rounding
    from g2lab.exterior_algebra import _connection_stack

    rng = np.random.default_rng(19)
    specs = [ex["spec"] for ex in builtin_examples().values()]
    specs += [closed_almost_abelian("closed", CLOSED_Z), builtin_examples(exact=True)["bryant"]["spec"]]
    specs += [almost_abelian(f"aa{i}", rng.normal(size=(6, 6))) for i in range(4)]
    for spec in specs:
        geo = geometry(spec)
        t = geo.torsion
        forms = (geo.phi, geo.ricci_terms["*(tau1^*phi)"], t.tau2, t.tau3)
        bar, alts = geo.connection_pass
        want_bar = np.concatenate([_connection_stack(geo.gamma_bar, a) for a in forms], axis=1)
        want_alts = [covariant_wedge(geo.gamma, geo.phi)] + [covariant_wedge(geo.gamma_bar, a) for a in forms[1:]]
        want_alts = np.array([a.coeffs for a in want_alts])
        if spec.exact:
            assert np.array_equal(bar, want_bar) and np.array_equal(alts, want_alts)
            continue
        size = max_abs(geo.gamma) * max(max_abs(a.coeffs) for a in forms)
        assert max_abs(bar - want_bar) <= 1e-14 * max(size, 1.0), spec.name
        assert max_abs(alts - want_alts) <= 1e-14 * max(size, 1.0), spec.name
    assert geo.nabla_bar_tau2 is geo.nabla_bar_tau2  # built once


def test_report_extend_judges_with_bound():
    # one vectorised bounds per family gives each check the tolerance
    # bound(tol, scale) * slack of its catalogue row, bit for bit, and plain
    # floats; a NaN scale or residual fails
    rng = np.random.default_rng(23)
    scales = [0.0, 0.5, 1.0, 3.7, 1e8, float("nan")] + np.exp(rng.normal(size=20) * 5).tolist()
    residuals = (rng.random(len(scales)) * 1e-8).tolist() + [float("nan")]
    scales.append(1.0)
    names = [f"c{i}" for i in range(len(scales))]
    slacks = rng.choice([1, 10, 50], size=len(scales))
    for slack in (1, 50, slacks):
        slack = np.broadcast_to(slack, len(scales)).tolist()
        rep = Report("family", 1e-9)
        rep.extend(_catalogue(*zip(names, [0] * len(names), slack)), zip(residuals, scales))
        want = [bound(1e-9, sc) * sl for sc, sl in zip(scales, slack)]
        assert [c.tol.hex() for c in rep.checks] == [w.hex() for w in want]
        assert {type(v) for c in rep.checks for v in (c.residual, c.tol, c.scale)} == {float}
    assert [c.name for c in rep.checks] == names
    assert not rep.checks[5].passed and not rep.checks[-1].passed  # NaN scale, NaN residual


def test_exact_mode_bryant():
    from fractions import Fraction

    ex = builtin_examples(exact=True)["bryant"]
    geo = geometry(ex["spec"])
    s = scalar_curvature(geo.curvature)
    assert s == -36
    from g2lab.curvature import ricci, traceless_part

    ric0 = traceless_part(ricci(geo.curvature))
    assert (ric0 * ric0).sum() == Fraction(4, 21) * s * s
    assert all(v == 0 for v in nabla_bar_tau(geo).array.reshape(-1))


def test_conformal_scaling_of_lie_spec():
    # scaling the structure constants by e^-f rescales Ric^W by e^-2f
    import math

    spec = builtin_examples()["bryant"]["spec"]
    f0 = 0.42
    scaled = LieAlgebraSpec("bryant-scaled", math.exp(-f0) * spec.c)
    rw = ric_W(geometry(spec).curvature)
    rw2 = ric_W(geometry(scaled).curvature)
    assert max_abs(rw) > 1.0
    assert max_abs(rw2 - math.exp(-2 * f0) * rw) < 1e-10
    assert fg_type(geometry(scaled).torsion) == {2}


def test_analyze_builds_each_stage_once(monkeypatch):
    import g2lab.curvature as cv
    import g2lab.exterior_algebra as ea
    import g2lab.homogeneous as hm
    import g2lab.torsion as tr

    spec = builtin_examples()["bryant"]["spec"]
    hm.analyze(spec)  # builds the cached tables, r_g(g) among them
    lc = hm.levi_civita(spec)  # an action of any other gamma is gamma-bar's
    tau2 = hm.geometry(spec).torsion.tau2
    calls = {}

    def count(name):
        calls[name] = calls.get(name, 0) + 1

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            count(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    real_matrix, real_action = ea.connection_matrix, ea.connection_action

    def matrix(*forms):
        # the one scatter of the canonical-connection pass: phi, *(tau1 ^ *phi), tau2, tau3
        degrees = tuple(a.degree for a in forms)
        if degrees == (3, 2, 2, 3) and np.array_equal(forms[0].coeffs, PHI.coeffs):
            if np.array_equal(forms[2].coeffs, tau2.coeffs):
                count("pass scatter")
        return real_matrix(*forms)

    def action(gamma, m):
        if np.array_equal(gamma, lc):
            count(f"gamma action {m.shape}")
        else:
            count(f"gamma-bar action {m.shape}")
        return real_action(gamma, m)

    # d^nabla-bar of a form reaches the scatter and the action through
    # covariant_wedge; the pass makes one scatter of the four forms, which
    # gamma-bar acts on through connection_action
    for module in (hm, ea):
        monkeypatch.setattr(module, "connection_matrix", matrix)
        monkeypatch.setattr(module, "connection_action", action)
    # the Lambda^2_14 residual and size of nabla-bar tau, which two gates read
    real_membership = MixedV14.membership.func

    def membership(mixed):
        count("membership")
        return real_membership(mixed)

    counting_membership = functools.cached_property(membership)
    counting_membership.__set_name__(MixedV14, "membership")
    monkeypatch.setattr(MixedV14, "membership", counting_membership)
    for name in (
        "invariant_d_matrices",
        "_koszul",
        "solve_structure_equations",
        "nabla_bar_tau",
        "ricci_terms",
    ):
        counting(hm, name)
    # the structure-equation check reads the residual of the extraction gate,
    # and the summary classifies from the norms it reports
    counting(tr, "recompose")
    counting(tr.TorsionComponents, "norms")
    # the curvature stages, wherever they are called from, and the
    # applications of the curvature module's tables
    for name in ("ricci", "phi_ricci", "kn_product", "phi_product", "bianchi_b"):
        for module in (cv, hm):
            if hasattr(module, name):
                counting(module, name)
    names = ("_pair_table", "_block_table", "_contraction_table", "_kn_table", "_phi_product_table", "_bianchi_table")
    curvature_tables = {id(getattr(cv, name)()) for name in names}
    real_apply = ea.LinearTable.apply

    def apply(table, x):
        if id(table) in curvature_tables:
            count("curvature table apply")
        return real_apply(table, x)

    monkeypatch.setattr(ea.LinearTable, "apply", apply)
    rep = hm.analyze(spec)
    assert rep.passed
    # one scatter of the pair matrix and one of (Ric0, Ric^W); r_g(g) is cached
    assert calls.pop("curvature table apply") == 2
    assert calls == {
        "invariant_d_matrices": 1,
        "_koszul": 1,
        "solve_structure_equations": 1,
        "norms": 1,
        "nabla_bar_tau": 1,
        "ricci_terms": 1,
        "pass scatter": 1,
        "gamma-bar action (49, 112)": 1,  # gamma's product with phi's block is the pass's own
        "membership": 1,
    }  # no recompose, no kn_product, no phi_product, no bianchi_b and no other scatter or action


def test_warm_analyze_unfolds_only_tau(monkeypatch):
    # tau in the closed chain: intrinsic_from_torsion is one table product and
    # the curvature is never unfolded into R_ijkl
    import sys

    spec = builtin_examples()["bryant"]["spec"]
    analyze(spec)  # builds every table once
    calls = []
    real = to_antisym

    def counting(a):
        calls.append(a.degree)
        return real(a)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "g2lab" and hasattr(mod, "to_antisym"):
            monkeypatch.setattr(mod, "to_antisym", counting)
    assert analyze(spec).passed
    assert calls == [2]


def test_warm_analyze_makes_no_from_terms_call(monkeypatch):
    spec = builtin_examples()["bryant"]["spec"]
    analyze(spec)  # builds every table once
    calls = []
    real = Form.from_terms

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(Form, "from_terms", staticmethod(counting))
    assert analyze(spec).passed
    assert calls == []


def _stage_values(geo) -> dict:
    """The stages of an invariant geometry as arrays and numbers."""
    values = {
        "phi": geo.phi.coeffs,
        "jacobi_product": geo.jacobi_product,
        "jacobi": geo.jacobi,
        "d_squared": geo.d_squared,
        "gamma": geo.gamma,
        "curvature": geo.curvature.mat,
        "dphi": geo.dphi.coeffs,
        "dstarphi": geo.dstarphi.coeffs,
        "structure_residual": geo.structure_residual,
        "xi": geo.xi.xi,
        "xi_bar": geo.xi.xi_bar,
        "gamma_bar": geo.gamma_bar,
        "nabla_bar_phi": geo.nabla_bar_phi,
        "nabla_bar_tau2": geo.nabla_bar_tau2,
    }
    values.update({f"d_mats[{k}]": m for k, m in geo.d_mats.items()})
    values.update({f"ricci_terms[{name}]": f.coeffs for name, f in geo.ricci_terms.items()})
    for route, derivs in geo.ricci_derivs.items():
        values.update({f"ricci_derivs[{route}][{i}]": f.coeffs for i, f in enumerate(derivs)})
    t = geo.torsion
    values.update(tau0=t.tau0, tau1=t.tau1.coeffs, tau2=t.tau2.coeffs, tau3=t.tau3.coeffs)
    return values


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_lazy_geometry_matches_the_eager_reference(exact):
    # every stage of the lazy object is the eager pass's, bit for bit in
    # float and the same Fractions in exact mode; the structure residual of
    # the extraction gate is the one recompose measured
    rng = np.random.default_rng(17)
    specs = [ex["spec"] for ex in builtin_examples(exact).values()]
    if not exact:  # exact mode spends seconds per algebra
        specs.append(closed_almost_abelian("closed", CLOSED_Z))
        specs += [closed_almost_abelian(f"closed {i}", seeded_closed_z(rng)) for i in range(3)]
        for i in range(4):
            specs.append(almost_abelian(f"aa{i}", rng.integers(-8, 9, size=(6, 6)) / 4))
            specs.append(almost_abelian(f"aa{i}-normal", rng.normal(size=(6, 6))))
    for spec in specs:
        got, want = _stage_values(geometry(spec)), _stage_values(reference.eager_geometry(spec))
        assert got.keys() == want.keys()
        for name, w in want.items():
            g = got[name]
            if not isinstance(w, np.ndarray):
                assert type(g) is type(w) and g == w, (spec.name, name)
            elif exact:
                assert set(map(type, g.flat)) <= {Fraction}, (spec.name, name)
                assert g.shape == w.shape and np.array_equal(g, w), (spec.name, name)
            else:
                assert g.dtype == w.dtype and g.shape == w.shape, (spec.name, name)
                assert g.tobytes() == w.tobytes(), (spec.name, name)


def _reference_ricci_checks(geo, dec) -> dict:
    """The six Ricci-formula residuals of `analyze` through the per-route loop
    of `reference.loop_ricci_rows` and one lambda3 product per k."""
    residuals = {}
    for route, derivs in geo.ricci_derivs.items():
        rows = reference.loop_ricci_rows(route, derivs, geo.ricci_terms, K_VALUES)
        for k, row in zip(K_VALUES, rows):
            lhs = lambda3(k[0] * dec.ric0 + k[1] * dec.ric0_phi).coeffs
            residuals[f"Ricci formula, {route} route, k={k}"] = max_abs(row - lhs)
    return residuals


def _closed_reference_inputs():
    rng = np.random.default_rng(29)
    specs = [builtin_examples()["bryant"]["spec"], closed_almost_abelian("closed", CLOSED_Z)]
    specs += [closed_nilpotent(name) for name in sorted(CLOSED_NILPOTENT)]
    specs += [closed_almost_abelian(f"closed {i}", seeded_closed_z(rng)) for i in range(3)]
    return [LieAlgebraSpec(spec.name, spec.c * lam) for spec in specs for lam in (2.0**-3, 1.0, 2.0**3)]


def test_stacked_passes_match_the_per_k_and_per_route_references():
    # the closed chain and the Ricci-formula checks of `analyze` against the
    # per-k chain and the per-route rows of tests/reference.py on the same
    # stages: the same names, order, scales and verdicts, and each residual
    # within 1e-6 of its tolerance of the reference's
    worst = 0.0
    for spec in _closed_reference_inputs():
        rep = analyze(spec)
        geo = geometry(spec)
        dec = decompose(geo.curvature, tol=1e-8)
        ref = Report(spec.name, rep.tol)
        reference.loop_closed_structure_checks(ref, geo, dec)
        ricci = _reference_ricci_checks(geo, dec)
        got = {c.name: c for c in rep.checks}
        for name, residual in ricci.items():
            assert got[name].passed == (residual <= got[name].tol), (spec.name, name)
            worst = max(worst, abs(got[name].residual - residual) / got[name].tol)
        closed = [c for c in rep.checks if c.name.startswith("closed:")]
        assert [c.name for c in closed] == [c.name for c in ref.checks], spec.name
        for c, r in zip(closed, ref.checks):
            assert c.passed == r.passed, (spec.name, c.name)
            assert c.scale == pytest.approx(r.scale, rel=1e-12, abs=0), (spec.name, c.name)
            worst = max(worst, abs(c.residual - r.residual) / c.tol)
        for key in ("extremally_pinched", "parallel_torsion", "epr_identity"):
            assert rep.summary[key] == ref.summary[key], (spec.name, key)
    assert worst <= 1e-6, worst


@pytest.mark.parametrize("name", ["bryant", "closed"])
def test_stacked_passes_match_the_references_in_exact_mode(name):
    # exact mode: the same Ricci rows and lambda3 rows as Fractions, and the
    # closed chain records the same values as the per-k reference
    if name == "bryant":
        spec = builtin_examples(exact=True)["bryant"]["spec"]
    else:
        spec = closed_almost_abelian("closed", CLOSED_Z, exact=True)
    rep = analyze(spec)
    geo = geometry(spec)
    dec = decompose(geo.curvature, tol=1e-8)
    rows = ricci_rows(geo.ricci_derivs, geo.ricci_terms, K_VALUES)
    for got, (route, derivs) in zip(rows, geo.ricci_derivs.items()):
        want = reference.loop_ricci_rows(route, derivs, geo.ricci_terms, K_VALUES)
        assert set(map(type, got.flat)) == {Fraction} and np.array_equal(got, want)
    ric0k = np.array([k[0] * dec.ric0 + k[1] * dec.ric0_phi for k in K_VALUES])
    want = np.array([lambda3(h).coeffs for h in ric0k])
    got = lambda3_rows(ric0k)
    assert set(map(type, got.flat)) == {Fraction} and np.array_equal(got, want)
    for check_name, residual in _reference_ricci_checks(geo, dec).items():
        assert [c.residual for c in rep.checks if c.name == check_name] == [residual]
    ref = Report(spec.name, rep.tol)
    reference.loop_closed_structure_checks(ref, geo, dec)
    closed = [c.as_dict() for c in rep.checks if c.name.startswith("closed:")]
    assert closed == [c.as_dict() for c in ref.checks]
    assert {k: rep.summary[k] for k in ref.summary} == ref.summary


@pytest.mark.parametrize(
    "name, want",
    [
        ("aa", {"max_abs": 2, "bincount": 6, "Form": 27, "CurvatureTensor": 2, "extend": 1}),
        ("bryant", {"max_abs": 2, "bincount": 7, "Form": 31, "CurvatureTensor": 2, "extend": 2}),
    ],
    ids=["aa", "bryant"],
)
def test_warm_float_analyze_call_counts(monkeypatch, name, want):
    # d in degrees 2..6 is one scatter; d_2 d_1 is formed once for the
    # Levi-Civita gate, the Jacobi check and d^2; the canonical connection
    # is one scatter of four forms and two products (`connection_action` of
    # gamma-bar on all of them, and gamma on phi); the six Ricci-formula rows are one `ricci_rows`
    # call and their left sides one lambda3 product, which the closed chain
    # reads too; the six residuals are one reduction and the other check
    # residuals another; every float scatter is a bincount (d, the pass's
    # alternation, the Ricci and conversion terms, the pair matrix, the
    # (W27, R0) blocks, and in the closed chain the wedge tau ^ tau^2); the checks of
    # analyze and of the closed chain are one `Report.extend` each; value
    # objects are counted as they are built
    import sys

    import g2lab.g2_algebra as ga
    import g2lab.homogeneous as hm
    from g2lab.curvature import CurvatureTensor

    if name == "aa":
        spec = almost_abelian("aa", np.random.default_rng(5).integers(-8, 9, size=(6, 6)) / 4)
    else:
        spec = builtin_examples()[name]["spec"]
    hm.analyze(spec)  # builds every table once
    counts = {"add.at": 0, "bincount": 0, "jacobi product": 0, "max_abs": 0, "Form": 0, "CurvatureTensor": 0}
    d1, d_scatters = [], []
    products = {name: 0 for name in ("ricci_rows", "lambda3_rows", "lambda3", "connection_matrix", "connection_action")}
    products.update(add=0, extend=0)

    def counting_call(module, fname):
        real = getattr(module, fname)

        def wrapper(*args, **kwargs):
            products[fname] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, fname, wrapper)

    class AddAt:
        def __call__(self, *args, **kwargs):
            return np.add(*args, **kwargs)

        def __getattr__(self, attr):
            return getattr(np.add, attr)

        def at(self, *args):
            counts["add.at"] += 1
            return np.add.at(*args)

    class Numpy:
        add = AddAt()

        def bincount(self, *args):
            counts["bincount"] += 1
            return np.bincount(*args)

        def __getattr__(self, attr):
            return getattr(np, attr)

    class D2(np.ndarray):
        def dot(self, other, *args):
            counts["jacobi product"] += other is d1[0]
            return np.asarray(self).dot(other, *args)

    real_d = hm.invariant_d_matrices

    def d_matrices(spec):
        before = counts["bincount"] + counts["add.at"]
        mats = real_d(spec)
        d_scatters.append(counts["bincount"] + counts["add.at"] - before)
        d1.append(mats[1])
        mats[2] = mats[2].view(D2)
        return mats

    def counting_max_abs(*arrays):
        counts["max_abs"] += 1
        return max_abs(*arrays)

    def counting_init(cls):
        real = cls.__init__

        def init(self, *args, **kwargs):
            counts[cls.__name__] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    monkeypatch.setattr(hm, "invariant_d_matrices", d_matrices)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "g2lab":
            if hasattr(mod, "np"):
                monkeypatch.setattr(mod, "np", Numpy())
            if hasattr(mod, "max_abs"):
                monkeypatch.setattr(mod, "max_abs", counting_max_abs)
    counting_init(Form)
    counting_init(CurvatureTensor)
    counting_call(hm, "ricci_rows")
    counting_call(hm, "lambda3_rows")
    counting_call(ga, "lambda3")
    counting_call(hm, "connection_matrix")
    counting_call(hm, "connection_action")
    counting_call(hm.Report, "add")
    counting_call(hm.Report, "extend")
    assert hm.analyze(spec).passed
    assert products.pop("extend") == want.pop("extend")
    assert products == {
        "ricci_rows": 1,
        "lambda3_rows": 1,
        "lambda3": 0,
        "connection_matrix": 1,
        "connection_action": 1,
        "add": 0,
    }
    assert d_scatters == [1] and counts["jacobi product"] == 1
    assert counts.pop("add.at") == 0 and counts.pop("jacobi product") == 1
    assert counts == want


@pytest.mark.parametrize("where", [0, 3, 6])
def test_nan_residual_fails_its_check(where):
    arr = np.full(7, 1e-13)
    arr[where] = np.nan
    assert np.isnan(max_abs(arr))
    assert np.isnan(max_abs(np.zeros(3), arr))
    assert np.isnan(max_abs(np.array(list(arr), dtype=object)))
    rep = Report("nan", 1e-9)
    rep.add("clean", max_abs(np.zeros(7)))
    rep.add("nan somewhere", max_abs(arr))
    assert [c.passed for c in rep.checks] == [True, False]
    assert not rep.passed


def test_every_analyze_check_is_judged_by_bound():
    rep = analyze(builtin_examples()["bryant"]["spec"])
    slacks = set()
    for c in rep.checks:
        found = {s for s in (1, 10, 50) if c.tol == bound(1e-9, c.scale) * s}
        assert found, (c.name, c.tol, c.scale)
        slacks |= found
        assert c.as_dict()["scale"] == c.scale
    # every slack is in use, and scales above the unit floor reach the bound
    assert set(slacks) == {1, 10, 50}
    assert any(c.scale > 1 and c.tol > 50e-9 for c in rep.checks)


# --- batched connection action against a per-component loop -----------------------


def _seeded(shape, exact, rng):
    if exact:
        nums = rng.integers(-9, 10, size=shape)
        dens = rng.integers(1, 6, size=shape)
        out = np.empty(shape, dtype=object)
        out.flat[:] = [Fraction(int(n), int(d)) for n, d in zip(nums.flat, dens.flat)]
        return out
    return rng.normal(size=shape)


def ref_connection_form_action(gamma, a, exact):
    """(grad_i a)_J = -sum_s sum_p Gamma[i, j_s, p] a[J with j_s -> p], entry by entry."""
    arr = to_antisym(a).array
    out = []
    for i in range(7):
        c = [Fraction(0) if exact else 0.0 for _ in range(dim_of(a.degree))]
        for pos, J in enumerate(BASIS[a.degree]):
            for s in range(len(J)):
                for p in range(7):
                    c[pos] -= gamma[i, J[s], p] * arr[J[:s] + (p,) + J[s + 1 :]]
        out.append(c)
    return out


def assert_matches_ref(got, want, exact):
    got = np.asarray(got).reshape(-1)
    want = np.asarray(want, dtype=object if exact else float).reshape(-1)
    if exact:
        assert set(map(type, got)) == {Fraction}
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def ref_d(spec, degree, exact):
    """Columns d e^I = sum_s (-1)^s de^(i_s) ^ e^(I - i_s), through `wedge`,
    with de^h = -sum_(i<j) c^h_ij e^ij read off the structure constants."""
    de = [Form(2, -np.array([spec.c[h, i, j] for i, j in BASIS[2]])) for h in range(7)]
    cols = []
    for I in BASIS[degree]:
        col = Form.zero(degree + 1, exact)
        for s, head in enumerate(I):
            rest = Form.basis([i + 1 for i in I[:s] + I[s + 1 :]], exact)
            col = col + (-1) ** s * wedge(de[head], rest)
        cols.append(col.coeffs)
    return np.stack(cols, axis=1)


def ref_riemann(spec, gamma):
    """R_ijkl = Gamma_jkp Gamma_ipl - Gamma_ikp Gamma_jpl - c^p_ij Gamma_pkl as
    three full 7^4 terms, read off at the pair-matrix entries."""
    gg = np.tensordot(gamma, gamma, axes=([2], [1]))  # (j,k),(i,l) -> j,k,i,l
    term1 = gg.transpose(2, 0, 1, 3)  # Gamma_jkp Gamma_ipl -> (i,j,k,l)
    term2 = term1.transpose(1, 0, 2, 3)  # i <-> j
    term3 = np.tensordot(spec.c.transpose(1, 2, 0), gamma, axes=([2], [0]))  # c^p_ij Gamma_pkl
    i, j = np.array(BASIS[2]).T[:, :, None]
    return (term1 - term2 - term3)[i, j, i.T, j.T]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_riemann_matches_the_full_array_reference(exact):
    # the pair-matrix entries repeat the reference's arithmetic: bit for bit
    # in float, the same Fractions in exact mode
    rng = np.random.default_rng(31)
    examples = builtin_examples(exact)
    specs = [examples[name]["spec"] for name in ("hyperbolic", "bryant")]
    specs.append(closed_almost_abelian("closed", CLOSED_Z, exact))
    specs.append(closed_almost_abelian("closed-seeded", seeded_closed_z(rng), exact))
    for i in range(1 if exact else 4):
        d4 = rng.integers(-8, 9, size=(6, 6))
        specs.append(almost_abelian(f"aa{i}", as_mode(d4, exact) / 4))
        if not exact:  # not dyadic: every product rounds
            specs.append(almost_abelian(f"aa{i}-normal", rng.normal(size=(6, 6))))
    for spec in specs:
        gamma = levi_civita(spec)
        got, want = riemann(spec, gamma).mat, ref_riemann(spec, gamma)
        if exact:
            assert set(map(type, got.flat)) == {Fraction} and np.array_equal(got, want)
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact", [False, True])
def test_d_matrices_match_leibniz_reference(exact):
    rng = np.random.default_rng(22)
    c = _seeded((7, 7, 7), exact, rng)
    spec = LieAlgebraSpec("random", c - c.transpose(0, 2, 1))  # Jacobi is not needed for d
    mats = invariant_d_matrices(spec)
    for degree in range(1, 7):
        assert_matches_ref(mats[degree], ref_d(spec, degree, exact), exact)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_one_scatter_d_matches_the_per_degree_build(exact):
    # the rows of every output entry keep their order: bit for bit in float,
    # the same Fractions in exact mode
    rng = np.random.default_rng(23)
    specs = [ex["spec"] for ex in builtin_examples(exact).values()]
    for i in range(2 if exact else 6):
        d4 = rng.integers(-8, 9, size=(6, 6))
        specs.append(almost_abelian(f"aa{i}", as_mode(d4, exact) / 4))
        if not exact:  # not dyadic: the sums round
            specs.append(almost_abelian(f"aa{i}-normal", rng.normal(size=(6, 6))))
    c = _seeded((7, 7, 7), exact, rng)
    specs.append(LieAlgebraSpec("dense", c - c.transpose(0, 2, 1)))  # every entry nonzero
    for spec in specs:
        got, want = invariant_d_matrices(spec), reference.loop_invariant_d_matrices(spec)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].dtype == want[k].dtype and got[k].shape == want[k].shape, (spec.name, k)
            if exact:
                assert set(map(type, got[k].flat)) == {Fraction}, (spec.name, k)
                assert np.array_equal(got[k], want[k]), (spec.name, k)
            else:
                assert got[k].tobytes() == want[k].tobytes(), (spec.name, k)


@pytest.mark.parametrize("exact", [False, True])
def test_connection_action_and_covariant_wedge_match_loop_reference(exact):
    rng = np.random.default_rng(21)
    gamma = _seeded((7, 7, 7), exact, rng)  # any coefficients, not only metric ones
    for degree in range(7):
        a = Form(degree, _seeded(dim_of(degree), exact, rng))
        ref = ref_connection_form_action(gamma, a, exact)
        slices = connection_form_action(gamma, a)
        assert [s.degree for s in slices] == [degree] * 7
        assert_matches_ref([s.coeffs for s in slices], ref, exact)
        alt = Form.zero(degree + 1, exact)
        for i in range(7):
            alt = alt + wedge(Form.basis((i + 1,), exact), Form(degree, np.array(ref[i], dtype=alt.coeffs.dtype)))
        assert_matches_ref(covariant_wedge(gamma, a).coeffs, alt.coeffs, exact)


def test_connection_action_keeps_its_antisymmetry_check():
    gamma = np.zeros((7, 7, 7))
    gamma[2, 0, 1] = np.nan  # one slice of the stack goes bad
    with pytest.raises(ValueError, match="input array is not antisymmetric"):
        connection_form_action(gamma, PHI)


# --- NaN never passes a gate ---------------------------------------------------------


def _nan(shape):
    return np.full(shape, np.nan)


def _with_gamma_bar(spec, gamma_bar) -> InvariantGeometry:
    """The geometry of spec with its canonical connection replaced by
    gamma_bar and nothing built on it yet: the stack of nabla-bar tau2 and
    its checks run in the next call that reads it."""
    geo = InvariantGeometry(spec)
    geo.__dict__["gamma_bar"] = gamma_bar
    assert "nabla_bar_tau2" not in geo.__dict__
    return geo


NAN_GATES = {
    "extract_torsion: phi": (
        lambda: extract_torsion(Form(3, _nan(35)), Form.zero(4), Form.zero(5)),
        "standard three-form",
    ),
    "extract_torsion: d phi": (  # once returned tau0 = nan
        lambda: extract_torsion(PHI, Form(4, _nan(35)), Form.zero(5)),
        "irreducible subspaces|not generated by any torsion quadruple",
    ),
    "recompose: membership": (
        lambda: recompose(TorsionComponents(0.0, Form.zero(1), Form.zero(2), Form(3, _nan(35)))),
        "not in their irreducible subspaces",
    ),
    "sym2_from_27": (lambda: sym2_from_27(Form(3, _nan(35))), "not in Lambda\\^3_27"),
    "split_v14": (lambda: split_v14(MixedV14(_nan((7, 21)))), "not in Lambda\\^2_14"),
    "nabla_bar_tau": (  # the connection action rejects a NaN connection
        lambda: nabla_bar_tau(_with_gamma_bar(builtin_examples()["flat"]["spec"], _nan((7, 7, 7)))),
        "input array is not antisymmetric",
    ),
    "closed_identities": (
        lambda: reference.closed_identities(Form(2, _nan(21))),
        "not in Lambda\\^2_14",
    ),
    "LieAlgebraSpec": (lambda: LieAlgebraSpec("nan", _nan((7, 7, 7))), "must be finite"),
    "LieAlgebraSpec: one constant": (
        lambda: LieAlgebraSpec("nan", np.where(np.arange(343).reshape(7, 7, 7) == 6, np.nan, 0.0)),
        "must be finite",
    ),
    "decompose": (lambda: decompose(CurvatureTensor(_nan((21, 21)))), "first Bianchi identity"),
}


@pytest.mark.parametrize("gate", sorted(NAN_GATES))
def test_nan_input_fails_the_gate(gate):
    call, message = NAN_GATES[gate]
    with pytest.raises(ValueError, match=message):
        call()


def test_nabla_bar_tau_rejects_a_connection_that_is_not_g2():
    spec = builtin_examples()["bryant"]["spec"]
    # Levi-Civita moves tau out of Lambda^2_14 where the canonical connection does not
    with pytest.raises(ValueError, match="left Lambda\\^2_14"):
        nabla_bar_tau(_with_gamma_bar(spec, levi_civita(spec)))


def test_nan_reconstruction_fails_the_extraction_gate(monkeypatch):
    import g2lab.torsion as tr

    # extraction rebuilds (d phi, d *phi) with the packed structure equations
    extract, membership, rebuild = tr._structure_tables(False)
    monkeypatch.setattr(tr, "_structure_tables", lambda exact: (extract, membership, _nan(rebuild.shape)))
    with pytest.raises(ValueError, match="not generated by any torsion quadruple"):
        extract_torsion(PHI, Form.zero(4), Form.zero(5))
