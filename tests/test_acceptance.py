"""Acceptance suite: the package-level exit criteria.

Each test covers one numbered criterion at its stated tolerance and prints
one pass/fail line (visible with `pytest -s tests/test_acceptance.py`).
"""

import itertools
import math
import time

import numpy as np
import pytest

from g2lab._linalg import max_abs
from g2lab.exterior_algebra import (
    Form,
    check_contraction_identities,
    dim_of,
    hodge,
    standard_phi,
    wedge,
)
from g2lab.g2_algebra import (
    VALID_LABELS,
    lambda3,
    wedge3_test_pair,
    projector_matrix,
    wedge3,
)
from g2lab.curvature import (
    decompose,
    inner,
    kn_product,
    norm_split_residual,
    phi_product,
    phi_ricci,
    random_algebraic_curvature,
    ric_W,
    ricci,
    traceless_part,
)
from g2lab.homogeneous import (
    LieAlgebraSpec,
    analyze,
    builtin_examples,
    geometry,
    nabla_bar_tau,
)
from g2lab.torsion import (
    conformal_transform,
    extract_torsion,
    fg_type,
    recompose,
)
from dict_engine import conformal_warp
from reference import random_torsion
from g2lab.cohomo_one import (
    Jet,
    WarpSpec,
    jet_var,
    ricW_vanishes,
    scalar_curvature_warped,
    type_sweep,
    warped_torsion,
)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_identity_suite():
    """Contraction identities, mixed-splitting constants, curvature constants."""
    t_start = time.time()
    worst = 0.0

    worst = max(worst, max(check_contraction_identities().values()))

    rng = np.random.default_rng(1)
    h = rng.normal(size=(7, 7))
    h = (h + h.T) / 2
    h -= np.eye(7) * np.trace(h) / 7
    hn = (h * h).sum()
    worst = max(worst, abs(lambda3(h).norm2() - 2 * hn) / hn)

    gp, gpp = wedge3_test_pair()
    worst = max(worst, abs(gpp.tensor_norm2() - 16 / 3))
    worst = max(worst, abs(gp.tensor_norm2() - 4.0))
    worst = max(worst, max_abs(wedge3(gpp).coeffs - (4 / 3) * wedge3(gp).coeffs))
    gam = gp + gpp
    worst = max(
        worst, abs(7 * gam.tensor_norm2() - wedge3(gam).tensor_norm2()) / 10
    )

    rg, rp, rgg = kn_product(h), phi_product(h), kn_product(np.eye(7))
    worst = max(worst, max_abs(ricci(rg) - 5 * h))
    worst = max(worst, max_abs(ricci(rp) - h))
    worst = max(worst, max_abs(phi_ricci(rg) - 4 * h))
    worst = max(worst, max_abs(phi_ricci(rp) - (92 / 3) * h))
    worst = max(worst, max_abs(ricci(rgg) - 12 * np.eye(7)))
    worst = max(worst, max_abs(phi_ricci(rgg) + 24 * np.eye(7)))
    worst = max(worst, abs(rg.norm2() - 20 * hn) / hn)
    worst = max(worst, abs(rp.norm2() - (92 / 3) * hn) / hn)
    worst = max(worst, abs(inner(rp, rg) - 4 * hn) / hn)
    worst = max(worst, abs(rgg.norm2() - 336.0))

    # exact mode: the same identities, literally zero
    from fractions import Fraction
    from g2lab._linalg import as_mode, eye

    exact_zero = all(v == 0 for v in check_contraction_identities(exact=True).values())
    hq = as_mode(np.round(h * 32) / 32, True)
    hq = hq - eye(7, True) * (hq.trace() / 7)
    hqn = (hq * hq).sum()
    rgq, rpq = kn_product(hq), phi_product(hq)
    exact_zero &= rgq.norm2() == 20 * hqn
    exact_zero &= 3 * rpq.norm2() == 92 * hqn
    exact_zero &= inner(rpq, rgq) == 4 * hqn
    exact_zero &= kn_product(eye(7, True)).norm2() == 336
    gpq, gppq = wedge3_test_pair(exact=True)
    exact_zero &= gppq.tensor_norm2() == Fraction(16, 3)
    exact_zero &= 7 * (gpq + gppq).tensor_norm2() == wedge3(gpq + gppq).tensor_norm2()

    elapsed = time.time() - t_start
    report(
        "criterion 1: identity suite",
        worst < 1e-12 and exact_zero and elapsed < 5.0,
        f"float residual {worst:.2e}, exact zero: {exact_zero}, {elapsed:.2f}s",
    )


def test_criterion_2_projector_suite():
    worst = 0.0
    for degree in (2, 3, 4, 5):
        labels = [l for l in VALID_LABELS if l[0] == degree]
        total = sum(projector_matrix(*l) for l in labels)
        worst = max(worst, max_abs(total - np.eye(dim_of(degree))))
        for la, lb in itertools.combinations(labels, 2):
            worst = max(
                worst, max_abs(projector_matrix(*la).dot(projector_matrix(*lb)))
            )
        for l in labels:
            p = projector_matrix(*l)
            worst = max(worst, max_abs(p.dot(p) - p))
            worst = max(worst, abs(np.trace(p) - l[1]))
    # Hodge intertwining for the low degrees
    for r, d in [(2, 7), (2, 14), (3, 1), (3, 7), (3, 27)]:
        star_lo = np.stack(
            [hodge(Form(r, c)).coeffs for c in np.eye(dim_of(r))], axis=1
        )
        star_hi = np.stack(
            [hodge(Form(7 - r, c)).coeffs for c in np.eye(dim_of(7 - r))], axis=1
        )
        diff = projector_matrix(7 - r, d) - star_lo.dot(projector_matrix(r, d)).dot(
            star_hi
        )
        worst = max(worst, max_abs(diff))
    report("criterion 2: projector suite", worst < 1e-12, f"residual {worst:.2e}")


def test_criterion_3_curvature_decomposition():
    worst_rel = 0.0
    for seed in range(100):
        r = random_algebraic_curvature(seed)
        dec = decompose(r)
        n = r.norm2()
        worst_rel = max(worst_rel, max_abs(dec.reassemble().mat - r.mat) / n**0.5)
        blocks = [dec.w77, dec.w64, dec.w27, dec.ricci_block, dec.scalar_block]
        for a, b in itertools.combinations(blocks, 2):
            worst_rel = max(worst_rel, abs(inner(a, b)) / n)
        worst_rel = max(worst_rel, norm_split_residual(r, dec))
    # the nearly parallel shape: W in the 77-block plus tau0^2/32 r_g(g)
    tau0 = 1.3
    w = decompose(random_algebraic_curvature(7)).w77
    dec = decompose(w + (tau0**2 / 32) * kn_product(np.eye(7)), tol=1e-7)
    shape_ok = (
        abs(dec.s - (21 / 8) * tau0**2) < 1e-10
        and max_abs(dec.ric0) < 1e-10
        and max_abs(dec.w27.mat) < 1e-10
        and max_abs(dec.w64.mat) < 1e-10
    )
    report(
        "criterion 3: curvature decomposition on 100 random tensors",
        worst_rel < 1e-10 and shape_ok,
        f"worst relative residual {worst_rel:.2e}",
    )


def test_criterion_4_bryant_end_to_end():
    t_start = time.time()
    ex = builtin_examples()["bryant"]
    geo = geometry(ex["spec"])

    dphi = geo.d(geo.phi)
    ok = max_abs(dphi.coeffs) < 1e-12
    tau = geo.torsion.tau2
    from g2lab.g2_algebra import project

    ok &= max_abs(project(tau, (2, 14)).coeffs - tau.coeffs) < 1e-12
    ok &= max_abs(nabla_bar_tau(geo).array) < 1e-12
    dec = decompose(geo.curvature)
    ok &= max_abs(dec.w64.mat) < 1e-12

    rep = analyze(ex["spec"])
    ok &= rep.passed
    for c in rep.checks:
        if "Ricci formula" in c.name:
            ok &= c.residual < 1e-9 * 60
        if "contraction identity" in c.name or "squared contraction" in c.name:
            ok &= c.passed

    # extremally pinched in exact arithmetic
    from fractions import Fraction

    geo_q = geometry(builtin_examples(exact=True)["bryant"]["spec"])
    ric0 = traceless_part(ricci(geo_q.curvature))
    from g2lab.curvature import scalar_curvature

    s = scalar_curvature(geo_q.curvature)
    ok &= (ric0 * ric0).sum() == Fraction(4, 21) * s * s

    elapsed = time.time() - t_start
    ok &= elapsed < 10.0
    report(
        "criterion 4: Bryant example end to end",
        bool(ok),
        f"{elapsed:.2f}s, EPR exact: {(ric0 * ric0).sum()} = 4/21 s^2",
    )


def test_criterion_5_hyperbolic_example():
    geo = geometry(builtin_examples()["hyperbolic"]["spec"])
    dec = decompose(geo.curvature)
    ok = abs(dec.s + 42.0) < 1e-10
    for block in (dec.w77, dec.w64, dec.w27):
        ok &= max_abs(block.mat) < 1e-10
    ok &= max_abs(dec.ric0) < 1e-10
    ok &= fg_type(geo.torsion) == {4}
    ok &= max_abs(geo.torsion.tau1.coeffs - Form.basis((7,)).coeffs) < 1e-10
    report("criterion 5: hyperbolic solvable example", bool(ok), f"s = {dec.s}")


def test_criterion_6_warped_suite():
    rng = np.random.default_rng(99)
    worst_ric = 0.0
    for _ in range(50):
        spec = WarpSpec(
            Jet(rng.uniform(0.3, 2.0), rng.normal(), rng.normal()),
            Jet(rng.uniform(-2.0, 2.0), rng.normal(), rng.normal()),
            rng.uniform(0.0, 2.0),
        )
        warped_torsion(spec, tol=1e-9)  # raises if the two routes disagree
        worst_ric = max(worst_ric, ricW_vanishes(spec))
    ok = worst_ric < 1e-9

    t0 = 1.0
    spec = WarpSpec(jet_var(t0).sin(), jet_var(t0), 1.0)
    t = warped_torsion(spec)
    ok &= abs(t.tau0 - 4.0) < 1e-10 and fg_type(t) == {1}
    ok &= abs(scalar_curvature_warped(spec) - 42.0) < 1e-9

    ok &= fg_type(warped_torsion(WarpSpec(jet_var(t0), Jet.const(0.0), 1.0))) == frozenset()

    for tt in (0.3, 0.7, 1.2, 2.0, 2.8):
        tor = warped_torsion(WarpSpec(jet_var(tt).sin(), Jet.const(0.0), 1.0))
        ok &= abs(tor.tau1.coeffs[6] + math.tan(tt / 2)) < 1e-9

    report(
        "criterion 6: warped-product suite",
        bool(ok),
        f"worst RicW residual {worst_ric:.2e}",
    )


def test_criterion_7_type_sweep():
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
    ok = all(r in realized for r in required) and (1, 2, 3) not in realized
    report(
        "criterion 7: Fernandez-Gray sweep",
        ok,
        f"{len(realized)} classes realized",
    )


def test_criterion_8_round_trip():
    phi = standard_phi()
    worst = 0.0
    for seed in range(100):
        t = random_torsion(seed)
        dphi, dstar = recompose(t)
        back = extract_torsion(phi, dphi, dstar)
        worst = max(
            worst,
            abs(t.tau0 - back.tau0),
            max_abs(t.tau1.coeffs - back.tau1.coeffs),
            max_abs(t.tau2.coeffs - back.tau2.coeffs),
            max_abs(t.tau3.coeffs - back.tau3.coeffs),
        )
    report(
        "criterion 8: extract/recompose round trip",
        worst < 1e-10,
        f"worst residual {worst:.2e}",
    )


def test_criterion_9_conformal_covariance():
    # (a) the pointwise rescaling rule agrees with an independent geometric
    # recomputation on 20 random warped structures, and the Weyl-Ricci zero
    # set is preserved along the conformal family;
    # (b) on a Lie-group example with RicW != 0, a constant rescaling moves
    # the RicW components by exactly the conformal weight e^(-2f).
    rng = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for _ in range(20):
        spec = WarpSpec(
            Jet(rng.uniform(0.4, 1.8), rng.normal(), rng.normal()),
            Jet(rng.uniform(-2.0, 2.0), rng.normal(), rng.normal()),
            rng.uniform(0.0, 1.5),
        )
        u = Jet(0.4 * rng.normal(), rng.normal(), rng.normal())
        t_new = warped_torsion(conformal_warp(spec, u))
        du = Form(1, np.array([0, 0, 0, 0, 0, 0, u.d1]))
        t_pred = conformal_transform(warped_torsion(spec), u.value, du)
        e = math.exp(-u.value)
        worst = max(
            worst,
            abs(t_new.tau0 - t_pred.tau0),
            max_abs(t_new.tau1.coeffs - e * t_pred.tau1.coeffs),
            max_abs(t_new.tau2.coeffs - e**2 * t_pred.tau2.coeffs),
            max_abs(t_new.tau3.coeffs - e**3 * t_pred.tau3.coeffs),
        )
        ok &= ricW_vanishes(spec) < 1e-9 and ricW_vanishes(conformal_warp(spec, u)) < 1e-9
    ok &= worst < 1e-9

    spec = builtin_examples()["bryant"]["spec"]
    f0 = 0.31
    scaled = LieAlgebraSpec("scaled", math.exp(-f0) * spec.c)
    rw = ric_W(geometry(spec).curvature)
    rw2 = ric_W(geometry(scaled).curvature)
    ok &= max_abs(rw) > 1.0
    ok &= max_abs(rw2 - math.exp(-2 * f0) * rw) < 1e-9

    report(
        "criterion 9: conformal covariance of the Weyl-Ricci tensor",
        bool(ok),
        f"rule-vs-geometry residual {worst:.2e}",
    )
