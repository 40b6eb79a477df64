"""Irreducible projections, lambda3 / sigma, quadratic brackets, V* (x) L14."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from g2lab._linalg import max_abs, scalar
from g2lab.exterior_algebra import (
    Form,
    basis_vector,
    contract,
    dim_of,
    form_inner,
    frame_interior,
    hodge,
    interior,
    phi_arrays,
    standard_omega,
    standard_phi,
    standard_psi_minus,
    standard_psi_plus,
    to_antisym,
    wedge,
)
from g2lab.g2_algebra import (
    SIGMA_LAMBDA3_CONSTANT,
    SPLIT_V14_CONSTANTS,
    VALID_LABELS,
    MixedV14,
    iphi_matrix,
    lambda3,
    wedge3_test_pair,
    mixed_project_14,
    odot_bracket,
    project,
    projector_matrix,
    quad_A,
    quad_B,
    sigma_contract,
    split_v14,
    sym2_from_27,
    tensor_product,
    wedge3,
)

RNG = np.random.default_rng(7)


def random_in(label, rng=RNG):
    r, d = label
    return Form(r, projector_matrix(r, d).dot(rng.normal(size=dim_of(r))))


def random_traceless(rng=RNG):
    h = rng.normal(size=(7, 7))
    h = (h + h.T) / 2
    return h - np.eye(7) * np.trace(h) / 7


# --- projector suite ---------------------------------------------------------


@pytest.mark.parametrize("label", VALID_LABELS)
def test_projector_idempotent_selfadjoint_trace(label):
    p = projector_matrix(*label)
    assert max_abs(p.dot(p) - p) < 1e-12
    assert max_abs(p - p.T) < 1e-12
    assert abs(np.trace(p) - label[1]) < 1e-12


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_projectors_complete_and_mutually_annihilating(degree):
    labels = [l for l in VALID_LABELS if l[0] == degree]
    total = sum(projector_matrix(*l) for l in labels)
    assert max_abs(total - np.eye(dim_of(degree))) < 1e-12
    for la, lb in itertools.combinations(labels, 2):
        assert max_abs(projector_matrix(*la).dot(projector_matrix(*lb))) < 1e-12


@pytest.mark.parametrize("label", [(2, 7), (2, 14), (3, 1), (3, 7), (3, 27)])
def test_hodge_intertwines_projectors(label):
    r, d = label
    star_lo = np.stack(
        [hodge(Form(r, c)).coeffs for c in np.eye(dim_of(r))], axis=1
    )
    star_hi = np.stack(
        [hodge(Form(7 - r, c)).coeffs for c in np.eye(dim_of(7 - r))], axis=1
    )
    lhs = projector_matrix(7 - r, d)
    rhs = star_lo.dot(projector_matrix(r, d)).dot(star_hi)
    assert max_abs(lhs - rhs) < 1e-12


def test_invalid_label_rejected():
    with pytest.raises(ValueError):
        projector_matrix(2, 27)
    with pytest.raises(ValueError):
        project(random_in((2, 7)), (3, 7))


def test_paper_test_elements():
    om = standard_omega()
    assert max_abs(project(om, (2, 7)).coeffs - om.coeffs) < 1e-13
    t = Form.from_terms(2, {(1, 2): 1, (3, 4): -1})
    assert max_abs(project(t, (2, 7)).coeffs) < 1e-13
    phi = standard_phi()
    assert max_abs(project(phi, (3, 1)).coeffs - phi.coeffs) < 1e-13
    psim = standard_psi_minus()
    assert max_abs(project(psim, (3, 7)).coeffs - psim.coeffs) < 1e-13
    w = 4 * wedge(om, Form.basis((7,))) - 3 * standard_psi_plus()
    assert max_abs(project(w, (3, 27)).coeffs - w.coeffs) < 1e-13


# --- lambda3 and sigma ---------------------------------------------------------


def test_lambda3_of_metric():
    out = lambda3(np.eye(7))
    np.testing.assert_allclose(out.coeffs, 3 * standard_phi().coeffs)


def test_lambda3_basis_example():
    h = np.zeros((7, 7))
    h[0, 0], h[1, 1] = 1.0, -1.0
    expected = Form.from_terms(
        3, {(1, 3, 5): 1, (1, 4, 6): -1, (2, 4, 5): 1, (2, 3, 6): 1}
    )
    np.testing.assert_allclose(lambda3(h).coeffs, expected.coeffs, atol=1e-14)


def test_lambda3_norm_identity_and_image():
    for _ in range(20):
        h = random_traceless()
        lam = lambda3(h)
        assert abs(lam.norm2() - 2 * (h * h).sum()) < 1e-10
        assert max_abs(project(lam, (3, 27)).coeffs - lam.coeffs) < 1e-10


def test_sigma_of_phi():
    np.testing.assert_allclose(sigma_contract(standard_phi()), 6 * np.eye(7))


def test_sigma_symmetry_criteria():
    s = sigma_contract(standard_psi_minus())
    assert max_abs(s - s.T) > 1.0  # not symmetric on Lambda^3_7
    a = random_in((3, 27)) + random_in((3, 1))
    s = sigma_contract(a)
    assert max_abs(s - s.T) < 1e-12  # symmetric without a 7-part
    s27 = sigma_contract(random_in((3, 27)))
    assert abs(np.trace(s27)) < 1e-12  # traceless without a 1-part


@pytest.mark.parametrize("exact", [False, True])
def test_iphi_matrix_rows_are_interior_products_of_phi(exact):
    m = iphi_matrix()
    assert m.dtype == np.int64 and not m.flags.writeable
    assert np.array_equal(m, frame_interior(standard_phi(exact)))


def test_sigma_lambda3_constant_frozen():
    for _ in range(5):
        h = random_traceless()
        s = sigma_contract(lambda3(h))
        s0 = s - np.eye(7) * np.trace(s) / 7
        assert max_abs(s0 - SIGMA_LAMBDA3_CONSTANT * h) < 1e-10


def test_sym2_from_27_inverts_lambda3():
    for _ in range(10):
        h = random_traceless()
        rec = sym2_from_27(lambda3(h))
        assert max_abs(rec - h) < 1e-10
        assert abs(np.trace(rec)) < 1e-12


def test_sym2_from_27_oracle_and_pattern():
    # independent least-squares oracle on the full 49-column lambda3 matrix
    a = 4 * wedge(standard_omega(), Form.basis((7,))) - 3 * standard_psi_plus()
    cols = []
    for i in range(7):
        for j in range(7):
            e = np.zeros((7, 7))
            e[i, j] = 0.5
            e[j, i] += 0.5
            cols.append(lambda3(e).coeffs)
    sol, *_ = np.linalg.lstsq(np.stack(cols, axis=1), a.coeffs, rcond=None)
    h_oracle = (sol.reshape(7, 7) + sol.reshape(7, 7).T) / 2
    h = sym2_from_27(a)
    assert max_abs(h - h_oracle) < 1e-9
    # traceless diagonal pattern proportional to diag(1,...,1,-6)
    np.testing.assert_allclose(h, -np.diag([1, 1, 1, 1, 1, 1, -6.0]), atol=1e-12)


def test_sym2_from_27_rejects_other_parts():
    with pytest.raises(ValueError):
        sym2_from_27(standard_phi())
    with pytest.raises(ValueError):
        sym2_from_27(standard_psi_minus())


def test_sym2_from_27_judges_relative_to_its_input():
    # a valid lambda3(h) passes and a pure Lambda^3_7 input fails at every scale
    h = random_traceless(np.random.default_rng(37))
    seven = project(Form(3, np.random.default_rng(38).normal(size=35)), (3, 7))
    for scale in 10.0 ** np.arange(-8, 9):
        rec = sym2_from_27(lambda3(scale * h))
        assert max_abs(rec - scale * h) <= 1e-12 * scale
        with pytest.raises(ValueError, match="not in Lambda\\^3_27"):
            sym2_from_27(scale * seven)


def test_sym2_from_27_zero():
    assert max_abs(sym2_from_27(Form.zero(3))) == 0.0


# --- quadratic brackets ----------------------------------------------------------


def test_quad_zero_and_linear_combination():
    z = Form.zero(3)
    assert max_abs(quad_A(z).coeffs) == 0.0
    assert max_abs(quad_B(z).coeffs) == 0.0
    # the combination [b^2]^A - 2 [b^2]^B of the Ricci formulas is quadratic in b
    b = random_in((3, 27))
    combination = [quad_A(x).coeffs - 2 * quad_B(x).coeffs for x in (b, 2 * b)]
    np.testing.assert_allclose(combination[1], 4 * combination[0], atol=1e-12)


def test_quad_images_avoid_seven_part():
    for seed in range(5):
        b = random_in((3, 27), np.random.default_rng(seed))
        assert max_abs(project(quad_A(b), (3, 7)).coeffs) < 1e-10
        assert max_abs(project(quad_B(b), (3, 7)).coeffs) < 1e-10


def test_odot_bracket_image():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = random_in((2, 14), rng)
        b = random_in((3, 27), rng)
        ob = odot_bracket(a, b)
        assert max_abs(project(ob, (3, 7)).coeffs) < 1e-10
        # the trivial part vanishes identically as well for this pairing
        assert max_abs(project(ob, (3, 1)).coeffs) < 1e-10


# --- V* (x) Lambda^2_14 -----------------------------------------------------------


def random_mixed(rng=RNG) -> MixedV14:
    return mixed_project_14(rng.normal(size=(7, 21)))


def test_split_reassembles_and_orthogonal():
    for seed in range(5):
        gamma = random_mixed(np.random.default_rng(seed))
        g64, g27, g7 = split_v14(gamma)
        assert max_abs((g64 + g27 + g7).array - gamma.array) < 1e-10
        for a, b in itertools.combinations((g64, g27, g7), 2):
            assert abs((a.array * b.array).sum()) < 1e-10
        assert max_abs(wedge3(g64).coeffs) < 1e-10
        w27 = wedge3(g27)
        assert max_abs(project(w27, (3, 27)).coeffs - w27.coeffs) < 1e-10
        w7 = wedge3(g7)
        assert max_abs(project(w7, (3, 7)).coeffs - w7.coeffs) < 1e-10


@pytest.mark.parametrize("exact", [False, True])
def test_split_constants_frozen(exact):
    # Schur: wedge3 of the adjoint pullback w -> p_14(e_i -| w) is c_d p_d on
    # 3-forms, so its trace over the basis 3-forms, projected to Lambda^3_d,
    # is d c_d
    for d, c in SPLIT_V14_CONSTANTS.items():
        q = projector_matrix(3, d, exact)
        tr = scalar(0, exact)
        for pos in range(35):
            tr += wedge3(mixed_project_14(frame_interior(Form(3, q[:, pos].copy())))).coeffs[pos]
        assert tr / d == scalar(c, exact)


def test_split_rejects_bad_slices():
    with pytest.raises(ValueError):
        split_v14(MixedV14(RNG.normal(size=(7, 21))))


def test_mixed_norm_identity_on_27_part():
    for seed in range(5):
        gamma = random_mixed(np.random.default_rng(seed))
        _, g27, _ = split_v14(gamma)
        assert (
            abs(7 * g27.tensor_norm2() - wedge3(g27).tensor_norm2())
            < 1e-9 * max(g27.tensor_norm2(), 1)
        )


def test_mixed_split_test_elements():
    gp, gpp = wedge3_test_pair()
    expected = Form.from_terms(3, {(1, 2, 7): 1, (3, 4, 7): -1})
    np.testing.assert_allclose(wedge3(gp).coeffs, expected.coeffs, atol=1e-14)
    assert max_abs(project(wedge3(gp), (3, 27)).coeffs - wedge3(gp).coeffs) < 1e-13
    assert abs(gp.tensor_norm2() - 4) < 1e-13
    assert abs(gpp.tensor_norm2() - 16 / 3) < 1e-13
    assert abs((gp.array * gpp.array).sum()) < 1e-14
    np.testing.assert_allclose(
        wedge3(gpp).coeffs, 4 / 3 * wedge3(gp).coeffs, atol=1e-13
    )
    # the kernel combination (the 64-part line inside span{gamma', gamma''})
    kernel_elt = 3 * gpp - 4 * gp
    assert max_abs(wedge3(kernel_elt).coeffs) < 1e-13
    g64, g27, g7 = split_v14(kernel_elt)
    assert max_abs(g27.array) < 1e-12 and max_abs(g7.array) < 1e-12
    # gamma = gamma' + gamma'' is pure 27
    g64, g27, g7 = split_v14(gp + gpp)
    assert max_abs(g64.array) < 1e-12 and max_abs(g7.array) < 1e-12


def test_mixed_split_exact_mode():
    from fractions import Fraction

    gp, gpp = wedge3_test_pair(exact=True)
    assert gp.tensor_norm2() == 4
    assert gpp.tensor_norm2() == Fraction(16, 3)
    assert all(
        3 * a == 4 * b for a, b in zip(wedge3(gpp).coeffs, wedge3(gp).coeffs)
    )
    gam = gp + gpp
    assert 7 * gam.tensor_norm2() == wedge3(gam).tensor_norm2()


def test_seven_part_generator_is_minus_psi_minus():
    acc = None
    for i in range(1, 7):
        piece = tensor_product(Form.basis((i,)), Form.basis((i, 7)))
        acc = piece if acc is None else acc + piece
    np.testing.assert_allclose(
        wedge3(acc).coeffs, -standard_psi_minus().coeffs, atol=1e-13
    )


def test_include_3form_weights():
    beta = random_in((3, 27))
    inc = frame_interior(beta)
    # sum_a e^a (x) i_a beta is an isometry for the tensor norms
    assert abs(2 * (inc * inc).sum() - beta.tensor_norm2()) < 1e-10


# --- index tables against plain loop references ----------------------------------
#
# The references are the per-basis loops the tables replaced, written with the
# wedge / interior / contract / Hodge kernels (themselves checked against loops
# in test_exterior_algebra.py).


def _seeded(shape, exact, rng):
    if exact:
        nums = rng.integers(-9, 10, size=shape)
        dens = rng.integers(1, 6, size=shape)
        out = np.empty(shape, dtype=object)
        out.flat[:] = [Fraction(int(n), int(d)) for n, d in zip(nums.flat, dens.flat)]
        return out
    return rng.normal(size=shape)


def _seeded_form(degree, exact, rng):
    return Form(degree, _seeded(dim_of(degree), exact, rng))


def assert_table_matches(got, want, exact):
    """Exact: identical Fractions; float: within 1e-14 max(1, |ref|) per entry."""
    got, want = np.asarray(got).reshape(-1), np.asarray(want).reshape(-1)
    assert got.shape == want.shape
    if exact:
        assert set(map(type, got)) == {Fraction}
        assert np.array_equal(got, want)
    else:
        assert got.dtype == float
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def ref_lambda3(h, exact):
    phi = standard_phi(exact)
    out = Form.zero(3, exact)
    for b in range(7):
        ib = interior(basis_vector(b + 1, exact), phi)
        for a in range(7):
            if h[a, b] != 0:
                out = out + h[a, b] * wedge(Form.basis((a + 1,), exact), ib)
    return out.coeffs


def ref_sigma(a):
    """sigma through the unfolded component arrays of phi and a."""
    p3, _ = phi_arrays(a.exact)
    return np.tensordot(p3, to_antisym(a).array, axes=([1, 2], [1, 2]))


def ref_odot_bracket(a, b, exact):
    out = Form.zero(a.degree + b.degree - 2, exact)
    for k in range(1, 8):
        ek = basis_vector(k, exact)
        out = out + wedge(interior(ek, a), interior(ek, b))
    return out.coeffs


def ref_quad_A(b, exact):
    out = Form.zero(3, exact)
    for k in range(1, 8):
        ik = interior(basis_vector(k, exact), b)
        out = out + hodge(wedge(ik, ik))
    return out.coeffs


def ref_quad_B(b, exact):
    phi = standard_phi(exact)
    out = Form.zero(3, exact)
    for k in range(1, 8):
        ek = basis_vector(k, exact)
        out = out + wedge(contract(interior(ek, phi), b), interior(ek, b))
    return out.coeffs


def ref_wedge3(arr, exact):
    out = Form.zero(3, exact)
    for i in range(7):
        out = out + wedge(Form.basis((i + 1,), exact), Form(2, arr[i]))
    return out.coeffs


@pytest.mark.parametrize("exact", [False, True])
def test_lambda3_matches_loop_reference(exact):
    rng = np.random.default_rng(11)
    for _ in range(3):
        h = _seeded((7, 7), exact, rng)  # not symmetric: lambda3 is defined on all of V* (x) V*
        assert_table_matches(lambda3(h).coeffs, ref_lambda3(h, exact), exact)
    g = np.eye(7, dtype=object) * Fraction(1) if exact else np.eye(7)
    assert_table_matches(lambda3(g).coeffs, ref_lambda3(g, exact), exact)


@pytest.mark.parametrize("exact", [False, True])
def test_sigma_matches_the_unfolded_contraction(exact):
    rng = np.random.default_rng(14)
    for _ in range(5):
        a = _seeded_form(3, exact, rng)  # all three parts, so sigma(a) is not symmetric
        got, want = sigma_contract(a), ref_sigma(a)
        if exact:
            assert_table_matches(got, want, exact)
        else:
            # per entry the reference sums six products phi_ipq a_jpq, the
            # table three and doubles them: a few roundings of max |a|
            assert max_abs(got - want) <= 16 * np.finfo(float).eps * max_abs(a.coeffs)


@pytest.mark.parametrize("exact", [False, True])
def test_sym2_from_27_inverts_lambda3_exactly_on_dyadic_input(exact):
    rng = np.random.default_rng(15)
    for _ in range(5):
        n = rng.integers(-64, 65, size=(7, 7))
        n = n + n.T
        n[6, 6] = -np.trace(n[:6, :6])
        h = np.vectorize(lambda v: Fraction(int(v), 8), otypes=[object])(n)
        if not exact:
            h = h.astype(float)  # dyadic, so float carries it exactly
        rec = sym2_from_27(lambda3(h))
        assert rec.dtype == h.dtype and np.array_equal(rec, h)


@pytest.mark.parametrize("exact", [False, True])
def test_brackets_match_loop_reference(exact):
    rng = np.random.default_rng(12)
    for ka, kb in [(2, 3), (3, 3), (1, 2), (2, 2)]:
        a, b = _seeded_form(ka, exact, rng), _seeded_form(kb, exact, rng)
        assert_table_matches(odot_bracket(a, b).coeffs, ref_odot_bracket(a, b, exact), exact)
    for _ in range(2):
        b = _seeded_form(3, exact, rng)
        qa, qb = ref_quad_A(b, exact), ref_quad_B(b, exact)
        assert_table_matches(quad_A(b).coeffs, qa, exact)
        assert_table_matches(quad_B(b).coeffs, qb, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_wedge3_and_inclusion_match_loop_reference(exact):
    rng = np.random.default_rng(13)
    arr = _seeded((7, 21), exact, rng)
    assert_table_matches(wedge3(MixedV14(arr)).coeffs, ref_wedge3(arr, exact), exact)
    beta = _seeded_form(3, exact, rng)
    rows = [interior(basis_vector(a + 1, exact), beta).coeffs for a in range(7)]
    assert_table_matches(frame_interior(beta), np.stack(rows), exact)


def _ref_matrix_of(op, degree, exact):
    """The operator's matrix, column by column on the basis forms."""
    cols = []
    for pos in range(dim_of(degree)):
        c = np.zeros(dim_of(degree), dtype=object if exact else float)
        if exact:
            c[:] = Fraction(0)
        c[pos] = Fraction(1) if exact else 1.0
        cols.append(op(Form(degree, c)))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("exact", [False, True])
def test_projectors_match_basis_by_basis_build(exact):
    phi = standard_phi(exact)
    ops = {
        (2, 7): (2, lambda a: (a.coeffs + hodge(wedge(a, phi)).coeffs) / 3),
        (2, 14): (2, lambda a: (2 * a.coeffs - hodge(wedge(a, phi)).coeffs) / 3),
        (3, 1): (3, lambda b: form_inner(b, phi) * phi.coeffs / 7),
        (3, 7): (3, lambda b: hodge(wedge(hodge(wedge(phi, b)), phi)).coeffs / 4),
    }
    for label, (degree, op) in ops.items():
        got, want = projector_matrix(*label, exact), _ref_matrix_of(op, degree, exact)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if not exact:
            assert got.tobytes() == want.tobytes()  # bit for bit, signs of zeros included
