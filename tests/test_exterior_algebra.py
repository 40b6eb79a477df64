"""Form calculus on R^7: wedge, star, interior, component arrays."""

import ast
import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import reference
from g2lab.exterior_algebra import (
    _PHI_TERMS,
    BASIS,
    _contract_table,
    _derivation_table,
    Form,
    antisym_coefficients,
    basis_vector,
    check_contraction_identities,
    check_multi_index,
    contract,
    dim_of,
    form_inner,
    frame_interior,
    frame_wedge,
    from_antisym,
    hodge,
    hodge_table,
    interior,
    phi_arrays,
    standard_omega,
    standard_phi,
    standard_phi_dual,
    standard_psi_minus,
    standard_psi_plus,
    to_antisym,
    wedge,
)
from reference import volume_form, wedge_all

RNG = np.random.default_rng(20240811)


def random_form(degree, rng=RNG, exact=False):
    return Form(degree, rng.normal(size=dim_of(degree)))


def test_multi_index_validation():
    assert check_multi_index((1, 2, 7)) == (0, 1, 6)
    with pytest.raises(ValueError):
        check_multi_index((2, 1))
    with pytest.raises(ValueError):
        check_multi_index((0, 3))
    with pytest.raises(ValueError):
        check_multi_index((1, 1, 2))
    with pytest.raises(ValueError):
        check_multi_index((1, 2), degree=3)


def test_form_shape_validation():
    with pytest.raises(ValueError):
        Form(2, np.zeros(5))
    with pytest.raises(ValueError):
        Form(9, np.zeros(1))


def test_wedge_basis_case():
    e1, e2 = Form.basis((1,)), Form.basis((2,))
    assert wedge(e1, e2).coeff((1, 2)) == 1.0
    assert wedge(e2, e1).coeff((1, 2)) == -1.0


def test_wedge_omega_cubed():
    om = standard_omega()
    result = wedge_all(om, om, om)
    expected = Form.from_terms(6, {(1, 2, 3, 4, 5, 6): 6})
    np.testing.assert_allclose(result.coeffs, expected.coeffs)


def test_wedge_graded_anticommutative():
    for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]:
        a, b = random_form(ka), random_form(kb)
        ab, ba = wedge(a, b), wedge(b, a)
        sign = (-1) ** (ka * kb)
        np.testing.assert_allclose(ab.coeffs, sign * ba.coeffs, atol=1e-13)


def test_wedge_degree_overflow_rejected():
    with pytest.raises(ValueError):
        wedge(random_form(4), random_form(5))


def brute_star(a: Form) -> Form:
    """Independent permutation-sign oracle for the Hodge star."""
    out = np.zeros(dim_of(7 - a.degree))
    for pos, idx in enumerate(BASIS[a.degree]):
        comp = tuple(i for i in range(7) if i not in idx)
        seq = list(idx + comp)
        inversions = sum(
            1 for x, y in itertools.combinations(range(7), 2) if seq[x] > seq[y]
        )
        sign = -1 if inversions % 2 else 1
        out[BASIS[7 - a.degree].index(comp)] += sign * a.coeffs[pos]
    return Form(7 - a.degree, out)


@pytest.mark.parametrize("degree", range(8))
def test_hodge_matches_sign_oracle(degree):
    a = random_form(degree)
    np.testing.assert_allclose(hodge(a).coeffs, brute_star(a).coeffs)


def test_hodge_of_e127():
    assert hodge(Form.basis((1, 2, 7))).coeff((3, 4, 5, 6)) == 1.0


def test_standard_phi_dual_coefficients():
    expected = Form.from_terms(
        4,
        {
            (1, 2, 3, 4): 1,
            (3, 4, 5, 6): 1,
            (1, 2, 5, 6): 1,
            (2, 4, 6, 7): -1,
            (1, 3, 6, 7): 1,
            (2, 3, 5, 7): 1,
            (1, 4, 5, 7): 1,
        },
    )
    np.testing.assert_allclose(standard_phi_dual().coeffs, expected.coeffs)


def test_phi_coefficients_and_norm():
    phi = standard_phi()
    assert phi.coeff((1, 2, 7)) == 1.0
    assert phi.coeff((2, 4, 5)) == -1.0
    assert phi.norm2() == 7.0
    assert to_antisym(phi).tensor_norm2() == 42.0


def test_phi_wedge_dual_is_seven_vol():
    v = wedge(standard_phi(), standard_phi_dual())
    np.testing.assert_allclose(v.coeffs, 7 * volume_form().coeffs)


@pytest.mark.parametrize("degree", range(8))
def test_hodge_involution(degree):
    a = random_form(degree)
    np.testing.assert_allclose(hodge(hodge(a)).coeffs, a.coeffs)


@pytest.mark.parametrize("degree", range(8))
def test_wedge_star_is_inner_product(degree):
    # a ^ *b = <a, b> vol, >= 100 random pairs per degree
    for _ in range(100):
        a, b = random_form(degree), random_form(degree)
        v = wedge(a, hodge(b))
        np.testing.assert_allclose(v.coeffs[0], form_inner(a, b), atol=1e-12)


def test_interior_basis_case():
    assert interior(basis_vector(1), Form.basis((1, 2))).coeff((2,)) == 1.0


def test_interior_of_phi():
    expected = Form.from_terms(2, {(1, 7): -1, (3, 6): -1, (4, 5): -1})
    np.testing.assert_allclose(
        interior(basis_vector(2), standard_phi()).coeffs, expected.coeffs
    )


def test_interior_degree_zero():
    z = interior(basis_vector(3), Form.from_terms(0, {(): 2.0}))
    assert z.degree == 0 and z.coeffs[0] == 0


@pytest.mark.parametrize("exact", [False, True])
def test_frame_interior_of_a_zero_form_is_rejected(exact):
    # once a KeyError from the interior table of degree -1
    with pytest.raises(ValueError, match="0-form"):
        frame_interior(Form.zero(0, exact))


def test_nondegeneracy_identity():
    # i_u phi ^ i_v phi ^ phi = 6 <u, v> vol
    phi = standard_phi()
    for _ in range(25):
        u, v = RNG.normal(size=7), RNG.normal(size=7)
        res = wedge_all(interior(u, phi), interior(v, phi), phi)
        np.testing.assert_allclose(res.coeffs[0], 6 * np.dot(u, v), atol=1e-12)


def test_interior_adjoint_of_wedge():
    for ka in (1, 2, 3, 4):
        a, b = random_form(ka), random_form(ka - 1)
        v = RNG.normal(size=7)
        vflat = Form(1, v)
        lhs = form_inner(interior(v, a), b)
        rhs = form_inner(a, wedge(vflat, b))
        assert abs(lhs - rhs) < 1e-12


def test_contract_adjoint_of_wedge():
    a = random_form(2)
    b = random_form(5)
    c = random_form(3)
    assert abs(form_inner(contract(a, b), c) - form_inner(b, wedge(a, c))) < 1e-12


def test_antisym_round_trip_and_norm_ratio():
    import math

    for degree in (1, 2, 3, 4):
        a = random_form(degree)
        arr = to_antisym(a)
        back = from_antisym(arr)
        np.testing.assert_allclose(back.coeffs, a.coeffs)
        assert abs(arr.tensor_norm2() - math.factorial(degree) * a.norm2()) < 1e-10


def test_antisym_phi_components():
    p3, p4 = phi_arrays()
    assert p3[0, 1, 6] == 1.0 and p3[1, 0, 6] == -1.0
    assert p4[0, 1, 2, 3] == 1.0


def test_from_antisym_rejects_non_antisymmetric():
    bad = np.zeros((7, 7))
    bad[0, 1] = 1.0  # missing the -1 mirror
    with pytest.raises(ValueError):
        from_antisym(bad, 2)


def test_contraction_identities_float():
    report = check_contraction_identities()
    assert set(report) == {
        "phi.phi -> 6 delta",
        "phi.phi -> delta delta + *phi",
        "*phi.*phi -> 4 delta delta + 2 *phi",
        "phi.*phi -> 4 phi",
        "phi.*phi -> delta phi (6 terms)",
        "*phi.*phi full -> 24 delta",
    }
    for name, res in report.items():
        assert res < 1e-12, name


def test_contraction_identities_exact():
    assert all(res == 0.0 for res in check_contraction_identities(exact=True).values())


def test_exact_mode_round_trip():
    phi = standard_phi(exact=True)
    assert phi.exact
    assert hodge(hodge(phi)).coeffs[0] == phi.coeffs[0]
    assert wedge(phi, standard_phi_dual(exact=True)).coeffs[0] == 7


def test_psi_split_of_phi():
    # phi = omega ^ e7 + psi+
    rebuilt = wedge(standard_omega(), Form.basis((7,))) + standard_psi_plus()
    np.testing.assert_allclose(rebuilt.coeffs, standard_phi().coeffs)
    assert standard_psi_minus().norm2() == 4.0


# --- index-table kernels against plain loop references --------------------------


def _sign(seq):
    inversions = sum(1 for x, y in itertools.combinations(seq, 2) if x > y)
    return -1 if inversions % 2 else 1


def _ref_zeros(n, exact):
    return [Fraction(0) if exact else 0.0 for _ in range(n)]


def ref_wedge(a, b, exact):
    out = _ref_zeros(dim_of(a.degree + b.degree), exact)
    for pa, I in enumerate(BASIS[a.degree]):
        for pb, J in enumerate(BASIS[b.degree]):
            if not set(I) & set(J):
                out[BASIS[a.degree + b.degree].index(tuple(sorted(I + J)))] += (
                    _sign(I + J) * a.coeffs[pa] * b.coeffs[pb]
                )
    return out


def ref_interior(v, a, exact):
    if a.degree == 0:
        return _ref_zeros(1, exact)
    out = _ref_zeros(dim_of(a.degree - 1), exact)
    for pos, I in enumerate(BASIS[a.degree]):
        for p, i in enumerate(I):
            out[BASIS[a.degree - 1].index(I[:p] + I[p + 1 :])] += (-1) ** p * v[i] * a.coeffs[pos]
    return out


def ref_contract(a, b, exact):
    out = _ref_zeros(dim_of(b.degree - a.degree), exact)
    for pa, I in enumerate(BASIS[a.degree]):
        piece = b
        for i in I:
            piece = Form(piece.degree - 1, np.array(ref_interior(basis_vector(i + 1, exact), piece, exact), dtype=object if exact else float))
        for q in range(len(out)):
            out[q] += a.coeffs[pa] * piece.coeffs[q]
    return out


def ref_to_antisym(a, exact):
    arr = np.empty((7,) * a.degree, dtype=object if exact else float)
    arr[...] = Fraction(0) if exact else 0.0
    for pos, I in enumerate(BASIS[a.degree]):
        for perm in itertools.permutations(I):
            arr[perm] = _sign(perm) * a.coeffs[pos]
    return arr


def seeded_form(degree, exact, rng):
    if exact:
        nums = rng.integers(-9, 10, size=dim_of(degree))
        dens = rng.integers(1, 6, size=dim_of(degree))
        return Form(degree, np.array([Fraction(int(n), int(d)) for n, d in zip(nums, dens)], dtype=object))
    return Form(degree, rng.normal(size=dim_of(degree)))


def assert_matches(got, want, exact):
    got = np.asarray(got).reshape(-1)
    want = np.asarray(want, dtype=object if exact else float).reshape(-1)
    assert got.shape == want.shape
    if exact:
        assert set(map(type, got)) == {Fraction}
        assert np.array_equal(got, want)
    else:
        assert got.dtype == float
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("exact", [False, True])
def test_wedge_and_contract_match_loop_reference(exact):
    rng = np.random.default_rng(7)
    for ka in range(8):
        for kb in range(8 - ka):
            a, b = seeded_form(ka, exact, rng), seeded_form(kb, exact, rng)
            assert_matches(wedge(a, b).coeffs, ref_wedge(a, b, exact), exact)
    for ka in range(8):
        for kb in range(ka, 8):
            a, b = seeded_form(ka, exact, rng), seeded_form(kb, exact, rng)
            assert_matches(contract(a, b).coeffs, ref_contract(a, b, exact), exact)


@pytest.mark.parametrize("exact", [False, True])
def test_interior_and_antisym_match_loop_reference(exact):
    rng = np.random.default_rng(8)
    for k in range(8):
        a = seeded_form(k, exact, rng)
        v = seeded_form(1, exact, rng).coeffs
        assert_matches(interior(v, a).coeffs, ref_interior(v, a, exact), exact)
        arr = to_antisym(a).array
        assert arr.shape == (7,) * k
        assert_matches(arr, ref_to_antisym(a, exact), exact)
        back = from_antisym(arr, k)
        assert_matches(back.coeffs, [arr[I] for I in BASIS[k]], exact)
        assert_matches(back.coeffs, a.coeffs, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_standard_phi_returns_its_own_array(exact):
    phi, dual = standard_phi(exact), standard_phi_dual(exact)
    assert phi.coeffs.flags.writeable and dual.coeffs.flags.writeable
    phi.coeffs[:] = 5
    dual.coeffs[:] = 5
    assert standard_phi(exact).coeff((1, 2, 7)) == 1 and standard_phi(exact).coeff((1, 2, 3)) == 0
    assert standard_phi_dual(exact).coeff((1, 2, 3, 4)) == 1
    assert_matches(standard_phi(exact).coeffs, Form.from_terms(3, _PHI_TERMS, exact).coeffs, exact)
    assert_matches(standard_phi_dual(exact).coeffs, hodge(standard_phi(exact)).coeffs, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_frame_kernels_match_loop_reference(exact):
    rng = np.random.default_rng(9)
    for k in range(1, 8):
        a = seeded_form(k, exact, rng)
        rows = [ref_interior(basis_vector(i + 1, exact), a, exact) for i in range(7)]
        assert_matches(frame_interior(a), rows, exact)
    for k in range(7):
        stack = np.stack([seeded_form(k, exact, rng).coeffs for _ in range(7)])
        want = _ref_zeros(dim_of(k + 1), exact)
        for i in range(7):
            e_i = Form.basis((i + 1,), exact)
            want = [w + c for w, c in zip(want, ref_wedge(e_i, Form(k, stack[i]), exact))]
        got = frame_wedge(stack, k)
        assert got.degree == k + 1
        assert_matches(got.coeffs, want, exact)


def test_antisym_coefficients_checks_the_whole_stack():
    rng = np.random.default_rng(10)
    forms = [random_form(2, rng) for _ in range(7)]
    stack = np.stack([to_antisym(f).array for f in forms])
    coeffs = antisym_coefficients(stack, 2)
    assert coeffs.shape == (7, 21)
    assert_matches(coeffs, [f.coeffs for f in forms], False)
    stack[4, 0, 1] += 1e-6  # one slice loses its antisymmetry
    with pytest.raises(ValueError, match="input array is not antisymmetric"):
        antisym_coefficients(stack, 2)


# --- tables read off the wedge table against the loops they replaced -----------


def _table_rows(t):
    return np.stack([t.pa, t.pb, t.po, t.coef], axis=1)


def _by_output(rows):
    """Rows stably sorted by their output position: equal for two tables with
    the same rows and, per output, the same summation order."""
    return rows[np.argsort(rows[:, 2], kind="stable")]


def test_derived_tables_match_their_loop_references():
    for kb in range(8):
        for ka in range(kb + 1):
            got = _by_output(_table_rows(_contract_table(ka, kb)))
            assert np.array_equal(got, _by_output(reference.loop_contract_rows(ka, kb))), (ka, kb)
    for k in range(1, 8):
        got = _by_output(_table_rows(_contract_table(1, k)))
        assert np.array_equal(got, _by_output(reference.loop_interior_rows(k))), k
    for k in range(8):
        po, sign = hodge_table(k)
        assert not (po.flags.writeable or sign.flags.writeable)
        assert np.array_equal(np.stack([po, sign], axis=1), reference.loop_hodge_rows(k)), k
    # row for row in the loop's order, which invariant_d_matrices sums in;
    # the image of a k-form has degree k - 1 + r <= 7
    for r in (1, 2):
        for k in range(9 - r):
            got = np.stack(_derivation_table(k, r), axis=1)
            assert np.array_equal(got, reference.loop_derivation_rows(k, r)), (k, r)


def _perm_sign_users(tree: ast.AST) -> set:
    """Enclosing function of every name, attribute or import of perm_sign."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if "perm_sign" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
            isinstance(node, ast.alias) and node.name == "perm_sign"
        ):
            found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_perm_sign_is_used_only_by_the_wedge_and_antisym_tables():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "g2lab"
    users = {
        path.name: _perm_sign_users(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(src.glob("*.py"))
    }
    assert users.pop("exterior_algebra.py") == {"_wedge_table", "_antisym_table"}
    assert {name: found for name, found in users.items() if found} == {}
    assert _perm_sign_users(ast.parse("from m import perm_sign\ndef f():\n    return m.perm_sign\n")) == {None, "f"}


def _float_twin_users(tree: ast.AST) -> set:
    """Enclosing class (None outside one) of every use of a name, attribute,
    argument or import that starts with float_: the float twin of a
    coefficient column, which a module reads to pick that column over the
    integer one, and `float_column`, which makes it."""
    found = set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None))
        if isinstance(node, ast.alias):
            names += (node.name, node.asname)
        if any(isinstance(n, str) and n.startswith("float_") for n in names):
            found.add(cls)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_only_the_table_classes_pick_a_coefficient_column():
    # the integer and float columns of a table were once picked at seven call
    # sites in three modules, and float_column was imported by two more
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "g2lab"
    users = {
        path.name: _float_twin_users(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(src.glob("*.py"))
    }
    assert users.pop("exterior_algebra.py") == {"IndexTable", "LinearTable"}
    assert {name: found for name, found in users.items() if found} == {}
    snippet = "from m import float_column\nclass T:\n    def f(self, float_sign):\n        return self.float_coef\n"
    assert _float_twin_users(ast.parse(snippet)) == {None, "T"}


def _package_tables() -> dict:
    """Every `LinearTable` the package builds, by name, with the path its
    apply takes."""
    import g2lab.curvature as cv
    import g2lab.exterior_algebra as ea

    tables = {}
    for k in range(8):
        tables[f"hodge {k}"] = (ea._hodge_gather(k), "gather")
        tables[f"connection {k}"] = (ea._connection_table((k,)), "assign")
    for k in range(6):  # the 7^6 and 7^7 entry arrays take seconds as Fractions
        tables[f"unfold {k}"] = (ea._antisym_table(k), "gather" if k < 2 else "assign")
    for k in range(7):  # one row per output for a 0-form
        tables[f"alternation {k}"] = (ea._alternation_table((k,)), "gather" if k == 0 else "scatter")
    for k in range(1, 8):  # e_i -| of a 1-form is one entry per i
        tables[f"interior {k}"] = (ea._frame_interior_table(k), "gather" if k == 1 else "assign")
    tables["connection pass"] = (ea._connection_table((3, 2, 2, 3)), "assign")
    tables["alternation pass"] = (ea._alternation_table((3, 2, 2, 3)), "scatter")
    for name in ("_kn_table", "_phi_product_table", "_bianchi_table", "_contraction_table", "_pair_table", "_block_table"):
        tables[name] = (getattr(cv, name)(), "scatter")
    return tables


@pytest.mark.parametrize("name", list(_package_tables()))
def test_table_apply_is_its_dense_matrix(name):
    # on dyadic input every sum is exact: the gather, the assignment and the
    # scatter give the dense product, as Fractions and as floats, one input
    # at a time and for a batch on leading axes
    table, path = _package_tables()[name]
    assert table.path == path
    rng = np.random.default_rng(23)
    num = rng.integers(-64, 65, size=(2, 3, table.n_in))
    want = num.dot(table.dense().T)  # integers, over 16
    exact = np.vectorize(lambda n: Fraction(int(n), 16), otypes=[object])(num)
    for x, scale in ((exact, Fraction(1, 16)), (num / 16, 1 / 16)):
        got = table.apply(x[0, 0])
        assert got.dtype == x.dtype and got.shape == (table.n_out,)
        assert np.array_equal(got, want[0, 0] * scale)
        got = table.apply(x)
        assert got.dtype == x.dtype and got.shape == (2, 3, table.n_out)
        assert np.array_equal(got, want * scale)
