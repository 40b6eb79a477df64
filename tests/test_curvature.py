"""Algebraic curvature tensors and the five-block decomposition."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from g2lab._linalg import eye, is_exact, max_abs, zeros
from g2lab.curvature import (
    CurvatureTensor,
    bianchi_b,
    decompose,
    generalized_ricci,
    inner,
    kn_product,
    norm_split_residual,
    phi_product,
    phi_ricci,
    project_to_kernel,
    random_algebraic_curvature,
    ric_W,
    ricci,
    scalar_curvature,
)
from g2lab.exterior_algebra import BASIS, phi_arrays
from reference import bianchi_residual

RNG = np.random.default_rng(11)
G = np.eye(7)

# --- the 7^4 array R_ijkl, the reference the pair-matrix maps are checked against

_I, _J = np.array(BASIS[2]).T[:, :, None]  # pair (ij) along the rows
_K, _L = _I.T, _J.T  # pair (kl) along the columns


def ref_to_full(r):
    """The full R_ijkl array of a pair matrix, both antisymmetries unfolded."""
    full = zeros((7,) * 4, r.exact)
    full[_I, _J, _K, _L] = r.mat
    full[_J, _I, _K, _L] = -r.mat
    full[_I, _J, _L, _K] = -r.mat
    full[_J, _I, _L, _K] = r.mat
    return full


def ref_from_full(full):
    return CurvatureTensor(full[_I, _J, _K, _L])


def ref_bianchi_b(r):
    """b(R)_ijkl = R_ijkl + R_jkil + R_kijl over all four indices."""
    full = ref_to_full(r)
    return full + full.transpose(1, 2, 0, 3) + full.transpose(2, 0, 1, 3)


def ref_project_to_kernel(r):
    """Subtract the Lambda^4 part b/3 of the full array."""
    return ref_from_full(ref_to_full(r) - ref_bianchi_b(r) / 3)


def random_traceless(rng=RNG):
    h = rng.normal(size=(7, 7))
    h = (h + h.T) / 2
    return h - np.eye(7) * np.trace(h) / 7


def test_bianchi_kernel_membership():
    assert bianchi_residual(kn_product(G)) < 1e-13
    assert bianchi_residual(kn_product(random_traceless())) < 1e-13
    assert bianchi_residual(phi_product(random_traceless())) < 1e-13
    raw = RNG.normal(size=(21, 21))
    generic = CurvatureTensor((raw + raw.T) / 2)
    assert bianchi_residual(generic) > 0.1


def test_bianchi_kernel_dimension_196():
    cols = []
    for p in range(21):
        for q in range(p, 21):
            m = np.zeros((21, 21))
            m[p, q] = m[q, p] = 1.0
            cols.append(bianchi_b(CurvatureTensor(m)).reshape(-1))
    rank = np.linalg.matrix_rank(np.stack(cols, axis=1), tol=1e-8)
    assert 231 - rank == 196


def test_random_algebraic_curvature():
    r = random_algebraic_curvature(seed=5)
    assert bianchi_residual(r) < 1e-12
    dec = decompose(r)
    assert max_abs(dec.reassemble().mat - r.mat) < 1e-12


def test_sphere_pattern_of_kn_product():
    # r_g(g)(x, y, y, x) = 2 for orthonormal x perp y
    full = ref_to_full(kn_product(G))
    assert full[0, 1, 1, 0] == 2.0
    assert full[0, 1, 0, 1] == -2.0
    assert kn_product(np.zeros((7, 7))).norm2() == 0.0


def ref_kn_product(h):
    """r_g(h) from the outer product g (x) h: R_ijkl = h_jk g_il - h_ik g_jl + h_il g_jk - h_jl g_ik."""
    gh = np.multiply.outer(eye(7, is_exact(h)), h)  # gh[a,b,c,d] = g_ab h_cd
    full = (
        gh.transpose(0, 2, 3, 1)  # g_il h_jk
        - gh.transpose(2, 0, 3, 1)  # g_jl h_ik
        + gh.transpose(2, 0, 1, 3)  # g_jk h_il
        - gh.transpose(0, 2, 1, 3)  # g_ik h_jl
    )
    return ref_from_full(full)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_kn_product_matches_the_outer_product_formula(exact):
    rng = np.random.default_rng(17)
    for h in (np.eye(7), rng.normal(size=(7, 7)), rng.normal(size=(7, 7)) * 1e-7):
        if exact:  # any 7 x 7 h, not only symmetric ones
            h = np.array([Fraction(x).limit_denominator(64) for x in h.flat], dtype=object).reshape(7, 7)
        got, want = kn_product(h).mat, ref_kn_product(h).mat
        if exact:
            assert set(map(type, got.flat)) == {Fraction}
        # at most two terms per entry, so float sums do not depend on their order
        assert np.array_equal(got, want)


def _dyadic(shape, rng):
    return np.vectorize(lambda v: Fraction(int(v), 8), otypes=[object])(rng.integers(-40, 41, size=shape))


def ref_phi_product(h):
    """r_phi through the full arrays: two tensordots with phi, then the kernel projection."""
    p3, _ = phi_arrays(is_exact(h))
    hphi = np.tensordot(h, p3, axes=([1], [0]))  # (a, i, j) -> h_ab phi_bij
    return ref_project_to_kernel(ref_from_full(np.tensordot(hphi, p3, axes=([0], [0]))))


#: a few roundings of the largest input entry: each output entry of ricci and
#: r_phi sums a handful of products of the input with small integer weights
ROUNDING = 16 * np.finfo(float).eps


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_ricci_is_the_adjoint_of_kn_product(exact):
    rng = np.random.default_rng(19)
    for _ in range(4):  # not symmetric: the adjoint holds on every pair matrix
        m = _dyadic((21, 21), rng) if exact else rng.normal(size=(21, 21))
        r = CurvatureTensor(m)
        got, want = ricci(r), ref_to_full(r).trace(axis1=1, axis2=2)
        if exact:
            assert set(map(type, got.flat)) == {Fraction} and np.array_equal(got, want)
        else:
            assert max_abs(got - want) <= ROUNDING * max_abs(m)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_phi_product_matches_the_tensordot_formula(exact):
    rng = np.random.default_rng(23)
    for symmetric in (True, False, False):
        h = _dyadic((7, 7), rng) if exact else rng.normal(size=(7, 7))
        if symmetric:
            h = (h + h.T) / 2
        got, want = phi_product(h).mat, ref_phi_product(h).mat
        if exact:
            assert set(map(type, got.flat)) == {Fraction} and np.array_equal(got, want)
        else:
            assert max_abs(got - want) <= ROUNDING * max_abs(h)


def test_ricci_contraction_constants():
    h = random_traceless()
    np.testing.assert_allclose(ricci(kn_product(G)), 12 * G, atol=1e-13)
    np.testing.assert_allclose(ricci(kn_product(h)), 5 * h, atol=1e-12)
    np.testing.assert_allclose(ricci(phi_product(h)), h, atol=1e-12)
    np.testing.assert_allclose(phi_ricci(kn_product(G)), -24 * G, atol=1e-12)
    np.testing.assert_allclose(phi_ricci(kn_product(h)), 4 * h, atol=1e-12)
    np.testing.assert_allclose(phi_ricci(phi_product(h)), 92 / 3 * h, atol=1e-11)
    assert max_abs(ricci(CurvatureTensor(np.zeros((21, 21))))) == 0.0


def test_phi_ricci_trace_is_minus_two_scalar():
    for seed in range(5):
        r = random_algebraic_curvature(seed)
        assert abs(np.trace(phi_ricci(r)) + 2 * scalar_curvature(r)) < 1e-11


def test_norm_constants():
    h = random_traceless()
    hn = (h * h).sum()
    assert abs(kn_product(h).norm2() - 20 * hn) < 1e-10
    assert abs(phi_product(h).norm2() - 92 / 3 * hn) < 1e-10
    assert abs(inner(phi_product(h), kn_product(h)) - 4 * hn) < 1e-10
    assert abs(kn_product(G).norm2() - 336) < 1e-12


def test_generalized_ricci_and_ric_w():
    h = random_traceless()
    r = kn_product(h)
    np.testing.assert_allclose(generalized_ricci(r, (1, 0)), 5 * h, atol=1e-12)
    # ric_W kills the image of r_g on traceless tensors
    assert max_abs(ric_W(r)) < 1e-12
    # pure W27 elements have c^g = 0 and ric_W = (112/3) h / 20-normalised
    w27 = kn_product(h) - 5 * phi_product(h)
    assert max_abs(ricci(w27)) < 1e-11
    np.testing.assert_allclose(ric_W(w27), 112 / 3 * h, atol=1e-10)


def test_decompose_of_scalar_block():
    dec = decompose(kn_product(G))
    assert abs(dec.s - 84.0) < 1e-12
    assert max_abs(dec.w77.mat) < 1e-12
    assert max_abs(dec.w64.mat) < 1e-12
    assert max_abs(dec.w27.mat) < 1e-12
    assert max_abs(dec.ric0) < 1e-12


def test_decompose_of_pure_w27():
    h = random_traceless()
    w27 = kn_product(h) - 5 * phi_product(h)
    dec = decompose(w27, tol=1e-7)
    assert max_abs(dec.w27.mat - w27.mat) < 1e-10
    assert max_abs(dec.w77.mat) < 1e-10
    assert max_abs(dec.w64.mat) < 1e-10
    assert max_abs(dec.ric0) < 1e-10
    assert abs(dec.s) < 1e-10
    # its phi-Ricci is nonzero even though the plain Ricci vanishes
    assert max_abs(phi_ricci(w27)) > 1.0


def test_decompose_nearly_parallel_shape():
    # R = W + tau0^2/32 r_g(g) with W a 77-block: pure (W77, S) output
    tau0 = 1.7
    w = decompose(random_algebraic_curvature(3)).w77
    r = w + (tau0**2 / 32) * kn_product(G)
    dec = decompose(r, tol=1e-7)
    assert abs(dec.s - 21 / 8 * tau0**2) < 1e-10
    assert max_abs(dec.w77.mat - w.mat) < 1e-10
    assert max_abs(dec.w64.mat) < 1e-10
    assert max_abs(dec.w27.mat) < 1e-10
    assert max_abs(dec.ric0) < 1e-10


def test_decompose_random_blocks():
    for seed in range(10):
        r = random_algebraic_curvature(seed)
        dec = decompose(r)
        assert max_abs(dec.reassemble().mat - r.mat) < 1e-12
        blocks = [dec.w77, dec.w64, dec.w27, dec.ricci_block, dec.scalar_block]
        for a, b in itertools.combinations(blocks, 2):
            assert abs(inner(a, b)) < 1e-10
        assert norm_split_residual(r, dec) < 1e-12
        # Weyl blocks are Ricci-flat in both contractions
        for w in (dec.w77, dec.w64):
            assert max_abs(ricci(w)) < 1e-10
            assert max_abs(phi_ricci(w)) < 1e-10
        assert max_abs(ricci(dec.w27)) < 1e-10


def test_block_idempotency():
    dec = decompose(random_algebraic_curvature(21))
    for name in ("w77", "w64", "w27"):
        block = getattr(dec, name)
        again = decompose(block, tol=1e-6)
        assert max_abs(getattr(again, name).mat - block.mat) < 1e-9
        others = {"w77", "w64", "w27"} - {name}
        for o in others:
            assert max_abs(getattr(again, o).mat) < 1e-9


def test_decompose_rejects_non_bianchi():
    raw = RNG.normal(size=(21, 21))
    with pytest.raises(ValueError):
        decompose(CurvatureTensor((raw + raw.T) / 2))


def test_project_to_kernel_is_orthogonal_projection():
    raw = RNG.normal(size=(21, 21))
    r = CurvatureTensor((raw + raw.T) / 2)
    p = project_to_kernel(r)
    assert bianchi_residual(p) < 1e-12
    # residual r - p is orthogonal to the kernel
    assert abs(inner(r - p, p)) < 1e-9


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_bianchi_map_matches_the_full_array_reference(exact):
    # b at the pair entries and the kernel projection repeat the reference's
    # arithmetic entry by entry: bit for bit in float, the same Fractions in
    # exact mode, on symmetric and non-symmetric input at every scale
    rng = np.random.default_rng(29)
    for e in range(-8, 9, 4):
        for symmetric in (True, False):
            if exact:
                m = _dyadic((21, 21), rng) * Fraction(10) ** e
            else:
                m = rng.normal(size=(21, 21)) * 10.0**e
            if symmetric:
                m = (m + m.T) / 2
            r = CurvatureTensor(m)
            pairs = [(bianchi_b(r), ref_bianchi_b(r)[_I, _J, _K, _L])]
            pairs.append((project_to_kernel(r).mat, ref_project_to_kernel(r).mat))
            for got, want in pairs:
                if exact:
                    assert set(map(type, got.flat)) == {Fraction} and np.array_equal(got, want)
                else:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if exact and symmetric:  # on S^2(Lambda^2) b is a 4-form: the pairs hold all of it
                assert max_abs(bianchi_b(r)) == max_abs(ref_bianchi_b(r)) > 0


def test_exact_mode_decomposition():
    r = random_algebraic_curvature(seed=2, exact=True)
    dec = decompose(r)
    assert all(v == 0 for v in (dec.reassemble().mat - r.mat).reshape(-1))
    assert norm_split_residual(r, dec) == 0.0
