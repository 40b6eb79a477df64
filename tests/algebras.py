"""Lie algebras the tests and the float-report snapshot share: almost-abelian
algebras R^6 semidirect R, the closed ones among them whose derivation lies
in sl(3, C), and the nilpotent algebras that carry the standard phi as a
closed form.  Only the public API of the package is used, so the snapshot
script can run against any version of it.
"""

import numpy as np

from g2lab._linalg import as_mode, is_exact, zeros
from g2lab.homogeneous import LieAlgebraSpec, spec_from_coframe_d


def almost_abelian(name, mat):
    mat = np.asarray(mat)
    c = zeros((7, 7, 7), is_exact(mat))
    for k in range(6):
        for j in range(6):
            c[k, j, 6] = mat[k, j]
            c[k, 6, j] = -mat[k, j]
    return LieAlgebraSpec(name, c)


def closed_almost_abelian(name, z, exact=False):
    """R^6 semidirect R with D the real form of an integer traceless complex
    3 x 3 matrix z: entry z_ab becomes the 2 x 2 block [[Re z, -Im z],
    [Im z, Re z]] of D.

    Such D lie in sl(3, C), the stabiliser of psi+ for z_k = e^(2k-1) + i e^(2k),
    so phi = omega ^ e^7 + psi+ is closed; nabla-bar tau is not 0 in general.
    """
    z = np.asarray(z, dtype=complex)
    assert z.trace() == 0 and np.array_equal(z, z.round())
    d = np.block([[np.array([[w.real, -w.imag], [w.imag, w.real]]) for w in row] for row in z])
    return almost_abelian(name, as_mode(d, exact))


#: a closed structure whose torsion is not parallel, unlike Bryant's
CLOSED_Z = [[1 + 2j, -1, 2j], [1j, -2 + 1j, 1], [2, 1 - 1j, 1 - 3j]]


def seeded_closed_z(rng):
    z = rng.integers(-3, 4, size=(3, 3)) + 1j * rng.integers(-3, 4, size=(3, 3))
    z[2, 2] = -(z[0, 0] + z[1, 1])
    return z


#: the nilpotent algebras (de^1..de^7, as {k: {(i, j): coefficient}}) that
#: carry the standard phi as a closed form after the signed relabelling
#: c'^a_bc = s_a s_b s_c c^(p_a)_(p_b p_c), p 0-based; the list of nilpotent
#: algebras is from Conti and Fernandez, "Nilmanifolds with a calibrated G2
#: structure" (2011)
CLOSED_NILPOTENT = {
    "(0,0,0,0,0,12,13)": (
        {6: {(1, 2): 1}, 7: {(1, 3): 1}},
        [0, 1, 3, 5, 4, 6, 2],
        [1, 1, 1, 1, 1, 1, -1],
    ),
    "(0,0,12,0,0,13+24,15)": (
        {3: {(1, 2): 1}, 6: {(1, 3): 1, (2, 4): 1}, 7: {(1, 5): 1}},
        [0, 1, 2, 6, 4, 5, 3],
        [1, 1, 1, 1, 1, 1, -1],
    ),
    "(0,0,12,0,0,13,14+25)": (
        {3: {(1, 2): 1}, 6: {(1, 3): 1}, 7: {(1, 4): 1, (2, 5): 1}},
        [0, 1, 2, 5, 3, 6, 4],
        [1, 1, 1, 1, 1, -1, 1],
    ),
    "(0,0,0,12,13,14,15)": (
        {4: {(1, 2): 1}, 5: {(1, 3): 1}, 6: {(1, 4): 1}, 7: {(1, 5): 1}},
        [0, 1, 3, 5, 4, 6, 2],
        [1, 1, 1, 1, 1, -1, 1],
    ),
}


def closed_nilpotent(name, exact=False):
    """The nilpotent algebra `name` of CLOSED_NILPOTENT in the relabelled
    coframe where the standard phi is closed."""
    coframe_d, p, s = CLOSED_NILPOTENT[name]
    c = spec_from_coframe_d(name, coframe_d, exact).c
    p, s = np.array(p), np.array(s)
    return LieAlgebraSpec(name, c[np.ix_(p, p, p)] * (s[:, None, None] * s[:, None] * s))
