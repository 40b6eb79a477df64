"""Left-invariant G2 geometry from Lie algebra structure constants.

A 7-dimensional Lie algebra is described by the constants of its invariant
coframe, de^k = -sum_{i<j} c^k_ij e^ij, with the coframe declared
orthonormal.  From these the module computes the invariant exterior
derivative degree by degree, the Levi-Civita connection (Koszul), the
Riemann tensor, the torsion of any compatible invariant G2 form, the
canonical G2 connection, and the full set of pointwise curvature-torsion
identities of the companion modules, bundled into `analyze`.

`InvariantGeometry` is the one object of an input: each stage is built on
first use and kept, and every consumer reads it there.  The Jacobi check is
the residual of the Levi-Civita gate, d^2 = 0 is checked on that product
and the four others, and the structure-equation check is the residual of
the extraction gate.  The torsion terms of the generalized Ricci formula
(`ricci_terms`) and their derivatives on both routes (`ricci_derivs`) are
stages too.  The canonical connection acts in one pass
(`connection_pass`): one scatter of the forms `analyze` differentiates,
phi, *(tau1 ^ *phi), tau2 and tau3, one product of gamma-bar with it, one
product of gamma with phi's block and one alternation scatter over all
outputs give nabla-bar phi (the gate), alt(grad phi), the stack
nabla-bar_i tau2 and the three canonical-route derivatives; the closed
chain's `nabla_bar_tau` gates that stack and its split reads the
alternation d^nabla-bar tau2 the pass made.  A stage is a `lazy`
attribute: computed on first read, then a plain instance attribute.

The families of checks are stacked passes, a few array operations each
rather than a loop over k, route or part.  One `ricci_rows` call gives the
Ricci-formula rows of both routes for all three weightings, and one
lambda3 product of the (k, 7, 7) stack Ric0^k gives their left sides,
which the closed chain reads too; the six residuals are one reduction.
The d tau2 conversion identity is one weighted row over the torsion terms
(`torsion.dtau2_conversion`).  The closed chain takes its three weightings
from the Ric0^k stack, splits nabla-bar tau in one pass over its 27 and 7
parts and reads its four Cauchy-Schwarz norms and two inner products off
one Gram matrix.  The other check residuals of `analyze` are one
reduction (`max_abs_each`), and those of the closed chain another.

d on k-forms and the action of a connection on k-forms are the one
derivation table of `exterior_algebra` applied to d on 1-forms and to
Gamma.  For d, the tables of degrees 2..6 are fused into one cached table
over a flat buffer that holds the five matrices back to back (`_d_table`),
so building them is one scatter of d on 1-forms, each matrix a view of the
buffer; the rows of every entry keep their order, so float sums are those
of a per-degree build.  Both run in float64 and in exact mode alike.
`invariant_d` and `invariant_delta` act through the built matrices, and the
Koszul formula reads the structure constants back off d on 1-forms.

`analyze` returns a `Report` of the checks of the catalogue `CHECKS`, which
holds each check's name, weight w and slack.  Structure constants 2^k c
give a check 2^(k w) times the residual and the scale of c, bit for bit: w
is 1 for what is linear in c (Gamma, torsion), 2 for curvature and 4 for
its squared norms.  A check passes when its residual is at most
``bound(tol, scale) * slack``, with tol the report's base tolerance, the
scale the size of what the check compares (0 for Jacobi and d^2, which are
absolute) and the slack (1, 10 or 50) the headroom of a long chain of
rounding.  `analyze` and the closed chain each make one `Report.extend` of
catalogue rows and (residual, scale) pairs, whose tolerances are one
vectorised `bounds`; the closed, EPR and parallel-torsion predicates and
the Lambda^2_14 gates of nabla-bar tau use the same `bound`.

Sign conventions: Gamma[i,j,k] = g(grad_{e_i} e_j, e_k) and
R_ijkl = g(R(e_i,e_j) e_k, e_l) so that the hyperbolic solvable example
comes out with negative sectional curvature (a build-time self test).
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import bound, bounds, frozen, lazy, max_abs, max_abs_each, scalar, scatter_add, table, zeros
from .exterior_algebra import (
    BASIS,
    DIM,
    Form,
    _connection_stack,
    _derivation_table,
    _phi_templates,
    alternate,
    connection_action,
    connection_matrix,
    covariant_wedge,
    dim_of,
    frame_interior,
    hodge,
    index_columns,
    phi_arrays,
    to_antisym,
    wedge,
)
from .g2_algebra import MixedV14, _split_v14, lambda3_rows, projector_matrix
from .curvature import CurvatureTensor, _iphi_matrix, decompose
from .torsion import (
    RICCI_ROUTES,
    IntrinsicTorsion,
    dtau2_conversion,
    fg_type_of_norms,
    intrinsic_from_torsion,
    ricci_rows,
    ricci_terms,
    scalar_from_torsion,
    solve_structure_equations,
)


class LieAlgebraSpec:
    """Structure constants c[k,i,j] with de^k = -sum_{i<j} c^k_ij e^ij."""

    __slots__ = ("name", "c")

    def __init__(self, name: str, c: np.ndarray):
        if c.shape != (DIM, DIM, DIM):
            raise ValueError("structure constants must be a 7x7x7 array")
        size, asymmetry = max_abs_each(c, c + c.transpose(0, 2, 1))
        if not size < math.inf:  # a NaN or infinite constant
            raise ValueError("structure constants must be finite")
        if not asymmetry <= bound(1e-12, size):
            raise ValueError("structure constants must be antisymmetric in (i, j)")
        self.name, self.c = name, c

    @property
    def exact(self) -> bool:
        return self.c.dtype == object


def spec_from_coframe_d(name: str, coframe_d: dict, exact: bool = False) -> LieAlgebraSpec:
    """Build a spec from {k: {(i, j): coefficient}} meaning de^k = sum coeff e^ij.

    All indices 1-based, i < j; the sign convention de^k = -c^k_ij e^ij is
    applied internally.
    """
    c = zeros((DIM, DIM, DIM), exact)
    for k, terms in coframe_d.items():
        if not 1 <= k <= DIM:
            raise ValueError(f"bad coframe index {k}")
        for (i, j), v in terms.items():
            if not (1 <= i < j <= DIM):
                raise ValueError(f"bad coframe index pair {(i, j)}")
            c[k - 1, i - 1, j - 1] = -scalar(v, exact)
            c[k - 1, j - 1, i - 1] = scalar(v, exact)
    return LieAlgebraSpec(name, c)


# --- invariant exterior derivative ------------------------------------------------

#: the pairs (i, j), i < j, in Lambda^2 basis order, as index arrays, and
#: the flat position of each (i, j) in a 7 x 7 array
_PAIR_I, _PAIR_J = index_columns(BASIS[2], 2)
_PAIR_IJ = frozen(_PAIR_I * DIM + _PAIR_J)


def _pair_entries(a: np.ndarray) -> np.ndarray:
    """a[:, i, j] for the pairs i < j of a 7 x 7 x 7 array, as (7, 21)."""
    return a.reshape(DIM, DIM * DIM).take(_PAIR_IJ, axis=1)


def _d_on_one_forms(spec: LieAlgebraSpec) -> np.ndarray:
    """Matrix of d: Lambda^1 -> Lambda^2 over coefficient bases."""
    return -_pair_entries(spec.c).T


@table
def _d_table():
    """The rows of `_derivation_table(k, 2)` for k = 2..6 as one table over
    a flat buffer that holds the five matrices back to back:
    columns (flat position, flat position in d on 1-forms stacked over its
    negative, which picks the sign), then the (start, stop, shape) of each
    degree's matrix in the buffer.  The rows of each degree keep their
    order, so every entry sums as a scatter of its degree alone would.
    """
    cols, layout, start = [], {}, 0
    for k in range(2, DIM):
        out, pos, pair, head, sign = _derivation_table(k, 2)
        shape = (dim_of(k + 1), dim_of(k))
        src = pair * DIM + head + (sign < 0) * dim_of(2) * DIM
        cols.append(np.stack([start + out * shape[1] + pos, src], axis=1))
        layout[k] = (start, start + shape[0] * shape[1], shape)
        start += shape[0] * shape[1]
    return (*index_columns(np.concatenate(cols), 2), layout)


def invariant_d_matrices(spec: LieAlgebraSpec) -> dict:
    """Per-degree matrices of the invariant exterior derivative: d on
    1-forms, and one scatter of it through `_d_table` for degrees 2..6."""
    d1 = _d_on_one_forms(spec)
    flat, src, layout = _d_table()
    # degree 6 ends the buffer
    buf = scatter_add(flat, np.concatenate((d1, -d1)).reshape(-1)[src], layout[DIM - 1][1])
    mats = {0: zeros((DIM, 1), spec.exact), 1: d1}
    for k, (start, stop, shape) in layout.items():
        mats[k] = buf[start:stop].reshape(shape)
    return mats


def invariant_d(mats: dict, a: Form) -> Form:
    """d a through the matrices of `invariant_d_matrices`."""
    if a.degree == DIM:
        raise ValueError("d of a top-degree form vanishes identically")
    return Form(a.degree + 1, mats[a.degree].dot(a.coeffs))


def invariant_delta(mats: dict, a: Form) -> Form:
    """Codifferential delta = (-1)^k * d * on invariant k-forms."""
    if a.degree == 0:
        return Form.zero(0, a.exact)
    sign = -1 if a.degree % 2 else 1
    return sign * hodge(invariant_d(mats, hodge(a)))


def jacobi_residual(spec: LieAlgebraSpec) -> float:
    """Max residual of d(d e^k); zero iff the Jacobi identity holds."""
    return InvariantGeometry(spec).jacobi


def d_squared_residual(spec: LieAlgebraSpec) -> float:
    """Max residual of d d over all degrees."""
    return InvariantGeometry(spec).d_squared


# --- connection and curvature ------------------------------------------------------

#: the flat positions of the entries (jk, il) and (ik, jl) of the 49 x 49
#: product Gamma_jkp Gamma_ipl that `riemann` reads at the pair-matrix
#: entries, rows (ij) against columns (kl)
_GG_ENTRIES = frozen((
    (_PAIR_J[:, None] * DIM + _PAIR_I) * DIM**2 + _PAIR_I[:, None] * DIM + _PAIR_J,
    (_PAIR_I[:, None] * DIM + _PAIR_I) * DIM**2 + _PAIR_J[:, None] * DIM + _PAIR_J,
))


#: the largest max |d d e^k| the Levi-Civita connection accepts
JACOBI_TOL = 1e-10


def _koszul(d1: np.ndarray) -> np.ndarray:
    """Gamma_ijk = (c_ijk - c_jki + c_kij)/2, c_ijk = g([e_i,e_j],e_k) = c^k_ij
    read off d on 1-forms."""
    cl = zeros((DIM, DIM, DIM), d1.dtype == object)
    cl[_PAIR_I, _PAIR_J] = -d1
    cl[_PAIR_J, _PAIR_I] = d1
    c_jki = cl.transpose(2, 0, 1)  # entry [i,j,k] = cl[j,k,i]
    c_kij = cl.transpose(1, 2, 0)  # entry [i,j,k] = cl[k,i,j]
    return (cl - c_jki + c_kij) / 2


def levi_civita(spec: LieAlgebraSpec) -> np.ndarray:
    """The Levi-Civita connection by Koszul, gated on the Jacobi identity."""
    return InvariantGeometry(spec).gamma


def riemann(spec: LieAlgebraSpec, gamma: np.ndarray) -> CurvatureTensor:
    """R_ijkl = g(R(e_i, e_j) e_k, e_l) for the left-invariant metric with
    Levi-Civita connection gamma, built at the pair-matrix entries i < j, k < l."""
    # grad_i grad_j e_k = Gamma_jkp Gamma_ipl e_l, as a flattened (jk, il) matrix
    gg = gamma.reshape(DIM * DIM, DIM).dot(gamma.transpose(1, 0, 2).reshape(DIM, DIM * DIM))
    gg = gg.reshape(-1)
    jkil, ikjl = _GG_ENTRIES
    brackets = _pair_entries(spec.c).T  # (ij, p) -> c^p_ij
    # R_ijkl = Gamma_jkp Gamma_ipl - Gamma_ikp Gamma_jpl - c^p_ij Gamma_pkl
    return CurvatureTensor(gg[jkil] - gg[ikjl] - brackets.dot(_pair_entries(gamma)))


def connection_form_action(gamma: np.ndarray, a: Form) -> list:
    """[grad_{e_i} a for i = 1..7] for an invariant form a."""
    return [Form(a.degree, row) for row in _connection_stack(gamma, a)]


# --- the full invariant pipeline -----------------------------------------------------

#: the degrees of the forms of the canonical-connection pass, phi,
#: *(tau1 ^ *phi), tau2 and tau3, and the columns each takes in its stack
_PASS_DEGREES = (3, 2, 2, 3)
_PASS_COLUMNS = tuple(np.cumsum([0] + [dim_of(k) for k in _PASS_DEGREES]).tolist())


class InvariantGeometry:
    """The invariant geometry of (spec, phi), each stage built on first use
    and kept.  Three stages are gates and raise ValueError: `gamma` on the
    Jacobi identity, `torsion` on the extraction and `nabla_bar_phi` on the
    canonical connection."""

    def __init__(self, spec: LieAlgebraSpec, phi: Form = None):
        self.spec = spec
        # the standard phi holds the shared template, which the
        # extraction gate knows to be standard
        self.phi = Form(3, _phi_templates(spec.exact)[0]) if phi is None else phi

    @property
    def exact(self) -> bool:
        return self.spec.exact

    @lazy
    def d_mats(self) -> dict:
        return invariant_d_matrices(self.spec)

    @lazy
    def jacobi_product(self) -> np.ndarray:
        """d_2 d_1: d(d e^k) for each k."""
        return self.d_mats[2].dot(self.d_mats[1])

    @lazy
    def jacobi(self) -> float:
        return max_abs(self.jacobi_product)

    @lazy
    def d_squared(self) -> float:
        """max |d d| over all degrees."""
        mats = self.d_mats
        return max_abs(self.jacobi_product, *(mats[k + 1].dot(mats[k]) for k in range(2, DIM - 1)))

    @lazy
    def gamma(self) -> np.ndarray:
        """The Levi-Civita connection."""
        if not self.jacobi <= JACOBI_TOL:
            raise ValueError(f"structure constants fail the Jacobi identity (residual {self.jacobi:.3g})")
        return _koszul(self.d_mats[1])

    @lazy
    def curvature(self) -> CurvatureTensor:
        return riemann(self.spec, self.gamma)

    @lazy
    def dphi(self) -> Form:
        return invariant_d(self.d_mats, self.phi)

    @lazy
    def dstarphi(self) -> Form:
        return invariant_d(self.d_mats, hodge(self.phi))

    @lazy
    def structure_solve(self) -> tuple:
        """(torsion, reconstruction residual) of the structure equations."""
        return solve_structure_equations(self.phi, self.dphi, self.dstarphi)

    torsion = property(lambda self: self.structure_solve[0])
    structure_residual = property(lambda self: self.structure_solve[1])

    @lazy
    def xi(self) -> IntrinsicTorsion:
        return intrinsic_from_torsion(self.torsion)

    @lazy
    def gamma_bar(self) -> np.ndarray:
        """The canonical connection gamma - xi."""
        return self.gamma - self.xi.xi

    @lazy
    def ricci_terms(self) -> dict:
        """The k-independent torsion terms of the generalized Ricci formula."""
        return ricci_terms(self.torsion)

    @lazy
    def connection_pass(self) -> tuple:
        """The canonical-connection pass over phi, *(tau1 ^ *phi), tau2 and
        tau3: their (7, 112) stack nabla-bar_i a, side by side, and the
        (4, 35) rows of the alternations alt(grad phi) and d^nabla-bar a of
        the other three.  One scatter of the four forms, one product of
        gamma-bar with it and one of gamma with phi's block, and one
        alternation scatter over the outputs."""
        t = self.torsion
        m = connection_matrix(self.phi, self.ricci_terms["*(tau1^*phi)"], t.tau2, t.tau3)
        bar = connection_action(self.gamma_bar, m)
        n = _PASS_COLUMNS[1]
        # gamma = gamma-bar + xi: the NaN check of gamma-bar's action covers it
        grad_phi = self.gamma.reshape(DIM, DIM * DIM).dot(m[:, :n])
        alts = alternate(np.concatenate((grad_phi, bar[:, n:]), axis=1), _PASS_DEGREES)
        return bar, alts.reshape(len(_PASS_DEGREES), -1)  # each output has 35 coefficients

    @lazy
    def nabla_bar_phi(self) -> float:
        """max |nabla-bar phi|; a residual signals a convention error upstream
        rather than a property of the input."""
        residual, size = max_abs_each(self.connection_pass[0][:, : _PASS_COLUMNS[1]], self.gamma)
        if not residual <= bound(1e-9, size):
            raise ValueError(f"canonical connection does not annihilate phi (residual {residual:.3g})")
        return residual

    @lazy
    def nabla_bar_tau2(self) -> np.ndarray:
        """(7, 21) coefficients of nabla-bar_i tau2, ungated: the block of the
        connection pass, whose d^nabla-bar tau2 alternates it and which
        `nabla_bar_tau` gates, as one contiguous array."""
        return np.ascontiguousarray(self.connection_pass[0][:, _PASS_COLUMNS[2] : _PASS_COLUMNS[3]])

    @lazy
    def ricci_derivs(self) -> dict:
        """Per route, the derivatives of *(tau1 ^ *phi), tau2 and tau3 that the
        generalized Ricci formula takes: d, and d^nabla-bar (views of the
        connection pass)."""
        t1_w, tau2, tau3 = self.ricci_terms["*(tau1^*phi)"], self.torsion.tau2, self.torsion.tau3
        alts = self.connection_pass[1]
        return {
            "exterior": [self.d(t1_w), self.d(tau2), self.d(tau3)],
            "canonical": [Form(3, alts[1]), Form(3, alts[2]), Form(4, alts[3])],
        }

    def d(self, a: Form) -> Form:
        return invariant_d(self.d_mats, a)

    def delta(self, a: Form) -> Form:
        return invariant_delta(self.d_mats, a)

    def d_nabla_bar(self, a: Form) -> Form:
        """d^nabla-bar a = sum_i e^i ^ nabla-bar_i a."""
        return covariant_wedge(self.gamma_bar, a)


def canonical_connection(spec: LieAlgebraSpec, phi: Form = None):
    """Intrinsic torsion and canonical-connection coefficients (xi, gamma_bar)
    of `geometry`, with gamma_bar = gamma - xi."""
    geo = geometry(spec, phi)
    return geo.xi, geo.gamma_bar


def geometry(spec: LieAlgebraSpec, phi: Form = None) -> InvariantGeometry:
    """The invariant geometry of (spec, phi) with its three gates passed:
    Jacobi, then extraction, then the canonical connection."""
    geo = InvariantGeometry(spec, phi)
    geo.nabla_bar_phi  # the last gate builds the stages of the other two
    return geo


def nabla_bar_tau(geo: InvariantGeometry) -> MixedV14:
    """nabla-bar of the Lambda^2_14 torsion form as a mixed tensor, gated on
    its Lambda^2_14 membership relative to its size."""
    mixed = MixedV14(geo.nabla_bar_tau2)
    residual, size = mixed.membership
    if not residual <= bound(1e-8, size):
        raise ValueError("nabla-bar tau left Lambda^2_14; connection is not G2")
    return mixed


# --- report -------------------------------------------------------------------------


class Check:
    __slots__ = ("name", "residual", "tol", "scale")

    def __init__(self, name: str, residual: float, tol: float, scale: float = 0.0):
        self.name, self.residual, self.tol = name, residual, tol
        self.scale = scale  # the size the tolerance is relative to; 0 for absolute checks

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "scale": self.scale,
            "passed": self.passed,
        }


class Report:
    """Named checks judged by one rule: a check passes when its residual is
    at most ``bound(tol, scale) * slack``, with ``tol`` the report's base
    tolerance and ``slack`` the headroom of a long chain of rounding."""

    __slots__ = ("name", "tol", "checks", "summary")

    def __init__(self, name: str, tol: float, checks: list = None, summary: dict = None):
        self.name, self.tol = name, tol
        self.checks = [] if checks is None else checks
        self.summary = {} if summary is None else summary

    def add(self, name: str, residual, scale: float = 0.0, slack: int = 1):
        """Record one check outside the catalogue, of weight 0."""
        self.extend(_catalogue((name, 0, slack)), ((residual, scale),))

    def extend(self, rows, pairs):
        """Record catalogue rows, one (residual, scale) pair per row: one vectorised
        `bounds` gives every tolerance, per check the IEEE product ``bound(tol, scale) * slack``."""
        residuals, scales = zip(*pairs)
        scales = np.array(scales, dtype=float)
        tols = bounds(self.tol, scales) * rows["slack"]
        self.checks += map(Check, rows["name"].tolist(), map(float, residuals), tols.tolist(), scales.tolist())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "summary": self.summary,
            "checks": [c.as_dict() for c in self.checks],
        }


def _catalogue(*rows) -> np.ndarray:
    """(name, weight, slack) rows as one record array, `frozen`."""
    return frozen(np.array(list(rows), dtype=[("name", object), ("weight", int), ("slack", float)]))


K_VALUES = ((1, 0), (0, 1), (4, -5))
_K = frozen(np.array(K_VALUES))
#: the check catalogue: one (name, weight, slack) row per check of `analyze`
#: in report order, the closed chain's last
CHECKS = _catalogue(
    ("jacobi (d d e^k = 0)", 2, 1),
    ("d^2 = 0 (all degrees)", 2, 1),
    ("structure equations solve (d phi, d *phi)", 1, 1),
    # Levi-Civita sanity: metric and torsion-free
    ("Levi-Civita metric (Gamma antisym in last two)", 1, 1),
    ("Levi-Civita torsion-free", 1, 1),
    ("d = alt(grad) on phi", 1, 1),
    # canonical connection
    ("nabla-bar phi = 0", 1, 1),
    ("nabla-bar g = 0 (gamma-bar antisymmetry)", 1, 1),
    ("gamma-bar is g2-valued", 1, 1),
    # curvature block
    ("first Bianchi identity", 2, 1),
    ("curvature blocks reassemble", 2, 1),
    ("scalar curvature from torsion", 2, 1),
    *((f"Ricci formula, {route} route, k={k}", 2, 50) for k in K_VALUES for route in RICCI_ROUTES),
    ("d tau2 vs canonical-derivative conversion", 2, 50),
    ("closed: torsion reduces to tau2", 1, 1),
    ("closed: delta phi = tau", 1, 1),
    ("closed: cyclic identity for xi", 1, 1),
    ("closed: nabla-bar tau has no 7-part", 2, 1),
    ("closed: canonical-derivative identity for d tau", 2, 10),
    ("closed: d^nabla-bar tau lands in Lambda^3_27", 2, 10),
    ("closed: *d(tau^3)/3 = <d tau, *(tau^tau)>", 4, 10),
    ("closed: <d tau, *(tau^tau)> = <dbar tau, *(tau^tau)_27>", 4, 10),
    *(
        row
        for k in K_VALUES
        for row in ((f"closed: Ricci formula, k={k}", 2, 10), (f"closed: Ricci norm identity, k={k}", 4, 10))
    ),
    ("closed: scalar curvature = -|tau|^2 / 2", 2, 1),
    ("closed: EPR norm identity (dbar tau = 0)", 4, 10),
    ("closed: ||W64||^2 = ||(nabla-bar tau)_64||^2 / 3", 4, 10),
    ("closed: curvature contraction identity (componentwise)", 2, 10),
    ("closed: squared contraction identity", 4, 10),
)


#: the rows `analyze` records, and the closed chain's with (True) and without
#: (False) the EPR check, which it records only when dbar tau = 0
_ANALYZE_ROWS = _catalogue(*(row for row in CHECKS if not row["name"].startswith("closed:")))
_CLOSED_ROWS = {
    epr: _catalogue(*(row for row in CHECKS[len(_ANALYZE_ROWS) :] if epr or "EPR" not in row["name"]))
    for epr in (True, False)
}


def analyze(spec: LieAlgebraSpec, phi: Form = None, tol: float = 1e-9) -> Report:
    """Run every pointwise identity the paper trail provides on one example.

    Covers: complex consistency (Jacobi, d^2), torsion extraction and type,
    canonical connection (nabla-bar g = nabla-bar phi = 0), curvature with
    its five-block decomposition, the generalized-Ricci formulas in both
    exterior and canonical-connection form for three weightings, the scalar
    curvature formula, and the closed-structure chain (cyclic identity,
    nabla-bar tau splitting, Ricci-pinching predicate, the curvature
    contraction identities) when d phi = 0.  Each check is judged by
    `Report.extend` against the size of what it compares.
    """
    report = Report(spec.name, tol)
    exact = spec.exact
    geo = geometry(spec, phi)
    phi, dphi, t = geo.phi, geo.dphi, geo.torsion
    gamma, gamma_bar = geo.gamma, geo.gamma_bar
    r = geo.curvature
    dec = decompose(r, tol=max(tol, 1e-8))
    s_g = dec.s

    # generalized Ricci formulas, both routes, three weightings: one stack
    # of right-hand sides, and the left sides lambda3(Ric0^k) in one product
    # of the (k, 49) stack Ric0^k, which the closed chain reads too
    terms, derivs = geo.ricci_terms, geo.ricci_derivs
    ric0k = _K.dot(dec.ric0_stack.reshape(2, -1))
    lhs = lambda3_rows(ric0k)
    rhs = ricci_rows(derivs, terms, K_VALUES)  # (route, k, 35)
    ricci_residuals = np.abs(rhs - lhs).max(axis=-1)  # (route, k)

    # d tau2 conversion identity (exterior vs canonical derivative), one
    # weighted row over the torsion terms
    d_tau2 = derivs["exterior"][1].coeffs
    conv = dtau2_conversion(t, terms, derivs["canonical"][1])

    # the residuals of the checks below, in one reduction
    (
        lc_metric,
        lc_torsion,
        alt_grad,
        nabla_bar_g,
        g2_valued,
        reassembly,
        r_size,
        scale44,
        conversion,
        conv_size,
        d_tau2_size,
        dphi_size,
        dstarphi_size,
        phi_size,
        gamma_size,
    ) = max_abs_each(
        gamma + gamma.transpose(0, 2, 1),
        gamma - gamma.transpose(1, 0, 2) - spec.c.transpose(1, 2, 0),
        geo.connection_pass[1][0] - dphi.coeffs,
        gamma_bar + gamma_bar.transpose(0, 2, 1),
        _pair_entries(gamma_bar).dot(projector_matrix(2, 7, exact).T),  # row i: the 2-form gamma-bar_i
        dec.reassemble().mat - r.mat,
        r.mat,
        dec.ric0_stack,
        conv - d_tau2,
        conv,
        d_tau2,
        dphi.coeffs,
        geo.dstarphi.coeffs,
        phi.coeffs,
        gamma,
    )

    # scalar curvature from torsion, Eq-4.25 style
    delta_tau1 = geo.delta(t.tau1).coeffs[0]
    report.extend(
        _ANALYZE_ROWS,
        (
            (geo.jacobi, 0.0),
            (geo.d_squared, 0.0),
            (geo.structure_residual, max(dphi_size, dstarphi_size)),
            (lc_metric, gamma_size),
            (lc_torsion, gamma_size),
            (alt_grad, gamma_size),
            (geo.nabla_bar_phi, gamma_size),
            (nabla_bar_g, gamma_size),
            (g2_valued, gamma_size),
            (dec.bianchi, r_size),
            (reassembly, r_size),
            (abs(float(scalar_from_torsion(t, delta_tau1) - s_g)), abs(float(s_g))),
            *((residual, scale44) for residual in ricci_residuals.T.ravel().tolist()),
            (conversion, max(conv_size, d_tau2_size)),
        ),
    )

    # summary data
    norms = t.norms()
    report.summary = {
        "fg_type": sorted(fg_type_of_norms(norms)),
        "torsion_norms": norms,
        "scalar_curvature": float(s_g),
        "block_norms": dec.block_norms(),
        "ric0_norm2": float(dec.ric0_norm2),
    }

    if dphi_size <= bound(1e-10, phi_size):  # closed
        _closed_structure_checks(report, geo, dec, ric0k, lhs)
    return report


@table
def _closed_ricci_weights(exact: bool) -> tuple:
    """Per k of K_VALUES, the weights of the closed Ricci formula

        lambda3(Ric0^k) = -(k1 - 4 k2) dbar tau + (k1 + 5 k2)/3 *(tau^tau)_27

    on (dbar tau, *(tau^tau)_27), as (k, 2), and of its norm

        ||Ric0^k||^2 = (k1 - 4 k2)^2/2 |dbar tau|^2 + (k1 + 5 k2)^2/21 |tau|^4
                       - (k1 + 5 k2)(k1 - 4 k2)/3 <dbar tau, *(tau^tau)_27>

    on (|dbar tau|^2, |tau|^4, <dbar tau, *(tau^tau)_27>), as (k, 3)."""
    one = scalar(1, exact)
    formula, norm = zeros((len(K_VALUES), 2), exact), zeros((len(K_VALUES), 3), exact)
    for row, (k1, k2) in enumerate(K_VALUES):
        k_dbar, k_tt = k1 - 4 * k2, k1 + 5 * k2
        formula[row] = -k_dbar * one, one / 3 * k_tt
        norm[row] = one / 2 * k_dbar**2, one / 21 * k_tt**2, -(one / 3 * k_tt * k_dbar)
    return formula, norm


@table
def _lambda3_1_7(exact: bool) -> np.ndarray:
    """The projectors onto Lambda^3_1 and Lambda^3_7 stacked as one (70, 35)
    matrix."""
    return np.concatenate([projector_matrix(3, d, exact) for d in (1, 7)])


#: the positions of tau0, tau1 and tau3 in the packed torsion vector
_NOT_TAU2 = frozen(np.r_[0:8, 29:64])


@table
def _term2_entries() -> np.ndarray:
    """Flat positions of the entries (i, t, j), i < j, of a 7 x 7 x 7 array,
    as a (21, 7) array: rows the pairs, columns t."""
    return (_PAIR_I[:, None] * DIM + np.arange(DIM)) * DIM + _PAIR_J[:, None]


def _closed_structure_checks(report: Report, geo: InvariantGeometry, dec, ric0k, lambda3_ric0k):
    """The d phi = 0 chain: everything the closed case pins down pointwise,
    read off the stages of ``geo``, the curvature decomposition ``dec`` and
    the (k, 49) stack Ric0^k of K_VALUES with its lambda3 rows, which the
    Ricci-formula checks of `analyze` built.  Each family of checks is a few
    array operations over one stack: the three weightings, the two parts of
    the split of nabla-bar tau and the four Cauchy-Schwarz norms (one Gram
    matrix).  The maxima of the check arrays are one reduction; the checks
    are then recorded in their order, in one `Report.extend`."""
    t = geo.torsion
    tau = t.tau2
    tau_n = t.norm2s[1]
    phi = geo.phi
    exact = geo.exact
    one = scalar(1, exact)
    p3, _ = phi_arrays(exact)
    dbar_form = geo.ricci_derivs["canonical"][1]
    dtau, dbar_tau = geo.ricci_derivs["exterior"][1].coeffs, dbar_form.coeffs
    star_tt = geo.ricci_terms["*(tau2^tau2)"]

    # the split reads the wedge of nabla-bar tau that d^nabla-bar tau is
    nb_tau = nabla_bar_tau(geo)
    g64, _, g7 = _split_v14(nb_tau, dbar_form)

    # d^nabla-bar tau = d tau - *(tau^tau)/6 - |tau|^2 phi / 6
    rhs = dtau - one / 6 * star_tt.coeffs - one / 6 * tau_n * phi.coeffs

    # the inner-product chain around *d(tau^3), with tau^tau = *(*(tau^tau))
    # and *vol = 1; *d(tau^3) is 0 on every unimodular algebra, so each inner
    # product is also judged against its Cauchy-Schwarz bound, which grows
    # like |tau|^4.  The inner products and the norms are entries of one Gram
    # matrix of (d tau, *(tau^tau), dbar tau, *(tau^tau)_27).
    star_d_tau3 = geo.d(wedge(tau, hodge(star_tt))).coeffs[0]
    star_tt27 = projector_matrix(3, 27, exact).dot(star_tt.coeffs)
    rows = np.concatenate((dtau, star_tt.coeffs, dbar_tau, star_tt27)).reshape(4, -1)
    gram = rows.dot(rows.T)
    lhs_a, lhs_b, lhs_c = star_d_tau3 / 3, gram[0, 1], gram[2, 3]  # lhs_c = <dbar tau, *(tau^tau)_27>
    norm = [float(n) ** 0.5 for n in gram.diagonal()]
    scale_ab = max(abs(float(lhs_a)), norm[0] * norm[1])
    scale_bc = max(scale_ab, norm[2] * norm[3])

    # closed-case Ricci formula and norms, the three weightings at once
    s_g = dec.s
    formula_w, norm_w = _closed_ricci_weights(exact)
    formula = lambda3_ric0k - formula_w.dot(rows[2:])  # (k, 35)
    n_true = (ric0k * ric0k).sum(axis=1)
    n_pred = norm_w.dot(np.array([gram[2, 2], tau_n * tau_n, lhs_c]))

    # contraction of the curvature against phi at the pairs i < j (rows) and t:
    # R_ijab phi_abt = (dbar tau)_ijt - nabla-bar_t tau_ij
    #                  + (tau_pq tau_pt phi_qij - tau_ip tau_jq phi_pqt)/6
    b = _iphi_matrix(exact)  # b[t, ab] = phi_abt
    lhs40 = 2 * geo.curvature.mat.dot(b.T)  # the sum over a < b, doubled
    tau_arr = to_antisym(tau).array
    term1 = b.T.dot(tau_arr.T.dot(tau_arr))  # phi_qij (tau_pq tau_pt)
    # term2_ijt = tau_ip phi_pqt tau_jq, as (i, t, j): the reshapes and products of np.tensordot
    tp = tau_arr.dot(p3.reshape(DIM, DIM * DIM)).reshape(DIM, DIM, DIM).transpose(0, 2, 1)
    term2 = tp.reshape(DIM * DIM, DIM).dot(tau_arr.T).reshape(-1).take(_term2_entries())
    rhs40 = (frame_interior(dbar_form).T - nb_tau.array.T) + (term1 - term2) / 6

    (reduces, delta_phi, dstarphi_size, tau_size, cyclic, xi_size, no_7, canonical, rhs_size, lands_27, dbar_size,
     contraction, lhs40_size) = max_abs_each(
        t.packed[_NOT_TAU2],
        -hodge(geo.dstarphi).coeffs - tau.coeffs,  # delta phi = -*d*phi on 3-forms
        geo.dstarphi.coeffs,
        tau.coeffs,
        geo.xi.cyclic_sum(),
        geo.xi.xi,
        g7.array,
        dbar_tau - rhs,
        rhs,
        _lambda3_1_7(exact).dot(dbar_tau),
        dbar_tau,
        lhs40 - rhs40,
        lhs40,
    )
    # per k, the largest entries of the formula residual and of Ric0^k
    formula_residuals, ric0k_sizes = np.abs(formula).max(axis=1), np.abs(ric0k).max(axis=1)
    nb_size = nb_tau.membership[1]

    # extremally pinched Ricci predicate: d^nabla-bar tau = 0 iff
    # ||Ric0||^2 = 4/21 s^2; report both sides
    epr_lhs = float(dec.ric0_norm2)
    epr_rhs = float(4 * s_g * s_g / 21)
    is_epr = dbar_size <= bound(1e-8, float(tau_n))
    # closed case: the 64-block norm is tied to the canonical derivative
    w64_n = dec.norm2s["W64"]
    # parallel-torsion characterisation: nabla-bar tau = 0 iff EPR and W64 = 0
    nb_norm = float(nb_tau.tensor_norm2())
    # the squared identity with the *d(tau^3) term evaluated explicitly
    lhs41 = 2 * (lhs40 * lhs40).sum()  # the (i, j) and (j, i) entries
    rhs41 = (
        3 * w64_n
        + scalar(40, exact) / 7 * dec.ric0_norm2
        - scalar(13, exact) / 147 * s_g * s_g
        + scalar(34, exact) / 63 * star_d_tau3
    )

    pairs = [
        (reduces, max(reduces, tau_size)),  # max |tau|
        (delta_phi, max(dstarphi_size, tau_size)),
        (cyclic, xi_size),
        (no_7, nb_size),
        (canonical, max(dbar_size, rhs_size)),
        (lands_27, dbar_size),
        (abs(float(lhs_a - lhs_b)), scale_ab),
        (abs(float(lhs_b - lhs_c)), scale_bc),
    ]
    for residual, size, pred, true in zip(formula_residuals, ric0k_sizes, n_pred, n_true):
        pairs += [(residual, size), (abs(float(pred - true)), abs(float(true)))]
    pairs.append((abs(float(s_g + tau_n / 2)), abs(float(s_g))))
    if is_epr:
        pairs.append((abs(epr_lhs - epr_rhs), epr_rhs))
    pairs += [
        (abs(float(w64_n - g64.tensor_norm2() / 3)), float(w64_n)),
        (contraction, lhs40_size),
        (abs(float(lhs41 - rhs41)), abs(float(lhs41))),
    ]
    report.extend(_CLOSED_ROWS[is_epr], pairs)
    report.summary["extremally_pinched"] = bool(is_epr)
    report.summary["epr_identity"] = (epr_lhs, epr_rhs)
    report.summary["parallel_torsion"] = bool(nb_norm <= bound(1e-12, float(tau_n)))


# --- built-in examples ----------------------------------------------------------------


def builtin_examples(exact: bool = False) -> dict:
    """The shipped Lie algebra examples with their expected-values manifest."""
    examples = {}

    examples["flat"] = {
        "spec": LieAlgebraSpec("flat", zeros((DIM, DIM, DIM), exact)),
        "expected": {"fg_type": [], "scalar_curvature": 0.0},
    }

    # rank-one solvable hyperbolic space: de^i = -e^{i7}, i = 1..6
    hyp = {k: {(k, 7): -1} for k in range(1, 7)}
    examples["hyperbolic"] = {
        "spec": spec_from_coframe_d("hyperbolic", hyp, exact),
        "expected": {
            "fg_type": [4],
            "scalar_curvature": -42.0,
            "tau1": {(7,): 1.0},
            "pure_scalar_block": True,
        },
    }

    # solvable extension of the complex Heisenberg group carrying the
    # closed three-form with extremally pinched Ricci curvature
    bryant = {
        1: {(1, 7): -1, (3, 6): -2, (4, 5): -2},
        2: {(2, 7): -1, (3, 5): -2, (4, 6): 2},
        3: {(3, 7): 1},
        4: {(4, 7): 1},
        5: {(5, 7): -2},
        6: {(6, 7): -2},
    }
    examples["bryant"] = {
        "spec": spec_from_coframe_d("bryant", bryant, exact),
        "expected": {
            "fg_type": [2],
            "closed": True,
            "extremally_pinched": True,
            "parallel_torsion": True,
            "W64_zero": True,
        },
    }
    return examples
