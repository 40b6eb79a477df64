"""Warped-product and cohomogeneity-one torsion over SU(3)-model fibers.

Geometry of the form M = I x M* with G2 three-form phi = omega_t ^ dt
+ psi_t^+.  Two fiber models are shipped:

* a nearly Kaehler model (d omega = 3 sigma psi+, d psi- = -2 sigma
  omega^2), sigma = 0 giving the Calabi-Yau case;
* the flag-manifold model with torus symmetry (three Kaehler forms
  omega_i, d omega_i = psi+/2, d psi- = -2 sum omega_i omega_j).

A product form alpha + beta ^ dt is one array of order-2 jets in t, shape
(2, n, 3): the fiber and dt blocks over the n orthonormal-frame ("unit")
symbols of the fiber, the value, first and second derivative last.  Row s of
the fiber block is the symbol form on e^1..e^6 and row s of the dt block is
the symbol ^ e^7 (beta ^ dt, dt last).  Star and wedge act on whole jets
(the wedge through the (3, 3, 3) Leibniz table).  The stacked per-degree
dictionaries of the 2n rows, the Hodge star and the wedge (the package's R^7
`hodge` and `wedge` restricted to the rows, span-checked) and the pattern of
d (its geometric-symbol coefficients at unit scale, and where each entry sits
in the value rows of d) are constant tables built once per fiber kind and
shared; a model adds only the scale of d (sigma for a nearly
Kaehler fiber).  Every exterior derivative is read at the sample point, so
only the value rows of d are built: once per spec, from the values and first
log-derivatives of the frame weights (monomials in the warp factors, from an
exponent table), as one (2n, 6n) matrix on the flattened jets.  Evaluation
undoes the phase of psi_t^+/psi_t^- by a frame rotation of the (psi+, psi-)
rows and lands every form in the adapted frame of the standard phi, where
the generic torsion machinery applies.

Closed-form torsion components (scalar `Jet` arithmetic, one tuple per
operation, evaluated from their symbol parts) and the generic
structure-equation extraction are cross-checked against each other at every
call.  Every public entry point builds one `_Solve`: one frame (fiber model,
value rows of d) and the intermediates (phi and *phi, the closed-form
torsion), each built on first use and read by both routes, by the scalar
curvature and by the Weyl-Ricci residual.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Mapping
from operator import itemgetter, mul
from typing import NamedTuple

import numpy as np

from ._linalg import frozen, lazy, max_abs, table
from .exterior_algebra import (
    DIM,
    Form,
    dim_of,
    hodge,
    standard_omega,
    standard_psi_minus,
    standard_psi_plus,
    wedge,
)
from .torsion import (
    TorsionComponents,
    extract_torsion,
    fg_type,
    fg_type_of_norms,
    ricci_rhs_exterior,
    scalar_from_torsion,
)

# --- order-2 jets ------------------------------------------------------------------


_tuple_new = tuple.__new__


class Jet(tuple):
    """Order-2 jet (value, first, second derivative) of a function of t.

    An immutable triple of Python floats: a tuple subclass with named
    fields, so that the scalar arithmetic of the closed-form torsion pays for
    one tuple per operation, and never for numpy scalar arithmetic.  A plain
    number operand is the constant jet (x, 0, 0), and every operator applies
    the same formula to it as to a jet.
    """

    __slots__ = ()
    #: numpy defers mixed arithmetic (a numpy scalar times a jet) to Jet
    __array_ufunc__ = None

    def __new__(cls, value, d1=0.0, d2=0.0):
        return _tuple_new(cls, (float(value), float(d1), float(d2)))

    def __getnewargs__(self):
        return tuple(self)

    value = property(itemgetter(0))
    d1 = property(itemgetter(1))
    d2 = property(itemgetter(2))

    def __repr__(self):
        return f"Jet(value={self[0]!r}, d1={self[1]!r}, d2={self[2]!r})"

    @staticmethod
    def const(c) -> "Jet":
        return _tuple_new(Jet, (float(c), 0.0, 0.0))

    @staticmethod
    def coerce(x) -> "Jet":
        return x if isinstance(x, Jet) else Jet.const(x)

    def derivative(self) -> "Jet":
        """Shift down one order; the top slot of the result is truncated."""
        return _tuple_new(Jet, (self[1], self[2], 0.0))

    def __add__(self, o):
        v, a, b = self
        x, y, z = o if isinstance(o, Jet) else (float(o), 0.0, 0.0)
        return _tuple_new(Jet, (v + x, a + y, b + z))

    __radd__ = __add__

    def __neg__(self):
        v, a, b = self
        return _tuple_new(Jet, (-v, -a, -b))

    # u - w is u + (-w) in IEEE arithmetic, signed zeros included
    def __sub__(self, o):
        v, a, b = self
        x, y, z = o if isinstance(o, Jet) else (float(o), 0.0, 0.0)
        return _tuple_new(Jet, (v - x, a - y, b - z))

    def __rsub__(self, o):
        v, a, b = self
        x, y, z = o if isinstance(o, Jet) else (float(o), 0.0, 0.0)
        return _tuple_new(Jet, (x - v, y - a, z - b))

    def __mul__(self, o):
        v, a, b = self
        x, y, z = o if isinstance(o, Jet) else (float(o), 0.0, 0.0)
        return _tuple_new(Jet, (v * x, a * x + v * y, b * x + 2 * a * y + v * z))

    __rmul__ = __mul__

    def inv(self):
        v, a, b = self
        return _tuple_new(Jet, (1 / v, -a / v**2, (2 * a**2 - v * b) / v**3))

    def __truediv__(self, o):
        return self * Jet.coerce(o).inv()

    def __rtruediv__(self, o):
        return Jet.coerce(o) * self.inv()

    def _chain(self, f, fp, fpp):
        a, b = self[1], self[2]
        return _tuple_new(Jet, (f, fp * a, fpp * a**2 + fp * b))

    def sin(self):
        s, c = math.sin(self[0]), math.cos(self[0])
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self[0]), math.cos(self[0])
        return self._chain(c, -s, -c)

    def exp(self):
        e = math.exp(self[0])
        return self._chain(e, e, e)

    def log(self):
        v = self[0]
        return self._chain(math.log(v), 1 / v, -1 / v**2)


def jet_var(t: float) -> Jet:
    """The coordinate function t as a jet at the sample point."""
    return Jet(float(t), 1.0, 0.0)


#: named profiles for the CLI: t -> jet at t
JET_PROFILES = {
    "t": jet_var,
    "sin": lambda t: jet_var(t).sin(),
    "cos": lambda t: jet_var(t).cos(),
    "exp": lambda t: jet_var(t).exp(),
    "sinh": lambda t: Jet(math.sinh(t), math.cosh(t), math.sinh(t)),
    "cosh": lambda t: Jet(math.cosh(t), math.sinh(t), math.cosh(t)),
    "zero": lambda t: Jet.const(0.0),
    "one": lambda t: Jet.const(1.0),
}


def jet_profile(name: str, t: float) -> Jet:
    if name.startswith("const:"):
        return Jet.const(float(name.split(":", 1)[1]))
    if name.startswith("scale-t:"):
        return float(name.split(":", 1)[1]) * jet_var(t)
    if name not in JET_PROFILES:
        raise ValueError(f"unknown profile {name!r}; know {sorted(JET_PROFILES)}")
    return JET_PROFILES[name](t)


#: Leibniz rule of order-2 jets: (a b)_k = sum_ij LEIBNIZ[i, j, k] a_i b_j.
LEIBNIZ = np.zeros((3, 3, 3))
LEIBNIZ[0, 0, 0] = LEIBNIZ[1, 0, 1] = LEIBNIZ[0, 1, 1] = LEIBNIZ[2, 0, 2] = LEIBNIZ[0, 2, 2] = 1
LEIBNIZ[1, 1, 2] = 2
frozen(LEIBNIZ)


def jet_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of arrays of jets (last axis: value, d1, d2), broadcast."""
    return np.einsum("...i,...j,ijk->...k", a, b, LEIBNIZ)


# --- fiber models -------------------------------------------------------------------


class _FiberTables(NamedTuple):
    """The sigma-independent tables of a fiber kind over its n unit symbols;
    star, wedge and dictionaries act on the 2n rows (fiber, dt) of a product
    form."""

    symbols: Mapping  # name -> (degree, dictionary Form on e^1..e^6)
    index: Mapping  # name -> row
    exponents: np.ndarray  # frame weights w_s = prod_i f_i ** exponents[s, i]
    sign: np.ndarray  # (-1) ** degree
    star: np.ndarray  # (2n, 2n)
    wedge: np.ndarray  # (2n, 2n, 2n): out[o] = sum wedge[o, a, b] x[a] y[b]
    dictionaries: tuple  # per degree p, (2n, C(7, p)): the form of each row on R^7
    psi: slice  # the adjacent rows (psi+, psi-) that evaluation rotates
    d_source: np.ndarray  # d_geom at d_scale 1 as rows (source, target, coefficient)
    d_target: np.ndarray
    d_coeff: np.ndarray
    d_positions: np.ndarray  # flat positions of the entries of `_d_values` on (2, n, 2, n, 3)


class FiberModel:
    """Finite invariant-form algebra of the 6-dimensional fiber: the tables
    shared by every model of its kind, and d_scale, the factor of its
    geometric-symbol d over the kind's unit table (sigma for a nearly Kaehler
    fiber, 1 for the flag)."""

    def __init__(self, name: str, tables: _FiberTables, d_scale: float):
        self.name = name
        self.tables = tables
        self.d_scale = d_scale
        self.d_coeff = d_scale * tables.d_coeff
        self.symbols = tables.symbols

    def degree(self, s: str) -> int:
        return self.symbols[s][0]

    def dictionary(self, s: str) -> Form:
        return self.symbols[s][1]


def _build_tables(kind: str, entries: dict, d_geom: dict) -> _FiberTables:
    """Derive the Hodge and wedge tables as the R^7 ones restricted to the
    2n rows, checking that every result lies in the span of the rows of its
    degree, and lay out the pattern of the exterior derivative.

    entries: name -> (degree, dictionary Form, frame-weight exponents).
    d_geom: source -> {target: coefficient}, the geometric-symbol d of a
    model with d_scale 1.
    """
    symbols = {s: (deg, form) for s, (deg, form, _) in entries.items()}
    index = {s: i for i, s in enumerate(entries)}
    psi = slice(index["psi+"], index["psi+"] + 2)
    if index["psi-"] != psi.stop - 1:
        raise ValueError(f"{kind}: psi- must follow psi+ in the symbol order")
    n = len(index)

    # row s is the symbol form, row n + s the symbol ^ e^7: a product form
    # alpha + beta ^ dt has its beta block on the rows n..2n-1
    e7 = Form.basis((7,))
    rows = [form for _, form in symbols.values()] + [wedge(form, e7) for _, form in symbols.values()]
    dictionaries = tuple(np.zeros((2 * n, dim_of(p))) for p in range(DIM + 1))
    for a, row in enumerate(rows):
        dictionaries[row.degree][a] = row.coeffs
    norm2 = np.array([row.norm2() for row in rows])

    def restrict(form: Form) -> np.ndarray:
        """Coefficients on the 2n rows of the orthogonal projection of form
        onto the (mutually orthogonal) rows of its degree."""
        span = dictionaries[form.degree]
        x = span.dot(form.coeffs) / norm2
        if not max_abs(x.dot(span) - form.coeffs) <= 1e-10:
            raise ValueError(f"{kind}: degree-{form.degree} form escapes the symbol span")
        return x

    star, wedge_rows = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n, 2 * n))
    for a, row in enumerate(rows):
        star[:, a] = restrict(hodge(row))
        for b, row2 in enumerate(rows):
            if row.degree + row2.degree <= DIM:
                wedge_rows[:, a, b] = restrict(wedge(row, row2))
    # d(c s) = c' dt ^ s + c ds, and dt ^ s = sign[s] s ^ dt
    fiber = np.arange(n)
    sign = wedge_rows[n + fiber, n + index["one"], fiber]

    exponents = np.array([exps for *_, exps in entries.values()], dtype=float)
    d_rows = [(index[s], index[t], c) for s, row in d_geom.items() for t, c in row.items()]
    d_source, d_target, d_coeff = (np.array(x) for x in zip(*d_rows))
    # in the order `_d_values` fills them: d_geom on the fiber block and on
    # the dt block, then dt ^ d/dt from the value and from the first
    # derivative of each fiber row to its dt row
    at = ((0, d_target, 0, d_source, 0), (1, d_target, 1, d_source, 0),
          (1, fiber, 0, fiber, 0), (1, fiber, 0, fiber, 1))
    d_positions = np.concatenate([np.ravel_multi_index(x, (2, n, 2, n, 3)) for x in at])
    return _FiberTables(
        symbols, index, exponents, sign, star, wedge_rows, dictionaries, psi,
        d_source, d_target, d_coeff, d_positions,
    )


@table
def _nearly_kahler_tables() -> _FiberTables:
    one = Form.from_terms(0, {(): 1})
    om = standard_omega()
    w2 = wedge(om, om)
    # unit symbol = f^k * geometric symbol; the exponent k is the frame weight
    return _build_tables("NK", {
        "one": (0, one, (0,)),
        "om": (2, om, (2,)),
        "psi+": (3, standard_psi_plus(), (3,)),
        "psi-": (3, standard_psi_minus(), (3,)),
        "om2": (4, w2, (4,)),
        "om3": (6, wedge(w2, om), (6,)),
    }, {"om": {"psi+": 3.0}, "psi-": {"om2": -2.0}})


@table
def _flag_tables() -> _FiberTables:
    one = Form.from_terms(0, {(): 1})
    oms = [Form.from_terms(2, {pair: 1}) for pair in ((1, 2), (3, 4), (5, 6))]
    # frame weights are monomials in (f1, f2, f3)
    return _build_tables("flag", {
        "one": (0, one, (0, 0, 0)),
        "om1": (2, oms[0], (2, 0, 0)),
        "om2": (2, oms[1], (0, 2, 0)),
        "om3": (2, oms[2], (0, 0, 2)),
        "psi+": (3, standard_psi_plus(), (1, 1, 1)),
        "psi-": (3, standard_psi_minus(), (1, 1, 1)),
        "m23": (4, wedge(oms[1], oms[2]), (0, 2, 2)),
        "m13": (4, wedge(oms[0], oms[2]), (2, 0, 2)),
        "m12": (4, wedge(oms[0], oms[1]), (2, 2, 0)),
        "vol": (6, wedge(wedge(oms[0], oms[1]), oms[2]), (2, 2, 2)),
    }, {
        "om1": {"psi+": 0.5},
        "om2": {"psi+": 0.5},
        "om3": {"psi+": 0.5},
        "psi-": {"m23": -2.0, "m13": -2.0, "m12": -2.0},
    })


def nearly_kahler_model(sigma: float) -> FiberModel:
    """Invariant algebra of a nearly Kaehler 6-fold (Calabi-Yau at sigma=0):
    d om = 3 sigma psi+, d psi- = -2 sigma om^2."""
    return FiberModel(f"NK(sigma={sigma})", _nearly_kahler_tables(), sigma)


def flag_model() -> FiberModel:
    """Invariant algebra of the torus-symmetric flag fiber (three om_i):
    d om_i = psi+ / 2, d psi- = -2 (om2 om3 + om1 om3 + om1 om2)."""
    return FiberModel("flag", _flag_tables(), 1.0)


def _d_values(model: FiberModel, factors) -> np.ndarray:
    """The value rows of the exterior derivative on flattened (2, n, 3)
    product forms: a (2n, 6n) matrix, (2, n, 2, n, 3) unflattened.

    In geometric symbols d is d_geom on both blocks plus (-1)^degree dt ^ d/dt
    from fiber to dt.  A unit symbol is the geometric one times its frame
    weight w = prod_i f_i ** exponents[s, i], so d_geom s -> t carries
    w_s / w_t, and the value of (c w)' / w, for a unit coefficient c, is
    l1 c + c' with l1 = w'/w.  Each entry is rounded as the value of the
    order-2 jet product it stands for: w0 l1 / w0 is not reduced to l1."""
    tab = model.tables
    value, d1, _ = np.array(factors).T
    w0, lam1 = (value ** tab.exponents).prod(axis=1), tab.exponents.dot(d1 / value)
    w0_inv = 1 / w0
    across = model.d_coeff * (w0[tab.d_source] * w0_inv[tab.d_target])
    n = len(tab.sign)
    op = np.zeros(12 * n * n)
    op[tab.d_positions] = np.concatenate(
        (across, across, tab.sign * (w0_inv * (lam1 * w0)), tab.sign * (w0_inv * w0))
    )
    return op.reshape(2 * n, 6 * n)


class _Frame:
    """The fiber model of a spec, with the value rows of d at the spec built
    on first use and shared by every product form of the frame."""

    def __init__(self, spec):
        self.spec = spec
        warped = isinstance(spec, WarpSpec)
        self.model = nearly_kahler_model(spec.sigma) if warped else flag_model()
        self.factors = (spec.f,) if warped else (spec.f1, spec.f2, spec.f3)

    @lazy
    def d_values(self) -> np.ndarray:
        return _d_values(self.model, self.factors)


# --- product forms -------------------------------------------------------------------


class ProductForm(NamedTuple):
    """alpha + beta ^ dt: jets (2, n, 3) of the unit-symbol coefficients of
    the fiber part alpha (block 0) and of beta (block 1)."""

    frame: _Frame
    degree: int
    jets: np.ndarray

    @staticmethod
    def of(frame: _Frame, degree: int, fiber: dict = None, dt: dict = None) -> "ProductForm":
        """The product form with the given {symbol: Jet or number} parts."""
        index = frame.model.tables.index
        jets = np.zeros((2, len(index), 3))
        for block, part in enumerate((fiber or {}, dt or {})):
            for s, c in part.items():
                jets[block, index[s]] = c if isinstance(c, Jet) else (c, 0.0, 0.0)
        return ProductForm(frame, degree, jets)

    fiber = property(lambda self: self.jets[0])
    dt = property(lambda self: self.jets[1])

    def d_at(self, theta_value: float) -> Form:
        """The exterior derivative, d_fiber plus dt ^ (time derivative), at
        the sample point: as `evaluate` gives it."""
        values = self.frame.d_values.dot(self.jets.reshape(-1))
        return _at_point(self.frame, self.degree + 1, values.reshape(2, -1), theta_value)

    def star(self) -> "ProductForm":
        """Hodge star of the product metric (orthonormal unit symbols)."""
        jets = self.frame.model.tables.star.dot(self.jets.reshape(-1, 3))
        return ProductForm(self.frame, DIM - self.degree, jets.reshape(self.jets.shape))

    def wedge(self, other: "ProductForm") -> "ProductForm":
        """(a + b dt) ^ (c + e dt) = a ^ c + (a ^ e + (-1)^deg(c) b ^ c) dt."""
        table = self.frame.model.tables.wedge
        a, b = self.jets.reshape(-1, 3), other.jets.reshape(-1, 3)
        jets = table.reshape(len(table), -1).dot(jet_product(a[:, None], b[None]).reshape(-1, 3))
        return ProductForm(self.frame, self.degree + other.degree, jets.reshape(self.jets.shape))

    def evaluate(self, theta_value: float) -> Form:
        """Pointwise coefficients in the rotated orthonormal frame.

        The rotation absorbs the psi phase: the pair (psi_theta+,
        psi_theta-) maps to the standard (psi+, psi-), so the evaluated phi
        is always the standard three-form.
        """
        return _at_point(self.frame, self.degree, self.jets[:, :, 0].copy(), theta_value)


def _at_point(frame: _Frame, degree: int, values: np.ndarray, theta_value: float) -> Form:
    """The form of degree with unit-symbol values (2, n) in the rotated
    orthonormal frame; values is overwritten."""
    c, s = math.cos(theta_value), math.sin(theta_value)
    tab = frame.model.tables
    (a, b), (a_dt, b_dt) = values[:, tab.psi].tolist()
    values[:, tab.psi] = (c * a - s * b, s * a + c * b), (c * a_dt - s * b_dt, s * a_dt + c * b_dt)
    return Form(degree, values.reshape(-1).dot(tab.dictionaries[degree]))


# --- warped and cohomogeneity-one specs -----------------------------------------------


class _Spec:
    """Immutable value base of the warped and cohomogeneity-one specs: the
    fields named in FIELDS, equal and hashable as their tuple, and rejected
    when a jet entry or number among them is NaN or infinite."""

    __slots__ = ()
    FIELDS = ()

    def __init__(self, *values):
        for name, x in zip(self.FIELDS, values):
            entries = (x.value, x.d1, x.d2) if isinstance(x, Jet) else (x,)
            if not all(map(math.isfinite, entries)):
                raise ValueError(f"{name} must be finite, got {x}")
            object.__setattr__(self, name, x)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({fields})"


class WarpSpec(_Spec):
    """Warped product over a nearly Kaehler fiber: f, theta jets, sigma >= 0."""

    __slots__ = FIELDS = ("f", "theta", "sigma")

    def __init__(self, f: Jet, theta: Jet, sigma: float = 1.0):
        super().__init__(f, theta, sigma)
        if f.value <= 0:
            raise ValueError("warp factor f must be positive")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")


class CohomSpec(_Spec):
    """Cohomogeneity-one flag-fiber spec: three warp factors and theta."""

    __slots__ = FIELDS = ("f1", "f2", "f3", "theta")

    def __init__(self, f1: Jet, f2: Jet, f3: Jet, theta: Jet):
        super().__init__(f1, f2, f3, theta)
        if min(f1.value, f2.value, f3.value) <= 0:
            raise ValueError("warp factors must be positive")


class WarpedForms:
    """phi and *phi of a warped spec, as product forms and at the sample point."""

    __slots__ = ("phi", "starphi", "phi_point", "starphi_point")

    def __init__(self, phi: ProductForm, starphi: ProductForm, phi_point: Form, starphi_point: Form):
        self.phi, self.starphi, self.phi_point, self.starphi_point = phi, starphi, phi_point, starphi_point


def warped_phi(spec) -> WarpedForms:
    """phi = omega_t ^ dt + psi_t^+ and its dual, symbolic and pointwise."""
    phi, starphi = _Solve(spec).phi_forms
    th = spec.theta.value
    return WarpedForms(phi, starphi, phi.evaluate(th), starphi.evaluate(th))


def _tau_symbolic(frame: _Frame) -> tuple:
    """Closed-form torsion components: the jet tau0 and, for tau1, tau2 and
    tau3, the arguments (degree, fiber, dt) of `ProductForm.of`."""
    spec = frame.spec
    th = spec.theta
    sin_t, cos_t = th.sin(), th.cos()
    tp = th.derivative()
    if isinstance(spec, WarpSpec):
        f, sg = spec.f, spec.sigma
        tau0 = (4.0 / 7.0) * (tp + 6.0 * sg * sin_t / f)
        u1 = (f.derivative() - sg * cos_t) / f
        tau1 = 1, {}, {"one": u1}
        tau2 = 2, {}, {}
        w = tp - sg * sin_t / f
        tau3 = 3, {"psi+": (3.0 / 7.0) * w * cos_t, "psi-": (-3.0 / 7.0) * w * sin_t}, {"om": (-4.0 / 7.0) * w}
    else:
        fs = (spec.f1, spec.f2, spec.f3)
        sq = [fi * fi for fi in fs]
        total = sq[0] + sq[1] + sq[2]
        inv_2p = (2 * (fs[0] * fs[1] * fs[2])).inv()
        h = total * inv_2p
        one_minus_cos = 1 - cos_t
        tau0 = (4.0 / 7.0) * (tp + 2.0 * h * sin_t)
        tau1 = 1, {}, {"one": (1.0 / 3.0) * h * one_minus_cos}
        # 2 fi^2 - fj^2 - fk^2 = 3 fi^2 - total, 5 fi^2 - 2 (fj^2 + fk^2) = 7 fi^2 - 2 total
        c2 = (-4.0 / 3.0) * one_minus_cos * inv_2p
        tau2 = 2, {f"om{i + 1}": c2 * (3 * sq[i] - total) for i in range(3)}, {}
        w = tp - (1.0 / 3.0) * h * sin_t
        two_total, sin_2p = 2 * total, sin_t * inv_2p
        tau3 = (
            3,
            {"psi+": (3.0 / 7.0) * w * cos_t, "psi-": (-3.0 / 7.0) * w * sin_t},
            {f"om{i + 1}": (-4.0 / 7.0) * (tp - (7 * sq[i] - two_total) * sin_2p) for i in range(3)},
        )
    return tau0, {"tau1": tau1, "tau2": tau2, "tau3": tau3}


class _Solve:
    """One solve at a spec: its frame, and each intermediate built on first
    use and shared by the routes and outputs that read it.  The cache is not
    on the frame: the cached product forms point back at their frame, and
    the reference cycle would be freed only by the cyclic garbage collector."""

    def __init__(self, spec):
        self.spec, self.theta_value = spec, spec.theta.value
        self.frame = _Frame(spec)

    @lazy
    def phi_forms(self) -> tuple:
        """phi = omega_t ^ dt + psi_t^+ and its dual as product forms."""
        th, model = self.spec.theta, self.frame.model
        om = [s for s, (degree, _) in model.symbols.items() if degree == 2]
        phi = ProductForm.of(
            self.frame, 3, fiber={"psi+": th.cos(), "psi-": -1 * th.sin()}, dt=dict.fromkeys(om, 1.0)
        )
        return phi, phi.star()

    @lazy
    def closed(self) -> tuple:
        """The closed-form torsion: the jet tau0 and the parts of tau1, tau2
        and tau3 (`_tau_symbolic`)."""
        return _tau_symbolic(self.frame)

    @lazy
    def sym(self) -> dict:
        """tau1, tau2 and tau3 as product forms."""
        return {name: ProductForm.of(self.frame, *parts) for name, parts in self.closed[1].items()}

    @lazy
    def t_closed(self) -> TorsionComponents:
        """The closed-form torsion at the sample point, evaluated from the
        values of its parts as `ProductForm.evaluate` would."""
        (tau0, parts), index, th = self.closed, self.frame.model.tables.index, self.theta_value
        forms = []
        for degree, *blocks in parts.values():
            values = np.zeros((2, len(index)))
            for block, part in enumerate(blocks):
                for s, c in part.items():
                    values[block, index[s]] = c[0]
            # a form without parts is zero (tau2 of a warped spec)
            forms.append(_at_point(self.frame, degree, values, th) if any(blocks) else Form.zero(degree))
        return TorsionComponents(tau0.value, *forms)

    def generic_torsion(self, tol: float = 1e-8) -> TorsionComponents:
        """Torsion via d phi / d *phi and the generic structure-equation
        solve.  Its reconstruction is judged within tol against the size of
        the terms that d phi and d *phi are sums of: the largest |d| |x| over
        the value rows of d and the jets x of phi and *phi."""
        (phi, starphi), th = self.phi_forms, self.theta_value
        x = np.abs(np.concatenate((phi.jets, starphi.jets)).reshape(2, -1))
        terms = np.abs(self.frame.d_values).dot(x.T).max()
        return extract_torsion(phi.evaluate(th), phi.d_at(th), starphi.d_at(th), tol, terms)

    def two_route(self, tol: float) -> TorsionComponents:
        """The generic torsion, checked against the closed form within tol.

        The structure solve's reconstruction is judged within tol as well,
        after the routes are compared; on valid input its failure is a
        failed check too."""
        t_closed = self.t_closed
        try:
            t_generic, unrebuilt = self.generic_torsion(tol), None
        except ValueError as exc:  # any other gate of the solve raises again here
            t_generic, unrebuilt = self.generic_torsion(math.inf), exc
        resid = max_abs(t_closed.packed - t_generic.packed)
        if not resid <= tol:
            raise RouteMismatch(
                f"closed-form and structure-equation torsion disagree "
                f"(residual {resid:.3g}): closed {t_closed.norms()} vs "
                f"generic {t_generic.norms()}"
            )
        if unrebuilt is not None:
            raise RouteMismatch(str(unrebuilt)) from unrebuilt
        return t_generic

    def delta_tau1(self) -> float:
        """delta(u dt) = -(u' + u d/dt log(fiber volume density)) for tau1 = u dt.

        The density is the frame weight of the unit volume symbol (degree 6),
        prod_i f_i ** e with one exponent e for every warp factor."""
        frame, tab = self.frame, self.frame.model.tables
        u = self.closed[1]["tau1"][2]["one"]
        (vol,) = (tab.index[s] for s, (deg, _) in tab.symbols.items() if deg == 6)
        e, *rest = tab.exponents[vol].tolist()
        if any(x != e for x in rest):
            raise ValueError(f"{frame.model.name}: unequal volume exponents {tab.exponents[vol]}")
        p = functools.reduce(mul, frame.factors)
        dlog = e * p.derivative() / p
        return -(u.derivative() + u * dlog).value

    def scalar_curvature(self) -> float:
        """The torsion formula for the scalar curvature with the honest delta tau1."""
        return float(scalar_from_torsion(self.t_closed, self.delta_tau1()))

    def ricW(self, k=(4, -5)) -> float:
        """Norm of the exterior-route generalized-Ricci right-hand side at k."""
        th, sym = self.theta_value, self.sym
        d_term1 = sym["tau1"].wedge(self.phi_forms[1]).star().d_at(th)
        d_term2 = sym["tau2"].d_at(th)
        d_term3 = sym["tau3"].d_at(th)
        return max_abs(ricci_rhs_exterior(self.t_closed, d_term1, d_term2, d_term3, k).coeffs)


def holonomy_residual(f1: Jet, f2: Jet, f3: Jet) -> tuple:
    """Residuals of (f_i f_j)' = f_k for the three cyclic index choices."""
    fs = (f1, f2, f3)
    return tuple((fs[i] * fs[(i + 1) % 3]).d1 - fs[(i + 2) % 3].value for i in range(3))


def holonomy_triple(v1: float, v2: float, v3: float) -> tuple:
    """Jets (f1, f2, f3) through given positive values satisfying the
    holonomy condition (f_i f_j)' = f_k to second order."""
    v = np.array([v1, v2, v3], dtype=float)
    if v.min() <= 0:
        raise ValueError("values must be positive")
    # (f_i f_j)' = f_i' f_j + f_i f_j' = f_k
    a = np.array(
        [[v[1], v[0], 0.0], [0.0, v[2], v[1]], [v[2], 0.0, v[0]]]
    )
    rhs = np.array([v[2], v[0], v[1]])
    d1 = np.linalg.solve(a, rhs)
    # differentiate: f_i'' f_j + 2 f_i' f_j' + f_i f_j'' = f_k'
    rhs2 = np.array(
        [
            d1[2] - 2 * d1[0] * d1[1],
            d1[0] - 2 * d1[1] * d1[2],
            d1[1] - 2 * d1[2] * d1[0],
        ]
    )
    d2 = np.linalg.solve(a, rhs2)
    return tuple(Jet(v[i], d1[i], d2[i]) for i in range(3))


def extraction_route(spec) -> TorsionComponents:
    """Torsion via d phi / d *phi and the generic structure-equation solve."""
    return _Solve(spec).generic_torsion()


class RouteMismatch(ValueError):
    """The closed-form and structure-equation torsion disagree, or the
    structure solve does not rebuild (d phi, d *phi): a failed check on
    valid input, not malformed input."""


def warped_torsion(spec: WarpSpec, tol: float = 1e-9) -> TorsionComponents:
    """Torsion of a warped spec; closed forms cross-checked against the
    generic pipeline at the sample point."""
    return _Solve(spec).two_route(tol)


def _off_locus(spec):
    """The holonomy residuals of a cohomogeneity-one spec off the locus
    (f_i f_j)' = f_k that the closed-form torsion assumes (a NaN residual is
    off it); None on the locus and for a warped spec."""
    if isinstance(spec, WarpSpec):
        return None
    res = holonomy_residual(spec.f1, spec.f2, spec.f3)
    return None if all(abs(r) <= 1e-9 for r in res) else res


def _closed_form_solve(spec) -> _Solve:
    """The solve of a spec whose closed-form torsion holds; a
    cohomogeneity-one spec off the holonomy locus is rejected."""
    res = _off_locus(spec)
    if res is not None:
        raise ValueError(
            f"holonomy condition fails (residuals {res}); the closed-form torsion does not hold there"
        )
    return _Solve(spec)


def cohom_torsion(spec: CohomSpec, tol: float = 1e-9) -> TorsionComponents:
    """Torsion of a cohomogeneity-one spec.

    The closed-form expressions assume the holonomy condition
    (f_i f_j)' = f_k; off that locus only the generic route is returned
    and a warning is emitted.
    """
    res = _off_locus(spec)
    if res is not None:
        warnings.warn(
            f"holonomy condition fails (residuals {res}); "
            "closed-form torsion not comparable",
            stacklevel=2,
        )
        return extraction_route(spec)
    return _Solve(spec).two_route(tol)


def theta_family(b: Jet, a_value: float, branch: int = 1) -> Jet:
    """Solutions of theta' = b sin(theta) through a = exp(integral of b).

    Returns the jet of theta with cos(theta) = (1-a^2)/(1+a^2) and
    sin(theta) = branch * 2a/(1+a^2); the constant branches sin(theta) = 0
    are Jet.const(0) and Jet.const(pi).  branch is 1 or -1.
    """
    if a_value <= 0:
        raise ValueError("a must be positive")
    if branch not in (1, -1):
        raise ValueError(f"branch must be 1 or -1, got {branch}")
    cos_t = (1 - a_value**2) / (1 + a_value**2)
    sin_t = branch * 2 * a_value / (1 + a_value**2)
    theta0 = math.atan2(sin_t, cos_t)
    d1 = b.value * sin_t
    d2 = b.d1 * sin_t + b.value * cos_t * d1
    return Jet(theta0, d1, d2)


def delta_tau1(spec) -> float:
    """Codifferential of tau1 = u dt on the warped metric; off the holonomy
    locus a cohomogeneity-one spec raises ValueError."""
    return _closed_form_solve(spec).delta_tau1()


def scalar_curvature_warped(spec) -> float:
    """Scalar curvature via the torsion formula with the honest delta tau1;
    off the holonomy locus a cohomogeneity-one spec raises ValueError."""
    return _closed_form_solve(spec).scalar_curvature()


def ricW_vanishes(spec, k=(4, -5)) -> float:
    """Norm of the generalized-Ricci right-hand side at weighting k.

    All derivative terms are produced by the symbolic layer (exterior
    derivatives of the closed-form torsion), then everything is evaluated
    pointwise and fed to the exterior-route Ricci formula.  For k=(4,-5)
    this is the Weyl-Ricci tensor of the warped structure, expected to be
    zero for every warped product over a nearly Kaehler fiber.  The terms
    are the closed-form torsion's, so off the holonomy locus a
    cohomogeneity-one spec raises ValueError.
    """
    return _closed_form_solve(spec).ricW(k)


def warp_point(spec: WarpSpec, tol: float = 1e-9) -> dict:
    """Torsion, class, scalar curvature and Weyl-Ricci residual of a warped
    spec, all from one frame; raises RouteMismatch as `warped_torsion` does."""
    solve = _Solve(spec)
    tor = solve.two_route(tol)
    norms = tor.norms()
    return {
        "fg_type": sorted(fg_type_of_norms(norms)),
        "tau0": float(tor.tau0),
        "tau1_norm": norms[4],
        "tau2_norm": norms[2],
        "tau3_norm": norms[3],
        "scalar_curvature": solve.scalar_curvature(),
        "ricW_residual": solve.ricW(),
    }


# --- Fernandez-Gray type sweep ---------------------------------------------------------


def sweep_grid(t: float = 1.0) -> list:
    """The shipped grid of (name, spec, designed Fernandez-Gray class) entries."""
    sin_t, theta_t = jet_var(t).sin(), jet_var(t)
    f = sin_t
    eq = holonomy_triple(0.5, 0.5, 0.5)
    uneq = holonomy_triple(0.6, 0.9, 1.4)
    h = (uneq[0] * uneq[0] + uneq[1] * uneq[1] + uneq[2] * uneq[2]) / (2 * uneq[0] * uneq[1] * uneq[2])
    return [
        ("flat cone over S6", WarpSpec(jet_var(t), Jet.const(0.0), 1.0), ()),
        ("nearly parallel S7", WarpSpec(sin_t, theta_t, 1.0), (1,)),
        ("S7-compatible type 4", WarpSpec(sin_t, Jet.const(0.0), 1.0), (4,)),
        ("hyperbolic cusp", WarpSpec(jet_var(t).exp(), Jet.const(0.0), 0.0), (4,)),
        ("generic over NK", WarpSpec(sin_t, Jet(0.7, 0.9, 0.2), 1.0), (1, 3, 4)),
        # theta branches killing tau3 (b = sigma/f) or tau0 (b = -6 sigma/f)
        ("tau3 killed", WarpSpec(f, theta_family(1.0 / f, 1.3), 1.0), (1, 4)),
        ("tau0 killed", WarpSpec(f, theta_family(-6.0 / f, 0.6), 1.0), (3, 4)),
        ("Calabi-Yau fiber, rotating phase", WarpSpec(Jet.const(1.0), theta_t, 0.0), (1, 3)),
        ("flag, equal factors, theta pi", CohomSpec(*eq, Jet.const(math.pi)), (4,)),
        ("flag, unequal, theta pi", CohomSpec(*uneq, Jet.const(math.pi)), (2, 4)),
        ("flag, equal, generic theta", CohomSpec(*eq, Jet(0.8, 0.5, 0.1)), (1, 3, 4)),
        ("flag, unequal, generic theta", CohomSpec(*uneq, Jet(0.8, 0.5, 0.1)), (1, 2, 3, 4)),
        ("flag, unequal, tau0 killed", CohomSpec(*uneq, theta_family(-2 * h, 0.7)), (2, 3, 4)),
        ("flag, parallel", CohomSpec(*eq, Jet.const(0.0)), ()),
    ]


def sweep_check(t: float = 1.0, eps: float = 1e-7, tol: float = 1e-9) -> tuple:
    """`type_sweep` and the entries off their designed class (tol: the two-route bound)."""
    grid = sweep_grid(t)
    table = {
        name: sorted(fg_type((warped_torsion if isinstance(spec, WarpSpec) else cohom_torsion)(spec, tol), eps))
        for name, spec, _ in grid
    }
    return table, [name for name, _, cls in grid if table[name] != list(cls)]


def type_sweep(t: float = 1.0, eps: float = 1e-7) -> dict:
    """Classify the shipped grid; returns {name: sorted class list}."""
    return sweep_check(t, eps)[0]
