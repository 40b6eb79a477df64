"""Warped-product and cohomogeneity-one torsion over SU(3)-model fibers.

Geometry of the form M = I x M* with G2 three-form phi = omega_t ^ dt
+ psi_t^+, handled by a tiny symbolic layer: a fixed basis of invariant
fiber forms with a wedge table, a d table and a Hodge table, tensored with
order-2 jets in t.  Two fiber models are shipped:

* a nearly Kaehler model (d omega = 3 sigma psi+, d psi- = -2 sigma
  omega^2), sigma = 0 giving the Calabi-Yau case;
* the flag-manifold model with torus symmetry (three Kaehler forms
  omega_i, d omega_i = psi+/2, d psi- = -2 sum omega_i omega_j).

Fiber elements are stored in the orthonormal-frame ("unit") symbols, so
the Hodge and wedge tables are constant and all t-dependence sits in the
jet coefficients and in the frame weights that enter d.  Those tables, the
symbol dictionaries and the frame weights do not depend on sigma either: they
are built (and span-checked) once per fiber kind, on first use, and shared
read-only by every model of that kind; a model adds only its d table, which
carries sigma.  Pointwise evaluation maps each symbol to its coefficient
array on R^7 and undoes the phase of psi_t^+/psi_t^- by a frame rotation,
landing every form in the adapted frame of the standard phi, where the
generic torsion machinery applies.  Closed-form torsion components and the generic structure-
equation extraction are cross-checked against each other at every call.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._linalg import max_abs
from .exterior_algebra import (
    DIM,
    Form,
    basis_vector,
    hodge,
    interior,
    standard_omega,
    standard_psi_minus,
    standard_psi_plus,
    wedge,
)
from .torsion import (
    TorsionComponents,
    extract_torsion,
    fg_type,
    ricci_rhs_exterior,
    scalar_from_torsion,
)

# --- order-2 jets ------------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    """Order-2 jet (value, first, second derivative) of a function of t."""

    value: float
    d1: float = 0.0
    d2: float = 0.0

    @staticmethod
    def const(c) -> "Jet":
        return Jet(float(c), 0.0, 0.0)

    @staticmethod
    def coerce(x) -> "Jet":
        return x if isinstance(x, Jet) else Jet.const(x)

    def derivative(self) -> "Jet":
        """Shift down one order; the top slot of the result is truncated."""
        return Jet(self.d1, self.d2, 0.0)

    def __add__(self, o):
        o = Jet.coerce(o)
        return Jet(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.d1, -self.d2)

    def __sub__(self, o):
        return self + (-Jet.coerce(o))

    def __rsub__(self, o):
        return Jet.coerce(o) + (-self)

    def __mul__(self, o):
        o = Jet.coerce(o)
        return Jet(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2 * self.d1 * o.d1 + self.value * o.d2,
        )

    __rmul__ = __mul__

    def inv(self):
        v = self.value
        return Jet(1 / v, -self.d1 / v**2, (2 * self.d1**2 - v * self.d2) / v**3)

    def __truediv__(self, o):
        return self * Jet.coerce(o).inv()

    def __rtruediv__(self, o):
        return Jet.coerce(o) * self.inv()

    def _chain(self, f, fp, fpp):
        return Jet(f, fp * self.d1, fpp * self.d1**2 + fp * self.d2)

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c)

    def exp(self):
        e = math.exp(self.value)
        return self._chain(e, e, e)

    def log(self):
        v = self.value
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


# --- fiber models -------------------------------------------------------------------


class _FiberTables(NamedTuple):
    symbols: Mapping
    weight_fn: Mapping
    by_degree: Mapping
    star6: Mapping
    wedge: Mapping


class FiberModel:
    """Finite invariant-form algebra of the 6-dimensional fiber.

    The sigma-independent tables are built once per fiber kind and shared,
    read-only, by every model of that kind: symbols (name -> (degree,
    dictionary Form on e^1..e^6)), weight_fn (name -> frame weight, the jet
    w(spec) with unit_symbol = w * geometric_symbol), _by_degree, and the
    Hodge and wedge tables _star6 and _wedge on the unit symbols.  Only
    d_geom, the geometric-symbol d table, carries sigma; constructing a model
    attaches it to the shared tables.
    """

    def __init__(self, name: str, tables: _FiberTables, d_geom: dict):
        self.name = name
        self.d_geom = d_geom
        self.symbols, self.weight_fn, self._by_degree, self._star6, self._wedge = tables

    def weight(self, spec, s: str) -> Jet:
        return self.weight_fn[s](spec)

    def d_unit(self, spec, s: str) -> dict:
        """d of a unit symbol: sum over targets of D_geom * weight ratio."""
        w_s = self.weight(spec, s)
        return {
            s2: Jet.const(coeff) * (w_s / self.weight(spec, s2))
            for s2, coeff in self.d_geom.get(s, {}).items()
        }

    def degree(self, s: str) -> int:
        return self.symbols[s][0]

    def dictionary(self, s: str) -> Form:
        return self.symbols[s][1]


def _star6(a: Form) -> Form:
    """Hodge star of the fiber e^1..e^6 inside the ambient 7-dim algebra."""
    k = 6 - a.degree
    sign = 1 if k % 2 == 0 else -1
    return sign * interior(basis_vector(7), hodge(a))


def _express(kind: str, symbols: Mapping, syms: tuple, form: Form, degree: int) -> Mapping:
    """Write a fiber form in the span of the symbols syms of its degree."""
    if not syms:
        if not max_abs(form.coeffs) <= 1e-12:
            raise ValueError(f"{kind}: form of degree {degree} not in span")
        return MappingProxyType({})
    cols = np.stack([symbols[s][1].coeffs for s in syms], axis=1)
    sol, *_ = np.linalg.lstsq(cols, np.asarray(form.coeffs, dtype=float), rcond=None)
    if not max_abs(cols.dot(sol) - form.coeffs) <= 1e-10:
        raise ValueError(f"{kind}: degree-{degree} form escapes the symbol span")
    return MappingProxyType({s: c for s, c in zip(syms, sol) if abs(c) > 1e-14})


def _build_tables(kind: str, symbols: dict, weight_fn: dict) -> _FiberTables:
    """Freeze the dictionaries and derive the Hodge and wedge tables, checking
    that every entry lies in the symbol span of its degree."""
    by_degree = {}
    for s, (deg, form) in symbols.items():
        form.coeffs.setflags(write=False)
        by_degree.setdefault(deg, []).append(s)
    by_degree = {deg: tuple(syms) for deg, syms in by_degree.items()}

    def express(form: Form, degree: int) -> Mapping:
        return _express(kind, symbols, by_degree.get(degree, ()), form, degree)

    star6 = {s: express(_star6(form), 6 - deg) for s, (deg, form) in symbols.items()}
    wedge_table = {
        (s1, s2): express(wedge(f1, f2), d1 + d2)
        for s1, (d1, f1) in symbols.items()
        for s2, (d2, f2) in symbols.items()
        if d1 + d2 <= 6
    }
    return _FiberTables(
        *map(MappingProxyType, (symbols, weight_fn, by_degree, star6, wedge_table))
    )


@functools.cache
def _nearly_kahler_tables() -> _FiberTables:
    one = Form.from_terms(0, {(): 1})
    om = standard_omega()
    w2 = wedge(om, om)
    symbols = {
        "one": (0, one),
        "om": (2, om),
        "psi+": (3, standard_psi_plus()),
        "psi-": (3, standard_psi_minus()),
        "om2": (4, w2),
        "om3": (6, wedge(w2, om)),
    }
    weight_fn = {
        "one": lambda s: Jet.const(1.0),
        "om": lambda s: s.f * s.f,
        "psi+": lambda s: s.f * s.f * s.f,
        "psi-": lambda s: s.f * s.f * s.f,
        "om2": lambda s: (s.f * s.f) * (s.f * s.f),
        "om3": lambda s: (s.f * s.f * s.f) * (s.f * s.f * s.f),
    }
    return _build_tables("NK", symbols, weight_fn)


@functools.cache
def _flag_tables() -> _FiberTables:
    one = Form.from_terms(0, {(): 1})
    oms = [Form.from_terms(2, {pair: 1}) for pair in ((1, 2), (3, 4), (5, 6))]
    symbols = {
        "one": (0, one),
        "om1": (2, oms[0]),
        "om2": (2, oms[1]),
        "om3": (2, oms[2]),
        "psi+": (3, standard_psi_plus()),
        "psi-": (3, standard_psi_minus()),
        "m23": (4, wedge(oms[1], oms[2])),
        "m13": (4, wedge(oms[0], oms[2])),
        "m12": (4, wedge(oms[0], oms[1])),
        "vol": (6, wedge(wedge(oms[0], oms[1]), oms[2])),
    }
    weight_fn = {
        "one": lambda s: Jet.const(1.0),
        "om1": lambda s: s.f1 * s.f1,
        "om2": lambda s: s.f2 * s.f2,
        "om3": lambda s: s.f3 * s.f3,
        "psi+": lambda s: s.f1 * s.f2 * s.f3,
        "psi-": lambda s: s.f1 * s.f2 * s.f3,
        "m23": lambda s: (s.f2 * s.f2) * (s.f3 * s.f3),
        "m13": lambda s: (s.f1 * s.f1) * (s.f3 * s.f3),
        "m12": lambda s: (s.f1 * s.f1) * (s.f2 * s.f2),
        "vol": lambda s: (s.f1 * s.f2 * s.f3) * (s.f1 * s.f2 * s.f3),
    }
    return _build_tables("flag", symbols, weight_fn)


def nearly_kahler_model(sigma: float) -> FiberModel:
    """Invariant algebra of a nearly Kaehler 6-fold (Calabi-Yau at sigma=0)."""
    d_geom = {
        "om": {"psi+": 3 * sigma},
        "psi-": {"om2": -2 * sigma},
    }
    return FiberModel(f"NK(sigma={sigma})", _nearly_kahler_tables(), d_geom)


def flag_model() -> FiberModel:
    """Invariant algebra of the torus-symmetric flag fiber (three om_i)."""
    d_geom = {
        "om1": {"psi+": 0.5},
        "om2": {"psi+": 0.5},
        "om3": {"psi+": 0.5},
        "psi-": {"m23": -2.0, "m13": -2.0, "m12": -2.0},
    }
    return FiberModel("flag", _flag_tables(), d_geom)


# --- product forms -------------------------------------------------------------------


@dataclass
class ProductForm:
    """alpha + beta ^ dt with fiber parts in unit symbols, jet coefficients."""

    model: FiberModel
    spec: object
    degree: int
    fiber: dict = field(default_factory=dict)
    dt: dict = field(default_factory=dict)

    def __add__(self, other):
        out = ProductForm(self.model, self.spec, self.degree, dict(self.fiber), dict(self.dt))
        for s, c in other.fiber.items():
            out.fiber[s] = out.fiber.get(s, Jet.const(0)) + c
        for s, c in other.dt.items():
            out.dt[s] = out.dt.get(s, Jet.const(0)) + c
        return out

    def __mul__(self, c):
        c = Jet.coerce(c)
        return ProductForm(
            self.model,
            self.spec,
            self.degree,
            {s: v * c for s, v in self.fiber.items()},
            {s: v * c for s, v in self.dt.items()},
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1) * other

    def d(self) -> "ProductForm":
        """Exterior derivative: d_fiber plus dt ^ (time derivative).

        The time derivative acts on the geometric coefficient c * w_s,
        since the unit symbols themselves scale with the frame weights.
        """
        out = ProductForm(self.model, self.spec, self.degree + 1)
        sign = 1 if self.degree % 2 == 0 else -1
        for s, c in self.fiber.items():
            for s2, r in self.model.d_unit(self.spec, s).items():
                out.fiber[s2] = out.fiber.get(s2, Jet.const(0)) + c * r
            w = self.model.weight(self.spec, s)
            out.dt[s] = out.dt.get(s, Jet.const(0)) + sign * ((c * w).derivative() / w)
        for s, c in self.dt.items():
            for s2, r in self.model.d_unit(self.spec, s).items():
                out.dt[s2] = out.dt.get(s2, Jet.const(0)) + c * r
        return out

    def star(self) -> "ProductForm":
        """Hodge star of the product metric (orthonormal unit symbols)."""
        out = ProductForm(self.model, self.spec, DIM - self.degree)
        for s, c in self.fiber.items():
            for s2, x in self.model._star6[s].items():
                out.dt[s2] = out.dt.get(s2, Jet.const(0)) + x * c
        beta_sign = 1 if (self.degree - 1) % 2 == 0 else -1
        for s, c in self.dt.items():
            for s2, x in self.model._star6[s].items():
                out.fiber[s2] = out.fiber.get(s2, Jet.const(0)) + beta_sign * x * c
        return out

    def wedge(self, other: "ProductForm") -> "ProductForm":
        out = ProductForm(self.model, self.spec, self.degree + other.degree)
        tbl = self.model._wedge
        for s1, c1 in self.fiber.items():
            for s2, c2 in other.fiber.items():
                for s3, x in tbl[(s1, s2)].items():
                    out.fiber[s3] = out.fiber.get(s3, Jet.const(0)) + x * c1 * c2
        a_sign = 1 if self.degree % 2 == 0 else -1
        for s1, c1 in self.fiber.items():
            for s2, c2 in other.dt.items():
                for s3, x in tbl[(s1, s2)].items():
                    out.dt[s3] = out.dt.get(s3, Jet.const(0)) + a_sign * x * c1 * c2
        for s1, c1 in self.dt.items():
            for s2, c2 in other.fiber.items():
                for s3, x in tbl[(s1, s2)].items():
                    out.dt[s3] = out.dt.get(s3, Jet.const(0)) + x * c1 * c2
        return out

    def evaluate(self, theta_value: float) -> Form:
        """Pointwise coefficients in the rotated orthonormal frame.

        The rotation absorbs the psi phase: the pair (psi_theta+,
        psi_theta-) maps to the standard (psi+, psi-), so the evaluated phi
        is always the standard three-form.
        """
        c, s = math.cos(theta_value), math.sin(theta_value)

        def eval_part(part: dict, degree: int) -> Form:
            out = Form.zero(degree)
            a = part.get("psi+", Jet.const(0)).value
            b = part.get("psi-", Jet.const(0)).value
            rot = {"psi+": c * a - s * b, "psi-": s * a + c * b}
            for sym, coeff in part.items():
                v = rot[sym] if sym in rot else coeff.value
                if v != 0:
                    out = out + v * self.model.dictionary(sym)
            return out

        out = eval_part(self.fiber, self.degree)
        beta = eval_part(self.dt, self.degree - 1)
        return out + wedge(beta, Form.basis((7,)))


# --- warped and cohomogeneity-one specs -----------------------------------------------


def _require_finite(spec) -> None:
    """Reject a spec with a NaN or infinite jet entry or sigma."""
    for fld in fields(spec):
        x = getattr(spec, fld.name)
        entries = (x.value, x.d1, x.d2) if isinstance(x, Jet) else (x,)
        if not all(map(math.isfinite, entries)):
            raise ValueError(f"{fld.name} must be finite, got {x}")


@dataclass(frozen=True)
class WarpSpec:
    """Warped product over a nearly Kaehler fiber: f, theta jets, sigma >= 0."""

    f: Jet
    theta: Jet
    sigma: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.f.value <= 0:
            raise ValueError("warp factor f must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class CohomSpec:
    """Cohomogeneity-one flag-fiber spec: three warp factors and theta."""

    f1: Jet
    f2: Jet
    f3: Jet
    theta: Jet

    def __post_init__(self):
        _require_finite(self)
        if min(self.f1.value, self.f2.value, self.f3.value) <= 0:
            raise ValueError("warp factors must be positive")


@dataclass(frozen=True)
class WarpedForms:
    phi: ProductForm
    starphi: ProductForm
    phi_point: Form
    starphi_point: Form


def _model_for(spec) -> FiberModel:
    if isinstance(spec, WarpSpec):
        return nearly_kahler_model(spec.sigma)
    return flag_model()


def warped_phi(spec) -> WarpedForms:
    """phi = omega_t ^ dt + psi_t^+ and its dual, symbolic and pointwise."""
    model = _model_for(spec)
    th = spec.theta
    cos_t, sin_t = th.cos(), th.sin()
    if isinstance(spec, WarpSpec):
        om_syms = {"om": Jet.const(1.0)}
    else:
        om_syms = {"om1": Jet.const(1.0), "om2": Jet.const(1.0), "om3": Jet.const(1.0)}
    phi = ProductForm(
        model, spec, 3, fiber={"psi+": cos_t, "psi-": -1 * sin_t}, dt=dict(om_syms)
    )
    starphi = phi.star()
    return WarpedForms(
        phi=phi,
        starphi=starphi,
        phi_point=phi.evaluate(th.value),
        starphi_point=starphi.evaluate(th.value),
    )


def _tau_symbolic(spec) -> dict:
    """Closed-form torsion components as symbolic product forms."""
    model = _model_for(spec)
    th = spec.theta
    sin_t, cos_t = th.sin(), th.cos()
    tp = th.derivative()
    if isinstance(spec, WarpSpec):
        f, sg = spec.f, spec.sigma
        tau0 = (4.0 / 7.0) * (tp + 6.0 * sg * sin_t / f)
        u1 = (f.derivative() - sg * cos_t) / f
        tau1 = ProductForm(model, spec, 1, dt={"one": u1})
        tau2 = ProductForm(model, spec, 2)
        w = tp - sg * sin_t / f
        tau3 = ProductForm(
            model,
            spec,
            3,
            fiber={"psi+": (3.0 / 7.0) * w * cos_t, "psi-": (-3.0 / 7.0) * w * sin_t},
            dt={"om": (-4.0 / 7.0) * w},
        )
    else:
        f1, f2, f3 = spec.f1, spec.f2, spec.f3
        fs = (f1, f2, f3)
        p = f1 * f2 * f3
        h = (f1 * f1 + f2 * f2 + f3 * f3) / (2 * p)
        tau0 = (4.0 / 7.0) * (tp + 2.0 * h * sin_t)
        tau1 = ProductForm(model, spec, 1, dt={"one": (1.0 / 3.0) * h * (1 - cos_t)})
        t2 = {}
        t3_dt = {}
        for i in range(3):
            fi, fj, fk = fs[i], fs[(i + 1) % 3], fs[(i + 2) % 3]
            t2[f"om{i+1}"] = (
                (-2.0 / 3.0) * (1 - cos_t) / p * (2 * fi * fi - fj * fj - fk * fk)
            )
            coef = (5 * fi * fi - 2 * (fj * fj + fk * fk)) / (2 * p)
            t3_dt[f"om{i+1}"] = (-4.0 / 7.0) * (tp - coef * sin_t)
        tau2 = ProductForm(model, spec, 2, fiber=t2)
        w = tp - (1.0 / 3.0) * h * sin_t
        tau3 = ProductForm(
            model,
            spec,
            3,
            fiber={"psi+": (3.0 / 7.0) * w * cos_t, "psi-": (-3.0 / 7.0) * w * sin_t},
            dt=t3_dt,
        )
    return {"tau0": tau0, "tau1": tau1, "tau2": tau2, "tau3": tau3}


def _tau_pointwise(spec) -> TorsionComponents:
    sym = _tau_symbolic(spec)
    th = spec.theta.value
    return TorsionComponents(
        sym["tau0"].value,
        sym["tau1"].evaluate(th),
        sym["tau2"].evaluate(th),
        sym["tau3"].evaluate(th),
    )


def holonomy_residual(f1: Jet, f2: Jet, f3: Jet) -> tuple:
    """Residuals of (f_i f_j)' = f_k for the three cyclic index choices."""
    fs = (f1, f2, f3)
    out = []
    for i in range(3):
        fi, fj, fk = fs[i], fs[(i + 1) % 3], fs[(i + 2) % 3]
        out.append((fi * fj).derivative().value - fk.value)
    return tuple(out)


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
    forms = warped_phi(spec)
    th = spec.theta.value
    dphi = forms.phi.d().evaluate(th)
    dstarphi = forms.starphi.d().evaluate(th)
    return extract_torsion(forms.phi_point, dphi, dstarphi)


class RouteMismatch(ValueError):
    """The closed-form and structure-equation torsion disagree: a failed
    check on valid input, not malformed input."""


def _two_route(spec, tol: float) -> TorsionComponents:
    t_closed = _tau_pointwise(spec)
    t_generic = extraction_route(spec)
    resid = max_abs(
        t_closed.tau0 - t_generic.tau0,
        t_closed.tau1.coeffs - t_generic.tau1.coeffs,
        t_closed.tau2.coeffs - t_generic.tau2.coeffs,
        t_closed.tau3.coeffs - t_generic.tau3.coeffs,
    )
    if not resid <= tol:
        raise RouteMismatch(
            f"closed-form and structure-equation torsion disagree "
            f"(residual {resid:.3g}): closed {t_closed.norms()} vs "
            f"generic {t_generic.norms()}"
        )
    return t_generic


def warped_torsion(spec: WarpSpec, tol: float = 1e-9) -> TorsionComponents:
    """Torsion of a warped spec; closed forms cross-checked against the
    generic pipeline at the sample point."""
    return _two_route(spec, tol)


def cohom_torsion(spec: CohomSpec, tol: float = 1e-9) -> TorsionComponents:
    """Torsion of a cohomogeneity-one spec.

    The closed-form expressions assume the holonomy condition
    (f_i f_j)' = f_k; off that locus only the generic route is returned
    and a warning is emitted.
    """
    res = holonomy_residual(spec.f1, spec.f2, spec.f3)
    if not max_abs(res) <= 1e-9:
        warnings.warn(
            f"holonomy condition fails (residuals {res}); "
            "closed-form torsion not comparable",
            stacklevel=2,
        )
        return extraction_route(spec)
    return _two_route(spec, tol)


def theta_family(b: Jet, a_value: float, branch: int = 1) -> Jet:
    """Solutions of theta' = b sin(theta) through a = exp(integral of b).

    Returns the jet of theta with cos(theta) = (1-a^2)/(1+a^2) and
    sin(theta) = branch * 2a/(1+a^2); the constant branches sin(theta) = 0
    are Jet.const(0) and Jet.const(pi).
    """
    if a_value <= 0:
        raise ValueError("a must be positive")
    cos_t = (1 - a_value**2) / (1 + a_value**2)
    sin_t = branch * 2 * a_value / (1 + a_value**2)
    theta0 = math.atan2(sin_t, cos_t)
    d1 = b.value * sin_t
    d2 = b.d1 * sin_t + b.value * cos_t * d1
    return Jet(theta0, d1, d2)


def conformal_warp(spec: WarpSpec, u: Jet) -> WarpSpec:
    """The warped spec of e^{3u(t)} phi: f -> e^u f in arclength time.

    A t-dependent conformal factor keeps the warped ansatz, with new time
    coordinate s, ds = e^u dt; the returned jets are d/ds jets.
    """
    eu = u.exp()

    def reparam(g: Jet) -> Jet:
        return Jet(g.value, g.d1 / eu.value, (g.d2 - u.d1 * g.d1) / eu.value**2)

    return WarpSpec(reparam(eu * spec.f), reparam(spec.theta), spec.sigma)


def einstein_warp_check(f: Jet, rho: float, rho_star: float) -> tuple:
    """Residuals of (f')^2 + rho f^2 = rho* and f'' + rho f = 0."""
    r1 = f.d1**2 + rho * f.value**2 - rho_star
    r2 = f.d2 + rho * f.value
    return (r1, r2)


def delta_tau1(spec) -> float:
    """Codifferential of tau1 = u dt on the warped metric.

    delta(u dt) = -(u' + u d/dt log(fiber volume density)).
    """
    sym = _tau_symbolic(spec)
    u = sym["tau1"].dt["one"]
    if isinstance(spec, WarpSpec):
        dlog = 6 * spec.f.derivative() / spec.f
    else:
        p = spec.f1 * spec.f2 * spec.f3
        dlog = 2 * p.derivative() / p
    return -(u.derivative() + u * dlog).value


def scalar_curvature_warped(spec) -> float:
    """Scalar curvature via the torsion formula with the honest delta tau1."""
    t = _tau_pointwise(spec)
    return float(scalar_from_torsion(t, delta_tau1(spec)))


def ricW_vanishes(spec, k=(4, -5)) -> float:
    """Norm of the generalized-Ricci right-hand side at weighting k.

    All derivative terms are produced by the symbolic layer (exterior
    derivatives of the closed-form torsion), then everything is evaluated
    pointwise and fed to the exterior-route Ricci formula.  For k=(4,-5)
    this is the Weyl-Ricci tensor of the warped structure, expected to be
    zero for every warped product over a nearly Kaehler fiber.
    """
    sym = _tau_symbolic(spec)
    th = spec.theta.value
    t = _tau_pointwise(spec)

    forms = warped_phi(spec)
    tau1_w_starphi = sym["tau1"].wedge(forms.starphi)
    d_term1 = tau1_w_starphi.star().d().evaluate(th)
    d_term2 = sym["tau2"].d().evaluate(th)
    d_term3 = sym["tau3"].d().evaluate(th)

    return max_abs(ricci_rhs_exterior(t, d_term1, d_term2, d_term3, k).coeffs)


# --- Fernandez-Gray type sweep ---------------------------------------------------------


def sweep_grid(t: float = 1.0) -> list:
    """The shipped grid of (name, spec) pairs for the type sweep."""
    grid = []
    sin_t, theta_t = jet_var(t).sin(), jet_var(t)

    grid.append(("flat cone over S6", WarpSpec(jet_var(t), Jet.const(0.0), 1.0)))
    grid.append(("nearly parallel S7", WarpSpec(sin_t, theta_t, 1.0)))
    grid.append(("S7-compatible type 4", WarpSpec(sin_t, Jet.const(0.0), 1.0)))
    grid.append(("hyperbolic cusp", WarpSpec(jet_var(t).exp(), Jet.const(0.0), 0.0)))
    grid.append(("generic over NK", WarpSpec(sin_t, Jet(0.7, 0.9, 0.2), 1.0)))

    # theta branches killing tau3 (b = sigma/f) or tau0 (b = -6 sigma/f)
    f = sin_t
    b3 = 1.0 / f
    grid.append(("tau3 killed", WarpSpec(f, theta_family(b3, 1.3), 1.0)))
    b0 = -6.0 / f
    grid.append(("tau0 killed", WarpSpec(f, theta_family(b0, 0.6), 1.0)))

    grid.append(
        ("Calabi-Yau fiber, rotating phase", WarpSpec(Jet.const(1.0), theta_t, 0.0))
    )

    eq = holonomy_triple(0.5, 0.5, 0.5)
    uneq = holonomy_triple(0.6, 0.9, 1.4)
    grid.append(("flag, equal factors, theta pi", CohomSpec(*eq, Jet.const(math.pi))))
    grid.append(("flag, unequal, theta pi", CohomSpec(*uneq, Jet.const(math.pi))))
    grid.append(("flag, equal, generic theta", CohomSpec(*eq, Jet(0.8, 0.5, 0.1))))
    grid.append(("flag, unequal, generic theta", CohomSpec(*uneq, Jet(0.8, 0.5, 0.1))))
    h = (
        uneq[0] * uneq[0] + uneq[1] * uneq[1] + uneq[2] * uneq[2]
    ) / (2 * uneq[0] * uneq[1] * uneq[2])
    grid.append(
        ("flag, unequal, tau0 killed", CohomSpec(*uneq, theta_family(-2 * h, 0.7)))
    )
    grid.append(("flag, parallel", CohomSpec(*eq, Jet.const(0.0))))
    return grid


def type_sweep(t: float = 1.0, eps: float = 1e-7) -> dict:
    """Classify the shipped grid; returns {name: sorted class list}."""
    out = {}
    for name, spec in sweep_grid(t):
        tor = warped_torsion(spec) if isinstance(spec, WarpSpec) else cohom_torsion(spec)
        out[name] = sorted(fg_type(tor, eps))
    return out
