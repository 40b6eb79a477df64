"""The dict-of-Jet product-form engine, kept as a reference for the array engine.

A product form here is a pair of dictionaries {unit symbol: Jet}, its fiber
part alpha and its dt part beta of alpha + beta ^ dt.  d, the Hodge star, the
wedge and the pointwise evaluation loop over symbols with scalar `Jet`
arithmetic, the frame weights come from one function of the spec per symbol,
and the fiber Hodge and wedge tables are {symbol: {symbol: coefficient}}
dictionaries fitted in the symbol span by least squares, with the dt blocks
from sign rules.  This is how `g2lab.cohomo_one` computed product forms
before its array engine, whose tables are the R^7 star and wedge restricted
to the symbol rows; the tests compare the two.  `d_operator` is the
exterior derivative on whole order-2 jets as one (6n, 6n) matrix, as the
array engine built it before it kept only the value rows that are read at
the sample point.  `conformal_warp`, the warped spec of a conformally
rescaled structure, is the geometric side of the conformal-transform tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from g2lab import cohomo_one as co
from g2lab._linalg import max_abs
from g2lab.cohomo_one import Jet
from g2lab.exterior_algebra import DIM, Form, basis_vector, hodge, interior, wedge

#: frame weight of each unit symbol: unit_symbol = w(spec) * geometric_symbol
WEIGHT_FNS = {
    "NK": {
        "one": lambda s: Jet.const(1.0),
        "om": lambda s: s.f * s.f,
        "psi+": lambda s: s.f * s.f * s.f,
        "psi-": lambda s: s.f * s.f * s.f,
        "om2": lambda s: (s.f * s.f) * (s.f * s.f),
        "om3": lambda s: (s.f * s.f * s.f) * (s.f * s.f * s.f),
    },
    "flag": {
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
    },
}


#: geometric-symbol d of each fiber kind for d_scale 1; a model multiplies it
#: by its d_scale (sigma for a nearly Kaehler fiber)
D_GEOM = {
    "NK": {"om": {"psi+": 3.0}, "psi-": {"om2": -2.0}},
    "flag": {
        "om1": {"psi+": 0.5},
        "om2": {"psi+": 0.5},
        "om3": {"psi+": 0.5},
        "psi-": {"m23": -2.0, "m13": -2.0, "m12": -2.0},
    },
}


#: c -> w c as a matrix: _MULTIPLY[j] holds LEIBNIZ[i, j, k] at [k, i]
_MULTIPLY = co.LEIBNIZ.transpose(1, 2, 0).reshape(3, 9)
#: d/dt of a jet, truncated: (value, d1, d2) -> (d1, d2, 0)
_SHIFT = np.eye(3, k=1)


def jet_matrices(w: np.ndarray) -> np.ndarray:
    """The (..., 3, 3) matrices of c -> w c for an array of jets w."""
    return (w @ _MULTIPLY).reshape(w.shape[:-1] + (3, 3))


def frame_weights(exponents: np.ndarray, factors) -> np.ndarray:
    """Jets (2, n, 3) of the frame weights w_s = prod_i f_i ** exponents[s, i]
    and of their inverses, from the log-derivatives l1 = w'/w and
    l2 = (w'/w)' of the warp factors: w = w0 (1, l1, l2 + l1^2)."""
    value, d1, d2 = np.array(factors).T
    dlog = d1 / value
    lam1, lam2 = exponents.dot(dlog), exponents.dot(d2 / value - dlog * dlog)
    w0, one, sq = (value ** exponents).prod(axis=1), np.ones(len(exponents)), lam1 * lam1
    jets = np.array([[one, lam1, lam2 + sq], [one, -lam1, sq - lam2]])
    return jets.transpose(0, 2, 1) * np.array([w0, 1 / w0])[:, :, None]


def d_operator(model: co.FiberModel, factors) -> np.ndarray:
    """Exterior derivative on flattened (2, n, 3) product forms, whole jets,
    as one (6n, 6n) matrix, (2, n, 3, 2, n, 3) unflattened.

    In geometric symbols d is d_geom on both blocks plus (-1)^degree dt ^ d/dt
    from fiber to dt.  A unit symbol is the geometric one times its frame
    weight w, so d_geom s -> t carries the jet w_s / w_t, and d/dt of a unit
    coefficient c is (c w)' / w."""
    tab = model.tables
    weights = frame_weights(tab.exponents, factors)
    w, w_inv = weights
    across = jet_matrices(model.d_coeff[:, None] * co.jet_product(w[tab.d_source], w_inv[tab.d_target]))
    lw, lw_inv = jet_matrices(weights)
    along_t = tab.sign[:, None, None] * (lw_inv @ _SHIFT @ lw)
    n, k = len(tab.sign), np.arange(3)
    rows = np.arange(n)

    def blocks(out_block, out, src_block, src):
        at = (out_block, out[:, None, None], k[:, None], src_block, src[:, None, None], k)
        return np.ravel_multi_index(at, (2, n, 3, 2, n, 3)).reshape(-1)

    source, target = tab.d_source, tab.d_target
    positions = np.concatenate((blocks(0, target, 0, source), blocks(1, target, 1, source), blocks(1, rows, 0, rows)))
    op = np.zeros((6 * n) ** 2)
    op[positions] = np.concatenate((across, across, along_t), axis=None)
    return op.reshape(6 * n, 6 * n)


def star6(a: Form) -> Form:
    """Hodge star of the fiber e^1..e^6 inside the ambient 7-dim algebra."""
    k = 6 - a.degree
    sign = 1 if k % 2 == 0 else -1
    return sign * interior(basis_vector(7), hodge(a))


def express(kind: str, symbols, syms: tuple, form: Form, degree: int) -> dict:
    """Write a fiber form in the span of the symbols syms of its degree."""
    if not syms:
        if not max_abs(form.coeffs) <= 1e-12:
            raise ValueError(f"{kind}: form of degree {degree} not in span")
        return {}
    cols = np.stack([symbols[s][1].coeffs for s in syms], axis=1)
    sol, *_ = np.linalg.lstsq(cols, np.asarray(form.coeffs, dtype=float), rcond=None)
    if not max_abs(cols.dot(sol) - form.coeffs) <= 1e-10:
        raise ValueError(f"{kind}: degree-{degree} form escapes the symbol span")
    return {s: c for s, c in zip(syms, sol) if abs(c) > 1e-14}


@functools.cache
def dict_tables(kind: str) -> tuple:
    """(star6, wedge) of a fiber kind as dictionaries, fitted in the span."""
    model = co.nearly_kahler_model(1.0) if kind == "NK" else co.flag_model()
    symbols = model.symbols
    by_degree = {}
    for s, (deg, _) in symbols.items():
        by_degree.setdefault(deg, []).append(s)

    def fit(form: Form, degree: int) -> dict:
        return express(kind, symbols, tuple(by_degree.get(degree, ())), form, degree)

    star_table = {s: fit(star6(form), 6 - deg) for s, (deg, form) in symbols.items()}
    wedge_table = {
        (s1, s2): fit(wedge(f1, f2), d1 + d2)
        for s1, (d1, f1) in symbols.items()
        for s2, (d2, f2) in symbols.items()
        if d1 + d2 <= 6
    }
    return star_table, wedge_table


class DictModel:
    """A fiber model with the dictionary tables and per-symbol weights."""

    def __init__(self, model: co.FiberModel):
        self.kind = "NK" if model.name.startswith("NK") else "flag"
        self.symbols = model.symbols
        self.d_geom = {s: {t: model.d_scale * c for t, c in row.items()} for s, row in D_GEOM[self.kind].items()}
        self.weight_fn = WEIGHT_FNS[self.kind]
        self._star6, self._wedge = dict_tables(self.kind)

    def weight(self, spec, s: str) -> Jet:
        return self.weight_fn[s](spec)

    def d_unit(self, spec, s: str) -> dict:
        """d of a unit symbol: sum over targets of D_geom * weight ratio."""
        w_s = self.weight(spec, s)
        return {
            s2: Jet.const(coeff) * (w_s / self.weight(spec, s2))
            for s2, coeff in self.d_geom.get(s, {}).items()
        }

    def dictionary(self, s: str) -> Form:
        return self.symbols[s][1]


@dataclass
class DictProductForm:
    """alpha + beta ^ dt with fiber parts in unit symbols, jet coefficients."""

    model: DictModel
    spec: object
    degree: int
    fiber: dict = field(default_factory=dict)
    dt: dict = field(default_factory=dict)

    def d(self) -> "DictProductForm":
        """Exterior derivative: d_fiber plus dt ^ (time derivative)."""
        out = DictProductForm(self.model, self.spec, self.degree + 1)
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

    def star(self) -> "DictProductForm":
        """Hodge star of the product metric (orthonormal unit symbols)."""
        out = DictProductForm(self.model, self.spec, DIM - self.degree)
        for s, c in self.fiber.items():
            for s2, x in self.model._star6[s].items():
                out.dt[s2] = out.dt.get(s2, Jet.const(0)) + x * c
        beta_sign = 1 if (self.degree - 1) % 2 == 0 else -1
        for s, c in self.dt.items():
            for s2, x in self.model._star6[s].items():
                out.fiber[s2] = out.fiber.get(s2, Jet.const(0)) + beta_sign * x * c
        return out

    def wedge(self, other: "DictProductForm") -> "DictProductForm":
        """(a + b dt) ^ (c + e dt) = a ^ c + (a ^ e + (-1)^deg(c) b ^ c) dt;
        a ^ c is zero where the table has no entry (degree 7 on the fiber)."""
        out = DictProductForm(self.model, self.spec, self.degree + other.degree)
        tbl = self.model._wedge
        for s1, c1 in self.fiber.items():
            for s2, c2 in other.fiber.items():
                for s3, x in tbl.get((s1, s2), {}).items():
                    out.fiber[s3] = out.fiber.get(s3, Jet.const(0)) + x * c1 * c2
        for s1, c1 in self.fiber.items():
            for s2, c2 in other.dt.items():
                for s3, x in tbl[(s1, s2)].items():
                    out.dt[s3] = out.dt.get(s3, Jet.const(0)) + x * c1 * c2
        c_sign = 1 if other.degree % 2 == 0 else -1
        for s1, c1 in self.dt.items():
            for s2, c2 in other.fiber.items():
                for s3, x in tbl[(s1, s2)].items():
                    out.dt[s3] = out.dt.get(s3, Jet.const(0)) + c_sign * x * c1 * c2
        return out

    def evaluate(self, theta_value: float) -> Form:
        """Pointwise coefficients in the rotated orthonormal frame."""
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


def to_dict(form: co.ProductForm) -> DictProductForm:
    """The reference form with the same jets; rows of a symbol whose degree
    does not fit the form must be zero."""
    model = DictModel(form.frame.model)
    parts = []
    for block, degree in zip(form.jets, (form.degree, form.degree - 1)):
        part = {}
        for s, row in zip(form.frame.model.tables.index, block):
            if model.symbols[s][0] == degree:
                part[s] = Jet(*row.tolist())
            elif row.any():
                raise ValueError(f"{s} has degree {model.symbols[s][0]}, not {degree}")
        parts.append(part)
    return DictProductForm(model, form.frame.spec, form.degree, *parts)


def conformal_warp(spec: co.WarpSpec, u: Jet) -> co.WarpSpec:
    """The warped spec of e^{3u(t)} phi: f -> e^u f in arclength time.

    A t-dependent conformal factor keeps the warped ansatz, with new time
    coordinate s, ds = e^u dt; the returned jets are d/ds jets.
    """
    eu = u.exp()

    def reparam(g: Jet) -> Jet:
        return Jet(g.value, g.d1 / eu.value, (g.d2 - u.d1 * g.d1) / eu.value**2)

    return co.WarpSpec(reparam(eu * spec.f), reparam(spec.theta), spec.sigma)


def to_array(form: DictProductForm, index) -> np.ndarray:
    """The (2, n, 3) jets of a reference form in the row order of index."""
    out = np.zeros((2, len(index), 3))
    for block, part in enumerate((form.fiber, form.dt)):
        for s, j in part.items():
            out[block, index[s]] = j.value, j.d1, j.d2
    return out
