"""Command-line front end.

    g2lab identities [--exact] [--tol T]
    g2lab curvature [--count N] [--seed S] [--tol T]      (N >= 1, S >= 0)
    g2lab analyze FILE.g2 [--json] [--tol T]
    g2lab warp --f PROFILE --theta PROFILE --sigma S --t T
    g2lab sweep [--t T] [--json] [--tol T]

--json and --tol may stand before or after the command.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad input.
The default tolerance is 1e-9 (relative where a scale is available) and can
also be set through the environment variable G2LAB_TOL; a tolerance that is
not a finite number >= 0 is bad input for every command.

Lie algebras are read from UTF-8 JSON files:

    {"dim": 7,
     "coframe_d": [{"k": 1, "terms": [{"i": 1, "j": 7, "coeff": -1.0}]}],
     "phi": [{"indices": [1, 2, 7], "coeff": 1.0}, ...]}   # optional

meaning de^k = sum_j coeff e^ij; a missing "phi" defaults to the standard
three-form.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._linalg import max_abs
from .exterior_algebra import Form, check_contraction_identities, standard_phi
from . import cohomo_one as co
from .curvature import (
    decompose,
    inner,
    norm_split_residual,
    random_algebraic_curvature,
)
from .homogeneous import Report, analyze


def _tol(args) -> float:
    """--tol, else G2LAB_TOL, else 1e-9; ValueError unless a finite number >= 0."""
    source = "--tol" if args.tol is not None else "G2LAB_TOL"
    text = args.tol if args.tol is not None else os.environ.get("G2LAB_TOL", "1e-9")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{source} must be a finite number >= 0, got {text!r}")
    return value


def report_to_text(rep: Report) -> str:
    lines = [rep.name]
    for key, val in rep.summary.items():
        lines.append(f"  {key}: {val}")
    width = max(len(c.name) for c in rep.checks)
    for c in rep.checks:
        mark = "ok " if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.name:<{width}}  residual {c.residual:.3e}")
    n_bad = len(rep.failed_checks())
    lines.append(f"{len(rep.checks) - n_bad}/{len(rep.checks)} checks passed")
    lines.append("PASS" if rep.passed else "FAIL")
    return "\n".join(lines)


def _print_report(rep: Report, as_json: bool) -> int:
    if as_json:
        print(json.dumps(rep.as_dict(), indent=2, default=str))
    else:
        print(report_to_text(rep))
    return 0 if rep.passed else 1


# --- identities --------------------------------------------------------------------


def random_traceless(seed: int = 0, exact: bool = False) -> np.ndarray:
    """Random symmetric traceless tensor; dyadic entries so exact mode is exact."""
    from ._linalg import as_mode, eye

    rng = np.random.default_rng(seed)
    h = np.round(rng.normal(size=(7, 7)) * 16) / 16
    h = (h + h.T) / 2
    h = as_mode(h, exact)
    return h - eye(7, exact) * (h.trace() / 7)


def cmd_identities(args) -> int:
    from .g2_algebra import (
        SIGMA_LAMBDA3_CONSTANT,
        VALID_LABELS,
        lambda3,
        mixed_project_14,
        wedge3_test_pair,
        projector_matrix,
        sigma_contract,
        split_v14,
        wedge3,
    )
    from ._linalg import as_mode, eye, scalar
    from .curvature import inner, kn_product, phi_product, phi_ricci, ricci

    exact = args.exact
    rep = Report("identities (exact)" if exact else "identities", 0.0 if exact else args.tol)

    for name, res in check_contraction_identities(exact).items():
        rep.add(f"contraction: {name}", res)

    for r, d in VALID_LABELS:
        p = projector_matrix(r, d, exact)
        rep.add(f"projector ({r},{d}) idempotent", max_abs(p.dot(p) - p))
        rep.add(f"projector ({r},{d}) trace = {d}", abs(float(p.trace()) - d))

    g = eye(7, exact)
    phi = standard_phi(exact)
    rep.add("lambda3(g) = 3 phi", max_abs(lambda3(g).coeffs - 3 * phi.coeffs))
    rep.add("sigma(phi) = 6 g", max_abs(sigma_contract(phi) - 6 * g))

    h = random_traceless(0, exact)
    hn = (h * h).sum()
    rep.add("|lambda3(h)|^2 = 2 ||h||^2", abs(float(lambda3(h).norm2() - 2 * hn)))
    s0 = sigma_contract(lambda3(h))
    s0 = s0 - g * (s0.trace() / 7)
    rep.add(
        f"sigma(lambda3(h))_0 = {SIGMA_LAMBDA3_CONSTANT} h",
        max_abs(s0 - SIGMA_LAMBDA3_CONSTANT * h),
    )

    gp, gpp = wedge3_test_pair(exact)
    rep.add("mixed tensor ||gamma'||^2 = 4", abs(float(gp.tensor_norm2() - 4)))
    rep.add("mixed tensor ||gamma''||^2 = 16/3", abs(float(gpp.tensor_norm2() * 3 - 16)))
    rep.add(
        "wedge3(gamma'') = 4/3 wedge3(gamma')",
        max_abs(3 * wedge3(gpp).coeffs - 4 * wedge3(gp).coeffs),
    )
    gam = gp + gpp
    rep.add(
        "7 ||gamma||^2 = ||wedge3 gamma||^2",
        abs(float(7 * gam.tensor_norm2() - wedge3(gam).tensor_norm2())),
    )
    # wedge3 maps each part of V* (x) Lambda^2_14 onto its piece of wedge3(gamma)
    rng = np.random.default_rng(0)
    gam = mixed_project_14(as_mode(np.round(rng.normal(size=(7, 21)) * 16) / 16, exact))
    w, (g64, g27, g7) = wedge3(gam).coeffs, split_v14(gam)
    p27, p7 = projector_matrix(3, 27, exact), projector_matrix(3, 7, exact)
    rep.add("split: wedge3(gamma_27) = p_27 wedge3(gamma)", max_abs(wedge3(g27).coeffs - p27.dot(w)))
    rep.add("split: wedge3(gamma_7) = p_7 wedge3(gamma)", max_abs(wedge3(g7).coeffs - p7.dot(w)))
    rep.add("split: wedge3(gamma_64) = 0", max_abs(wedge3(g64).coeffs))

    rg, rp = kn_product(h), phi_product(h)
    one = scalar(1, exact)
    rep.add("c^g(r_g(h)) = 5 h", max_abs(ricci(rg) - 5 * h))
    rep.add("c^g(r_phi(h)) = h", max_abs(ricci(rp) - h))
    rep.add("c^phi(r_g(h)) = 4 h", max_abs(phi_ricci(rg) - 4 * h))
    rep.add("c^phi(r_phi(h)) = 92/3 h", max_abs(phi_ricci(rp) - (92 * one / 3) * h))
    rgg = kn_product(g)
    rep.add("c^g(r_g(g)) = 12 g", max_abs(ricci(rgg) - 12 * g))
    rep.add("c^phi(r_g(g)) = -24 g", max_abs(phi_ricci(rgg) + 24 * g))
    rep.add("||r_g(h)||^2 = 20 ||h||^2", abs(float(rg.norm2() - 20 * hn)))
    rep.add("||r_phi(h)||^2 = 92/3 ||h||^2", abs(float(3 * rp.norm2() - 92 * hn)))
    rep.add("<r_phi(h), r_g(h)> = 4 ||h||^2", abs(float(inner(rp, rg) - 4 * hn)))
    rep.add("||r_g(g)||^2 = 336", abs(float(rgg.norm2() - 336)))

    return _print_report(rep, args.json)


# --- curvature ---------------------------------------------------------------------


def cmd_curvature(args) -> int:
    rep = Report("five-block decomposition", args.tol)
    worst = {"reassemble": 0.0, "orthogonality": 0.0, "norm split": 0.0}
    import itertools

    for i in range(args.count):
        r = random_algebraic_curvature(seed=args.seed + i)
        dec = decompose(r)
        worst["reassemble"] = max(
            worst["reassemble"], max_abs(dec.reassemble().mat - r.mat)
        )
        blocks = [dec.w77, dec.w64, dec.w27, dec.ricci_block, dec.scalar_block]
        worst["orthogonality"] = max(
            worst["orthogonality"],
            max(abs(float(inner(a, b))) for a, b in itertools.combinations(blocks, 2)),
        )
        worst["norm split"] = max(worst["norm split"], norm_split_residual(r, dec))
    for name, res in worst.items():
        rep.add(f"{name} over {args.count} random tensors", res)
    return _print_report(rep, args.json)


# --- analyze -----------------------------------------------------------------------


#: the JSON shapes a .g2 document is read with
_SHAPES = {dict: "an object", list: "a list", str: "a string", int: "an integer", (int, float): "a number"}


def _shape(value, kind, what: str, *args):
    """value if it has the JSON shape kind (true and false are not numbers).
    The subject of the error is ``what.format(*args)``, formatted only when
    the value is rejected."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what.format(*args)} must be {_SHAPES[kind]}, got {value!r}")
    return value


def _coeff(value, what: str, *args) -> float:
    try:
        return float(_shape(value, (int, float), what, *args))
    except OverflowError:
        raise ValueError(f"{what.format(*args)} is out of the float range") from None


def load_spec(path: str):
    """Parse a .g2 JSON document into (LieAlgebraSpec, phi).

    A document of the wrong shape, or one that repeats a coframe index k, an
    index pair within one k or a phi multi-index, is rejected with a
    ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        doc = _shape(json.load(fh), dict, "{}: the document", path)
    if doc.get("dim", 7) != 7:
        raise ValueError(f"{path}: only dim = 7 is supported")
    coframe = {}
    for entry in _shape(doc.get("coframe_d", []), list, "{}: coframe_d", path):
        entry = _shape(entry, dict, "{}: a coframe_d entry", path)
        k = _shape(entry["k"], int, "{}: coframe index k", path)
        if not 1 <= k <= 7:
            raise ValueError(f"{path}: coframe index k = {k} out of range")
        if k in coframe:
            raise ValueError(f"{path}: coframe index k = {k} is repeated")
        terms = {}
        for t in _shape(entry.get("terms", []), list, "{}: the terms of k = {}", path, k):
            t = _shape(t, dict, "{}: a term of k = {}", path, k)
            i = _shape(t["i"], int, "{}: index i for k = {}", path, k)
            j = _shape(t["j"], int, "{}: index j for k = {}", path, k)
            if not 1 <= i < j <= 7:
                raise ValueError(f"{path}: bad index pair ({i}, {j}) for k = {k}")
            if (i, j) in terms:
                raise ValueError(f"{path}: index pair ({i}, {j}) is repeated for k = {k}")
            terms[(i, j)] = _coeff(t["coeff"], "{}: coeff of ({}, {}) for k = {}", path, i, j, k)
        coframe[k] = terms
    from .homogeneous import spec_from_coframe_d

    name = _shape(doc.get("name", os.path.splitext(os.path.basename(path))[0]), str, "{}: name", path)
    spec = spec_from_coframe_d(name, coframe)
    phi = None
    if "phi" in doc:
        terms = {}
        for t in _shape(doc["phi"], list, "{}: phi", path):
            t = _shape(t, dict, "{}: a phi term", path)
            indices = _shape(t["indices"], list, "{}: phi indices", path)
            idx = tuple(_shape(i, int, "{}: a phi index", path) for i in indices)
            if idx in terms:
                raise ValueError(f"{path}: phi multi-index {idx} is repeated")
            terms[idx] = _coeff(t["coeff"], "{}: coeff of phi term {}", path, idx)
        phi = Form.from_terms(3, terms)
    return spec, phi


def cmd_analyze(args) -> int:
    try:
        spec, phi = load_spec(args.path)
        rep = analyze(spec, phi, tol=args.tol)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _print_report(rep, args.json)


# --- warp / sweep -------------------------------------------------------------------


def _two_route(compute, t: float):
    """(compute(), 0), or (None, exit code) with the reason printed: 1 when a
    two-route check fails, 2 for bad input, which includes a spec whose
    arithmetic at t leaves the float range."""
    try:
        return compute(), 0
    except co.RouteMismatch as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return None, 1
    except (OverflowError, ZeroDivisionError):
        print(f"error: the warped solve at t = {t!r} is out of the float range", file=sys.stderr)
        return None, 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def cmd_warp(args) -> int:
    def compute():
        f = co.jet_profile(args.f, args.t)
        theta = co.jet_profile(args.theta, args.t)
        return {"t": args.t, **co.warp_point(co.WarpSpec(f, theta, args.sigma), tol=args.tol)}

    payload, code = _two_route(compute, args.t)
    if code:
        return code
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0


def cmd_sweep(args) -> int:
    result, code = _two_route(lambda: co.sweep_check(t=args.t, tol=args.tol), args.t)
    if code:
        return code
    table, wrong = result
    realized = sorted({tuple(v) for v in table.values()})
    if args.json:
        print(json.dumps({"table": table, "realized": [list(r) for r in realized]}, indent=2))
    else:
        width = max(len(k) for k in table)
        for name, cls in table.items():
            label = "{" + ", ".join(map(str, cls)) + "}" if cls else "parallel"
            print(f"{name:<{width}}  {label}")
        print("realized classes:", [list(r) for r in realized])
    if wrong:
        print(f"FAIL: realized class differs from the designed one at {wrong}", file=sys.stderr)
        return 1
    return 0


# --- entry point --------------------------------------------------------------------


def _int_at_least(low: int):
    def integer(text: str) -> int:  # named in argparse's "invalid integer value"
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="g2lab", description=__doc__.splitlines()[0])
    ap.add_argument("--tol", type=float, default=None, help="residual tolerance")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    # the same switches after the command; SUPPRESS keeps a value given
    # before the command when they are absent here
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS, help="residual tolerance")
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output"
    )
    sub = ap.add_subparsers(dest="command", required=True)
    add_command = functools.partial(sub.add_parser, parents=[common])

    p = add_command("identities", help="run the pointwise identity suite")
    p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    p.set_defaults(fn=cmd_identities)

    p = add_command("curvature", help="verify the five-block decomposition")
    p.add_argument("--count", type=_int_at_least(1), default=25)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(fn=cmd_curvature)

    p = add_command("analyze", help="analyze a Lie algebra document")
    p.add_argument("path")
    p.set_defaults(fn=cmd_analyze)

    p = add_command("warp", help="torsion of a warped product at a point")
    profiles = f"a profile of t: {', '.join(co.JET_PROFILES)}, const:C or scale-t:C (C t)"
    p.add_argument("--f", default="sin", help=f"the warp factor, {profiles}")
    p.add_argument("--theta", default="t", help=f"the phase of psi_t, {profiles}")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.set_defaults(fn=cmd_warp)

    p = add_command("sweep", help="Fernandez-Gray type sweep")
    p.add_argument("--t", type=float, default=1.0)
    p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = _tol(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
