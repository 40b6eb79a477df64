"""Seeded workload streams and the per-item correctness oracle.

A workload is a sequence of rounds.  Every round has the same composition of
item kinds, so throughput and latency percentiles compare like with like
across seeds, while its inputs and their order come from
``numpy.random.default_rng([seed, workload, 0, round])`` (the warm-up pass
draws from ``[seed, workload, 1]``, so no timed item repeats a warm-up
input).  An item is one closed-loop call into the package: ``run`` is the
timed part, ``judge`` turns its result into a verdict (compared between
traced and untraced runs) and a failure reason (``None`` when every check
holds), and ``tags`` feed the composition recorded for the run.

Only generated inputs reach the package.  References that items are judged
against (the verdict of each algebra at unit scale, exact-mode verdicts, the
shipped manifests) are computed by ``prepare`` before anything is timed.
Program functions are always called through their module so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from g2lab import _linalg as la
from g2lab import cli
from g2lab import cohomo_one as co
from g2lab import curvature as cv
from g2lab import exterior_algebra as ea
from g2lab import g2_algebra as ga
from g2lab import homogeneous as hm
from g2lab import torsion as tr

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Item:
    kind: str
    label: str
    run: Callable[[], object]
    judge: Callable[[object], tuple]  # result -> (verdict, failure reason or None)
    tags: dict = field(default_factory=dict)  # composition category -> value


def first_of_each_kind(items: list) -> list:
    seen = {}
    for item in items:
        seen.setdefault(item.kind, item)
    return list(seen.values())


def _nonzero(residuals: dict) -> list:
    """Names of residuals that are not exactly zero (Fractions or floats)."""
    return sorted(
        name
        for name, r in residuals.items()
        if any(v != 0 for v in np.asarray(r, dtype=object).reshape(-1))
    )


def _exact_judge(residuals: dict) -> tuple:
    bad = _nonzero(residuals)
    return bad, (f"residual not exactly zero: {bad[0]}" if bad else None)


# --- lie-float ------------------------------------------------------------------------

#: lambda = 2^k for k in these ranges; powers of two keep lambda * c exact in
#: float64.  lie-float stops at 2^3: from 2^5 up the seed-state package fails
#: some items (absolute tolerances, ROADMAP item 2), and a timed stream with
#: failing items cannot give the same failure count in two runs of different
#: length.  lie-float-wide keeps the full range and records those failures.
SCALE_EXPONENTS = tuple(range(-8, 4))
WIDE_SCALE_EXPONENTS = tuple(range(-8, 9))
EXAMPLES = ("flat", "hyperbolic", "bryant")


def almost_abelian(d4: np.ndarray, exact: bool = False, name: str = "aa") -> hm.LieAlgebraSpec:
    """R^6 semidirect R with [e7, e_i] = sum_k D[k, i] e_k and D = d4 / 4.

    Brackets inside R^6 vanish, so the Jacobi identity holds for every D.
    """
    c = la.zeros((7, 7, 7), exact)
    for k in range(6):
        for i in range(6):
            v = Fraction(int(d4[k, i]), 4) if exact else float(d4[k, i]) / 4
            c[k, 6, i] = v
            c[k, i, 6] = -v
    return hm.LieAlgebraSpec(name, c)


def scaled(spec: hm.LieAlgebraSpec, k: int) -> hm.LieAlgebraSpec:
    return hm.LieAlgebraSpec(spec.name, spec.c * (2.0**k))


def report_verdict(rep) -> list:
    return [list(rep.summary["fg_type"]), bool(rep.passed)]


def manifest_failure(summary: dict, expected: dict, lam: float) -> Optional[str]:
    """First way the summary of lam * (shipped example) misses its manifest.

    Torsion scales by lam and curvature by lam^2 (block norms by lam^4), so
    every expected value is compared after undoing the scale.
    """
    if "fg_type" in expected and summary["fg_type"] != expected["fg_type"]:
        return f"fg_type {summary['fg_type']} != expected {expected['fg_type']}"
    if "scalar_curvature" in expected:
        s, e = summary["scalar_curvature"] / lam**2, expected["scalar_curvature"]
        if abs(s - e) > 1e-9 * max(abs(e), 1.0):
            return f"scalar curvature {s!r} != expected {e!r}"
    if "tau1" in expected:
        norm = math.sqrt(sum(v * v for v in expected["tau1"].values()))
        got = summary["torsion_norms"][4] / lam
        if abs(got - norm) > 1e-9 * max(norm, 1.0):
            return f"|tau1| {got!r} != expected {norm!r}"
    closed = "extremally_pinched" in summary
    if "closed" in expected and closed != expected["closed"]:
        return f"closed = {closed}, expected {expected['closed']}"
    for key in ("extremally_pinched", "parallel_torsion"):
        if expected.get(key) and not summary.get(key):
            return f"{key} not detected"
    blocks = {name: v / lam**4 for name, v in summary["block_norms"].items()}
    if expected.get("W64_zero") and blocks["W64"] >= 1e-12:
        return f"|W64|^2 = {blocks['W64']!r} is not zero"
    if expected.get("pure_scalar_block"):
        rest = max(blocks["W77"], blocks["W64"], blocks["W27"], blocks["R0"])
        if rest >= 1e-10:
            return f"non-scalar curvature block of norm^2 {rest!r}"
    return None


class LieFloat:
    """Float ``analyze`` on almost-abelian algebras and the shipped examples.

    A round holds one item per algebra of a pool with one algebra per scale
    (each at a different lambda = 2^k, so every round has the same lambda
    histogram) and one item per shipped example.  With n scales, algebra i
    gets the scale (offset_i + round) mod n, so no (algebra, lambda) pair
    repeats within n rounds.
    """

    name = "lie-float"
    table_modes = (False,)
    scales = SCALE_EXPONENTS

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 1, 1])
        self.seed = seed
        self.d4 = [rng.integers(-8, 9, size=(6, 6)) for _ in self.scales]
        self.specs = [almost_abelian(d, name=f"aa{i}") for i, d in enumerate(self.d4)]
        self.offsets = rng.permutation(len(self.scales))
        self.example_offsets = rng.integers(0, len(self.scales), size=len(EXAMPLES))
        self.paths = {name: str(root / "examples_g2" / f"{name}.g2") for name in EXAMPLES}
        self.manifests = {n: e["expected"] for n, e in hm.builtin_examples().items()}
        #: algebras whose float verdicts are also compared with exact mode
        self.exact_subset = (0,)
        # filled by prepare(); the warm-up pass runs before it and is judged
        # by its own report and the manifests alone
        self.refs, self.exact_refs = {}, {}

    def prepare(self) -> list:
        """Unit-scale and exact references; returns reference problems."""
        problems = []
        for spec in self.specs:
            res = hm.jacobi_residual(spec)
            if res != 0:
                raise RuntimeError(f"generated {spec.name} fails Jacobi ({res!r})")
        for i, spec in enumerate(self.specs):
            rep = hm.analyze(spec)
            self.refs[i] = report_verdict(rep)
            if not rep.passed:
                problems.append(f"{spec.name} fails at unit scale")
        for name, path in self.paths.items():
            spec, phi = cli.load_spec(path)
            rep = hm.analyze(spec, phi)
            self.refs[name] = report_verdict(rep)
            why = manifest_failure(rep.summary, self.manifests[name], 1.0)
            if not rep.passed or why:
                problems.append(f"{name} at unit scale: {why or 'a check failed'}")
        for i in self.exact_subset:
            rep = hm.analyze(almost_abelian(self.d4[i], exact=True, name=f"aa{i}"))
            self.exact_refs[i] = report_verdict(rep)
            if self.exact_refs[i] != self.refs[i]:
                problems.append(f"aa{i}: float verdict {self.refs[i]} != exact {self.exact_refs[i]}")
        return problems

    def _aa_item(self, i: int, k: int) -> Item:
        spec = self.specs[i]

        def run():
            return hm.analyze(scaled(spec, k))

        def judge(rep):
            verdict = report_verdict(rep)
            if not rep.passed:
                return verdict, f"check failed: {rep.failed_checks()[0].name}"
            ref, exact_ref = self.refs.get(i), self.exact_refs.get(i)
            if ref is not None and verdict != ref:
                return verdict, f"verdict {verdict} != unit-scale {ref}"
            if exact_ref is not None and verdict != exact_ref:
                return verdict, f"verdict {verdict} != exact {exact_ref}"
            return verdict, None

        return Item("almost_abelian", f"aa{i}@2^{k}", run, judge, {"lambda_exponent": k})

    def _example_item(self, name: str, k: int) -> Item:
        path = self.paths[name]

        def run():
            spec, phi = cli.load_spec(path)
            return hm.analyze(scaled(spec, k), phi)

        def judge(rep):
            verdict = report_verdict(rep)
            if not rep.passed:
                return verdict, f"check failed: {rep.failed_checks()[0].name}"
            ref = self.refs.get(name)
            if ref is not None and verdict != ref:
                return verdict, f"verdict {verdict} != unit-scale {ref}"
            why = manifest_failure(rep.summary, self.manifests[name], 2.0**k)
            return verdict, (f"manifest: {why}" if why else None)

        return Item(name, f"{name}@2^{k}", run, judge, {"lambda_exponent": k})

    def _k(self, offset: int, r: int) -> int:
        return self.scales[(int(offset) + r) % len(self.scales)]

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, 1, 0, r])
        items = [self._aa_item(i, self._k(off, r)) for i, off in enumerate(self.offsets)]
        items += [
            self._example_item(name, self._k(off, r))
            for name, off in zip(EXAMPLES, self.example_offsets)
        ]
        return [items[j] for j in rng.permutation(len(items))]

    def warmup(self) -> list:
        return [self._aa_item(0, 0)] + [self._example_item(name, 0) for name in EXAMPLES]

    def composition(self) -> dict:
        types = {}
        for i in range(len(self.specs)):
            key = str(self.refs[i][0])
            types[key] = types.get(key, 0) + 1
        return {
            "pool_size": len(self.specs),
            "pool_fg_types_at_unit_scale": types,
            "exact_checked_algebras": [f"aa{i}" for i in self.exact_subset],
        }


class LieFloatWide(LieFloat):
    """``lie-float`` over the full scale range lambda = 2^-8 .. 2^8.

    Its seed-state failures at lambda >= 2^5 are the ROADMAP item 2 defect;
    a fix turns them into passing items.  Not listed in BENCHMARK.json.
    """

    name = "lie-float-wide"
    scales = WIDE_SCALE_EXPONENTS


# --- exact-oracle ---------------------------------------------------------------------


def dyadic_traceless(rng) -> np.ndarray:
    """Exact symmetric traceless 7x7 tensor with dyadic off-trace entries."""
    h = np.round(rng.normal(size=(7, 7)) * 16) / 16
    h = la.as_mode((h + h.T) / 2, exact=True)
    return h - la.eye(7, True) * (h.trace() / 7)


class ExactOracle:
    """Exact-rational identity checks, each expected to have zero residual.

    A round: the contraction identities, the lambda3/sigma and Ricci
    constants on a seeded traceless h, idempotence and trace of each of the
    ten projectors, the exact five-block decomposition of a seeded curvature
    tensor, and exact ``analyze`` of a seeded almost-abelian algebra.
    """

    name = "exact-oracle"
    table_modes = (True,)

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def prepare(self) -> list:
        return []

    def round(self, r: int) -> list:
        return self._items(np.random.default_rng([self.seed, 2, 0, r]), f"r{r}")

    def warmup(self) -> list:
        # inputs of their own, so that no stream item repeats a warm-up input
        return first_of_each_kind(self._items(np.random.default_rng([self.seed, 2, 1]), "warmup"))

    def _items(self, rng, tag: str) -> list:
        h = dyadic_traceless(rng)
        curv = cv.random_algebraic_curvature(seed=int(rng.integers(2**31)), exact=True)
        d4 = rng.integers(-8, 9, size=(6, 6))
        # quarter-integers are exact in float64, so the float twin's residual is exact
        res = hm.jacobi_residual(almost_abelian(d4))
        if res != 0:
            raise RuntimeError(f"generated algebra aa-{tag} fails Jacobi ({res!r})")
        spec = almost_abelian(d4, exact=True, name=f"aa-{tag}")
        items = [
            Item("contraction", "contraction", self._contraction, _exact_judge),
            Item("lambda3_sigma", "lambda3_sigma", lambda: self._lambda3_sigma(h), _exact_judge),
            Item("ricci_constants", "ricci_constants", lambda: self._ricci_constants(h), _exact_judge),
        ]
        for label in ga.VALID_LABELS:
            items.append(
                Item("projector", f"projector{label}", lambda lb=label: self._projector(lb), _exact_judge)
            )
        items.append(Item("decompose", "decompose", lambda: self._decompose(curv), _exact_judge))
        items.append(Item("analyze", spec.name, lambda: hm.analyze(spec), self._judge_analyze))
        return [items[j] for j in rng.permutation(len(items))]

    @staticmethod
    def _contraction():
        return ea.check_contraction_identities(exact=True)

    @staticmethod
    def _lambda3_sigma(h):
        g = la.eye(7, True)
        phi = ea.standard_phi(True)
        hn = (h * h).sum()
        s0 = ga.sigma_contract(ga.lambda3(h))
        s0 = s0 - g * (s0.trace() / 7)
        return {
            "lambda3(g) = 3 phi": ga.lambda3(g).coeffs - 3 * phi.coeffs,
            "sigma(phi) = 6 g": ga.sigma_contract(phi) - 6 * g,
            "|lambda3(h)|^2 = 2 |h|^2": ga.lambda3(h).norm2() - 2 * hn,
            "sigma(lambda3(h))_0 = c h": s0 - ga.SIGMA_LAMBDA3_CONSTANT * h,
        }

    @staticmethod
    def _ricci_constants(h):
        rg, rp = cv.kn_product(h), cv.phi_product(h)
        hn = (h * h).sum()
        return {
            "c^g(r_g(h)) = 5 h": cv.ricci(rg) - 5 * h,
            "c^phi(r_g(h)) = 4 h": cv.phi_ricci(rg) - 4 * h,
            "c^g(r_phi(h)) = h": cv.ricci(rp) - h,
            "c^phi(r_phi(h)) = 92/3 h": cv.phi_ricci(rp) - Fraction(92, 3) * h,
            "|r_g(h)|^2 = 20 |h|^2": rg.norm2() - 20 * hn,
            "|r_phi(h)|^2 = 92/3 |h|^2": 3 * rp.norm2() - 92 * hn,
            "<r_phi(h), r_g(h)> = 4 |h|^2": cv.inner(rp, rg) - 4 * hn,
        }

    @staticmethod
    def _projector(label):
        p = ga.projector_matrix(*label, exact=True)
        return {
            f"p{label} idempotent": p.dot(p) - p,
            f"p{label} trace": p.trace() - label[1],
        }

    @staticmethod
    def _decompose(curv):
        dec = cv.decompose(curv)
        return {
            "blocks reassemble": dec.reassemble().mat - curv.mat,
            "norm split": cv.norm_split_residual(curv, dec),
        }

    @staticmethod
    def _judge_analyze(rep):
        bad = sorted(c.name for c in rep.checks if c.residual != 0)
        if not rep.passed:
            return bad, f"check failed: {rep.failed_checks()[0].name}"
        return bad, (f"residual not exactly zero: {bad[0]}" if bad else None)

    def composition(self) -> dict:
        return {"projector_labels": [list(lb) for lb in ga.VALID_LABELS]}


# --- warped-sweep ---------------------------------------------------------------------

F_PROFILES = ("sin", "exp", "cosh", "sinh")
THETA_PROFILES = ("t", "zero", "sin", "cos")
SIGMAS = (0.0, 1.0)
N_COHOM, N_RICW = 16, 4


def _open_interval_t(rng) -> float:
    t = 0.0
    while t == 0.0:
        t = float(rng.uniform(0.0, math.pi))
    return t


class WarpedSweep:
    """Two-route torsion on warped and cohomogeneity-one structures.

    A round: ``warped_torsion`` once for each of the 32 (f, theta, sigma)
    profile combinations at a seeded t in (0, pi), ``cohom_torsion`` on 16
    seeded holonomy triples with seeded theta jets, ``fg_type`` after each,
    4 ``ricW_vanishes`` items and one ``g2lab --json sweep`` through the CLI
    entry point, compared with the table stored in ``data/``.
    """

    name = "warped-sweep"
    table_modes = (False,)

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.sweep_table = json.loads((DATA / "type_sweep_t1.json").read_text())["table"]

    def prepare(self) -> list:
        return []

    @staticmethod
    def _warp_spec(f: str, theta: str, sigma: float, t: float) -> co.WarpSpec:
        return co.WarpSpec(co.jet_profile(f, t), co.jet_profile(theta, t), sigma)

    def round(self, r: int) -> list:
        return self._items(np.random.default_rng([self.seed, 3, 0, r]))

    def warmup(self) -> list:
        # inputs of their own, so that no stream item repeats a warm-up input
        return first_of_each_kind(self._items(np.random.default_rng([self.seed, 3, 1])))

    def _items(self, rng) -> list:
        items = []
        for f in F_PROFILES:
            for theta in THETA_PROFILES:
                for sigma in SIGMAS:
                    t = _open_interval_t(rng)
                    spec = self._warp_spec(f, theta, sigma, t)
                    profile = f"f={f} theta={theta} sigma={sigma:g}"
                    item = self._torsion_item("warped_torsion", f"warp {profile} t={t:.6f}", co.warped_torsion, spec)
                    item.tags["profile"] = profile
                    items.append(item)
        for _ in range(N_COHOM):
            v = rng.uniform(0.3, 1.5, size=3)
            theta = co.Jet(float(rng.uniform(0.0, math.pi)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            spec = co.CohomSpec(*co.holonomy_triple(*v), theta)
            label = f"cohom v=({v[0]:.4f}, {v[1]:.4f}, {v[2]:.4f}) theta={theta.value:.4f}"
            items.append(self._torsion_item("cohom_torsion", label, co.cohom_torsion, spec))
        for _ in range(N_RICW):
            f, theta = str(rng.choice(F_PROFILES)), str(rng.choice(THETA_PROFILES))
            sigma, t = float(rng.choice(SIGMAS)), _open_interval_t(rng)
            spec = self._warp_spec(f, theta, sigma, t)
            profile = f"f={f} theta={theta} sigma={sigma:g}"
            items.append(
                Item(
                    "ricW_vanishes",
                    f"ricW {profile} t={t:.6f}",
                    lambda s=spec: co.ricW_vanishes(s),
                    self._ricw_judge(spec),
                    {"ricW_profile": profile},
                )
            )
        items.append(Item("type_sweep", "g2lab --json sweep", self._sweep, self._judge_sweep))
        return [items[j] for j in rng.permutation(len(items))]

    @staticmethod
    def _torsion_item(kind, label, solve, spec) -> Item:
        def run():
            return sorted(tr.fg_type(solve(spec)))

        return Item(kind, label, run, lambda cls: (cls, None))

    @staticmethod
    def _ricw_judge(spec):
        def judge(value):
            # the residual is a curvature quantity: judge it against the
            # scalar curvature of the same structure
            tol = 1e-9 * max(1.0, abs(co.scalar_curvature_warped(spec)))
            ok = value <= tol
            return ok, (None if ok else f"Weyl-Ricci residual {value:.3g} > {tol:.3g}")

        return judge

    @staticmethod
    def _sweep():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--json", "sweep"])
        return code, out.getvalue()

    def _judge_sweep(self, result):
        code, text = result
        if code != 0:
            return code, f"g2lab sweep exited {code}"
        table = json.loads(text)["table"]
        if table != self.sweep_table:
            diff = sorted(k for k in set(table) | set(self.sweep_table) if table.get(k) != self.sweep_table.get(k))
            return code, f"sweep table differs from the stored one at {diff}"
        return code, None

    def composition(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (LieFloat, LieFloatWide, ExactOracle, WarpedSweep)}
