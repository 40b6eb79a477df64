"""The warped and cohomogeneity-one outputs that `data/warped_snapshot.json`
freezes, as float.hex strings so that equality is bit for bit.

For each of the 32 warp profiles (f, theta, sigma) at five fixed t, and for
four holonomy triples with fixed theta jets: the packed torsion vector, the
torsion norms, tau0, the scalar curvature from the torsion formula and the
Weyl-Ricci residual.  Two of the t sit 1e-3 from the ends of (0, pi), where
the torsion is largest against the rounding of the two routes and of the
Weyl-Ricci residual, so a change of rounding shows there first.

Regenerate the snapshot (only when a change to the warped engine is meant to
move its rounding) with

    PYTHONPATH=src python tests/warped_snapshot.py > tests/data/warped_snapshot.json
"""

from __future__ import annotations

import json
import math

from g2lab import cohomo_one as co

F_PROFILES = ("sin", "exp", "cosh", "sinh")
THETA_PROFILES = ("t", "zero", "sin", "cos")
SIGMAS = (0.0, 1.0)
TS = (1e-3, 0.5, 1.5, 2.5, math.pi - 1e-3)
TRIPLES = (
    ((0.5, 0.5, 0.5), (0.8, 0.5, 0.1)),
    ((0.6, 0.9, 1.4), (0.8, 0.5, 0.1)),
    ((0.3, 1.1, 0.7), (2.0, -0.4, 0.6)),
    ((1.5, 0.4, 0.9), (0.1, 0.9, -0.7)),
)


def _entry(solve_torsion, spec) -> dict:
    t = solve_torsion(spec)
    values = {"tau0": float(t.tau0), **{f"norm{k}": v for k, v in sorted(t.norms().items())}}
    values["s"] = co.scalar_curvature_warped(spec)
    values["ricW"] = co.ricW_vanishes(spec)
    out = {name: float(v).hex() for name, v in values.items()}
    out["packed"] = [float(x).hex() for x in t.packed]
    return out


def warped_outputs() -> dict:
    out = {}
    for f in F_PROFILES:
        for theta in THETA_PROFILES:
            for sigma in SIGMAS:
                for t in TS:
                    spec = co.WarpSpec(co.jet_profile(f, t), co.jet_profile(theta, t), sigma)
                    out[f"warp f={f} theta={theta} sigma={sigma:g} t={t}"] = _entry(co.warped_torsion, spec)
    for v, theta in TRIPLES:
        spec = co.CohomSpec(*co.holonomy_triple(*v), co.Jet(*theta))
        out[f"cohom v={v} theta={theta}"] = _entry(co.cohom_torsion, spec)
    return out


if __name__ == "__main__":
    print(json.dumps(warped_outputs(), indent=1, sort_keys=True))
