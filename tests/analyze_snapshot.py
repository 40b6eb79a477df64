"""The float `analyze` reports that `data/analyze_snapshot.json` freezes.

Inputs: the three shipped examples, the closed almost-abelian algebra
CLOSED_Z, the four closed nilpotent algebras and twelve seeded almost-abelian
algebras, each with its structure constants scaled by 2^-8, 1 and 2^3.  Each
report is stored as `Report.as_dict` gives it; floats keep their repr, so
the file holds the exact values.

The file was generated from the code before the stacked float passes of
`analyze` (one canonical-connection pass, the d tau2 conversion as one
weighted row, the stacked decomposition), and `test_analyze_snapshot.py`
holds the reports of the current code to it.  Regenerate it (only when a
change is meant to move a check, a verdict or a summary value) with

    PYTHONPATH=src python tests/analyze_snapshot.py > tests/data/analyze_snapshot.json
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from algebras import CLOSED_NILPOTENT, CLOSED_Z, almost_abelian, closed_almost_abelian, closed_nilpotent  # noqa: E402
from g2lab.homogeneous import LieAlgebraSpec, analyze, builtin_examples  # noqa: E402

SCALES = (2.0**-8, 1.0, 2.0**3)


def inputs() -> list:
    """The unscaled specs, in snapshot order."""
    specs = [ex["spec"] for ex in builtin_examples().values()]
    specs.append(closed_almost_abelian("closed", CLOSED_Z))
    specs += [closed_nilpotent(name) for name in sorted(CLOSED_NILPOTENT)]
    rng = np.random.default_rng(2207)
    specs += [almost_abelian(f"aa{i}", rng.integers(-8, 9, size=(6, 6)) / 4) for i in range(12)]
    return specs


def reports() -> list:
    """(name, scale, `Report.as_dict`) of every input at every scale, with
    the summary made JSON-shaped (string keys, lists for tuples)."""
    out = []
    for spec in inputs():
        for lam in SCALES:
            rep = analyze(LieAlgebraSpec(spec.name, spec.c * lam)).as_dict()
            out.append({"name": spec.name, "scale": lam, "report": json.loads(json.dumps(rep))})
    return out


if __name__ == "__main__":
    # one report per line
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in reports()) + "\n]\n")
