"""Float `analyze` reports against `data/analyze_snapshot.json`.

Check names, their order, every verdict, the FG type and the summary
booleans must match exactly; residuals must lie within 1e-6 of the
check's tolerance of the frozen ones, scales and tolerances within 1e-12
(scales below 1, which `bound` floors, absolutely), and the summary
numbers within 1e-12 of the largest number of their kind.  The only
fields allowed to change are the scale and tolerance of the RESCALED
checks, which are judged against the size of what they compare where the
frozen reports judged them absolutely (the two Lambda^2_14 membership
gates that became relative too raise rather than record a check).  See
tests/analyze_snapshot.py for how the file is made.
"""

import json
import math
from pathlib import Path

import pytest

import analyze_snapshot

SNAPSHOT = Path(__file__).resolve().parent / "data" / "analyze_snapshot.json"

#: the checks whose scale (and with it the tolerance) moved from 0
RESCALED = (
    "structure equations solve (d phi, d *phi)",
    "Levi-Civita metric (Gamma antisym in last two)",
    "Levi-Civita torsion-free",
    "d = alt(grad) on phi",
    "nabla-bar phi = 0",
    "nabla-bar g = 0 (gamma-bar antisymmetry)",
    "gamma-bar is g2-valued",
    "first Bianchi identity",
    "d tau2 vs canonical-derivative conversion",
    "closed: torsion reduces to tau2",
    "closed: delta phi = tau",
    "closed: cyclic identity for xi",
    "closed: nabla-bar tau has no 7-part",
    "closed: canonical-derivative identity for d tau",
    "closed: d^nabla-bar tau lands in Lambda^3_27",
)
#: the summary entries compared exactly
BOOLEANS = ("fg_type", "extremally_pinched", "parallel_torsion")


def _close(got: float, want: float, scale: float, rel: float) -> bool:
    return abs(got - want) <= rel * scale


def _compare(got: dict, want: dict, where: str) -> None:
    assert got["passed"] == want["passed"], where
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]], where
    for g, w in zip(got["checks"], want["checks"]):
        name = f"{where}: {g['name']}"
        assert g["passed"] == w["passed"], name
        if g["name"] in RESCALED:
            assert w["scale"] == 0.0 and g["scale"] >= 0.0 and g["tol"] >= w["tol"], name
        else:
            # a scale is a computed size: it may move by rounding, which the
            # tolerance sees only above the unit floor of `bound`
            assert _close(g["scale"], w["scale"], max(w["scale"], 1.0), 1e-12), name
            assert _close(g["tol"], w["tol"], w["tol"], 1e-12), name
        assert _close(g["residual"], w["residual"], max(g["tol"], w["tol"]), 1e-6), name

    gs, ws = got["summary"], want["summary"]
    assert gs.keys() == ws.keys(), where
    for key in BOOLEANS:
        if key in ws:
            assert gs[key] == ws[key], f"{where}: {key}"
    blocks = max(ws["block_norms"].values())
    torsion = max(ws["torsion_norms"].values())
    for group, scale in (("block_norms", blocks), ("torsion_norms", torsion)):
        for key, w in ws[group].items():
            assert _close(gs[group][key], w, scale, 1e-12), f"{where}: {group}[{key}]"
    assert _close(gs["scalar_curvature"], ws["scalar_curvature"], math.sqrt(blocks), 1e-12), where
    assert _close(gs["ric0_norm2"], ws["ric0_norm2"], blocks, 1e-12), where
    for g, w in zip(gs.get("epr_identity", ()), ws.get("epr_identity", ())):
        assert _close(g, w, blocks, 1e-12), f"{where}: epr_identity"


@pytest.fixture(scope="module")
def frozen() -> list:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_input_and_scale(frozen):
    names = [spec.name for spec in analyze_snapshot.inputs()]
    assert len(names) == 20
    assert [(r["name"], r["scale"]) for r in frozen] == [
        (name, lam) for name in names for lam in analyze_snapshot.SCALES
    ]
    assert sum(len(r["report"]["checks"]) for r in frozen) > 20 * 3 * 19


def test_float_reports_match_the_snapshot(frozen):
    for got, want in zip(analyze_snapshot.reports(), frozen, strict=True):
        assert (got["name"], got["scale"]) == (want["name"], want["scale"])
        _compare(got["report"], want["report"], f"{got['name']} at {got['scale']}")


def test_the_comparison_sees_a_moved_residual(frozen):
    # a residual moved by a tenth of its tolerance is caught
    want = frozen[0]["report"]
    got = json.loads(json.dumps(want))
    check = got["checks"][0]
    check["residual"] += 0.1 * check["tol"]
    with pytest.raises(AssertionError):
        _compare(got, want, "moved")
