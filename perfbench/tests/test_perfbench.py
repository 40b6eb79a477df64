"""Self-tests of the benchmark: tiny runs, metric names, tracing, the oracle.

    python3 -m pytest perfbench/tests -q

They start benchmark processes of a few seconds each (about two minutes in
all); the package's own test suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_metric_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(workload: str, mode: str, rounds: int = 1, seed: int = 3) -> dict:
    return run.worker(run.child_env(), workload, seed, mode, rounds=rounds)


def run_bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def verdicts(out: dict) -> list:
    return [rec[1:3] + rec[4:] for rec in out["items"]]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_of_each_workload(name):
    out = run_worker(name, "stream")
    assert out["exit_code"] == 0
    assert out["setup_problems"] == [] and out["reference_problems"] == []
    assert out["items"] and {rec[0] for rec in out["items"]} == {0}
    assert sum(out["composition"]["item_kinds"].values()) == len(out["items"])
    assert all(rec[3] > 0 for rec in out["items"])
    if name != "lie-float-wide":  # fails at large lambda at the seed state
        assert [rec for rec in out["items"] if rec[5]] == []


def test_same_seed_gives_same_inputs():
    a, b = workloads.WarpedSweep(11, ROOT), workloads.WarpedSweep(11, ROOT)
    assert [i.label for i in a.round(2)] == [i.label for i in b.round(2)]
    assert [i.label for i in a.round(2)] != [i.label for i in workloads.WarpedSweep(12, ROOT).round(2)]
    lie = workloads.LieFloat(4, ROOT)
    ks = sorted(int(i.label.rsplit("@2^", 1)[1]) for i in lie.round(0) if i.kind == "almost_abelian")
    assert ks == list(workloads.SCALE_EXPONENTS)  # every round has the full lambda histogram


def test_end_to_end_metric_names_and_units_match_benchmark_json():
    lines, result = run_bench("warped-sweep", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}") for line in lines), name
        assert result["metrics"][name]["value"] > 0


def test_traced_metric_names_and_units_match_benchmark_json():
    _lines, result = run_bench("warped-sweep", 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(expected) == layer_metric_names()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True


@pytest.mark.parametrize("name", ["lie-float", "warped-sweep"])
def test_traced_and_untraced_runs_agree(name):
    plain = run_worker(name, "stream")
    traced = run_worker(name, "trace")
    assert verdicts(plain) == verdicts(traced)
    fails = [sum(1 for rec in out["items"] if rec[5]) for out in (plain, traced)]
    assert fails[0] == fails[1]
    per_kind = traced["trace"]["per_kind"]
    if name == "lie-float":
        for kind in ("almost_abelian", "flat", "hyperbolic", "bryant"):
            assert per_kind[kind]["calls_per_item"]["homogeneous.invariant_d_matrices"] == 6
    else:
        assert per_kind["warped_torsion"]["calls_per_item"]["cohomo_one.nearly_kahler_model"] == 2
        assert per_kind["cohom_torsion"]["calls_per_item"]["cohomo_one.flag_model"] == 2


def test_injected_wrong_unit_scale_verdict_is_a_failure():
    lie = workloads.LieFloat(4, ROOT)
    item = lie._aa_item(3, 0)
    assert worker.run_item(item)[4] is None
    lie.refs[3] = [[9], True]  # a verdict analyze can never produce
    assert "unit-scale" in worker.run_item(item)[4]


def test_injected_wrong_manifest_is_a_failure():
    lie = workloads.LieFloat(4, ROOT)
    item = lie._example_item("hyperbolic", 0)
    assert worker.run_item(item)[4] is None
    lie.manifests["hyperbolic"] = {**lie.manifests["hyperbolic"], "fg_type": [1, 4]}
    assert "manifest" in worker.run_item(item)[4]


def test_injected_wrong_sweep_table_is_a_failure():
    ws = workloads.WarpedSweep(4, ROOT)
    item = next(i for i in ws.round(0) if i.kind == "type_sweep")
    assert worker.run_item(item)[4] is None
    ws.sweep_table = {**ws.sweep_table, "flat cone over S6": [4]}
    assert "differs" in worker.run_item(item)[4]


def test_exact_oracle_rejects_any_nonzero_residual():
    assert workloads._exact_judge({"a": Fraction(0), "b": [Fraction(0)] * 3})[1] is None
    assert workloads._exact_judge({"tiny": [Fraction(0), Fraction(1, 10**400)]})[1] is not None


def test_refuses_a_directory_without_the_package():
    bare = BENCH / "runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lie-float", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
