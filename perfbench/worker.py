"""One benchmark process: a set-up probe, a served stream, or fixed rounds.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode stream [--rounds R]
    python3 perfbench/worker.py --workload NAME --seed N --mode trace --rounds R

Every mode starts from a fresh interpreter, imports g2lab from ``src/`` of
the checkout this file sits in, and runs a warm-up pass of one item of each
kind; ``setup_done_ns`` (CLOCK_MONOTONIC, shared by all processes) marks its
end.  ``stream`` and ``trace`` then compute the references and run rounds:
exactly ``--rounds`` of them, or, without ``--rounds``, one round for each
line ``round`` read from standard input until a line ``done`` (so the caller
can time other processes between rounds).  ``trace`` installs the span
wrappers first.  Results are written to standard output as lines
``perfbench {json}``: the set-up, the references, one line per round with
every item's latency, verdict and failure reason, and a final summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools are pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

PREFIX = "perfbench "


def emit(obj: dict) -> None:
    print(PREFIX + json.dumps(obj), flush=True)


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_item(item, tracer=None, item_id=None) -> list:
    """Time one item; returns [kind, label, latency_ns, verdict, reason]."""
    error = None
    if tracer is not None:
        tracer.item = item_id
    start = time.perf_counter_ns()
    try:
        result = item.run()
    except Exception as exc:  # a raising item is a failed item, not a crash
        error = exc
    finally:
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.item = None
    if error is not None:
        return [item.kind, item.label, elapsed, "raised", f"raised {type(error).__name__}: {error}"]
    try:
        verdict, reason = item.judge(result)
    except Exception as exc:  # e.g. a result without the fields the oracle reads
        verdict, reason = "unjudged", f"result could not be judged: {type(exc).__name__}: {exc}"
    return [item.kind, item.label, elapsed, verdict, reason]


def round_requests(rounds):
    """Yield 0, 1, ...: ``rounds`` times, or once per ``round`` line on stdin."""
    if rounds is not None:
        yield from range(rounds)
        return
    r = 0
    for line in sys.stdin:
        if line.strip() != "round":
            return
        yield r
        r += 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "stream", "trace"), required=True)
    ap.add_argument("--rounds", type=int, default=None)
    args = ap.parse_args(argv)
    if args.mode == "trace" and args.rounds is None:
        ap.error("--mode trace needs --rounds")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_start = time.perf_counter_ns()
    import g2lab

    import_ns = time.perf_counter_ns() - import_start
    if Path(g2lab.__file__).resolve().parent != ROOT / "src" / "g2lab":
        print(f"error: imported g2lab from {g2lab.__file__}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":  # the wrappers exist only in traced processes
        from g2lab import g2_algebra
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if tracer is not None:
        tracer.item = "cold"
        start = time.perf_counter_ns()
        for exact in wl.table_modes:
            for label in g2_algebra.VALID_LABELS:
                g2_algebra.projector_matrix(*label, exact=exact)
        tables_cold_ns = time.perf_counter_ns() - start
        tracer.item = None

    warm = [run_item(item, tracer, "warmup") for item in wl.warmup()]
    setup_problems = [f"{label}: {reason}" for _k, label, _t, _v, reason in warm if reason]
    emit({"setup_done_ns": monotonic_ns(), "setup_problems": setup_problems})
    if args.mode == "setup":
        return 1 if setup_problems else 0

    emit({"reference_problems": wl.prepare()})
    # only counts are kept across rounds, so that the process's memory does
    # not grow with the number of items a run gets through
    composition, n_done, traced_items = {}, 0, []
    for r in round_requests(args.rounds):
        batch = wl.round(r)
        recs = [[r] + run_item(item, tracer, n_done + j) for j, item in enumerate(batch)]
        n_done += len(recs)
        for item in batch:
            for category, value in {"item_kinds": item.kind, **item.tags}.items():
                counts = composition.setdefault(category, {})
                counts[value] = counts.get(value, 0) + 1
        if tracer is not None:
            traced_items += recs
        emit({"round": r, "items": recs})

    payload = {
        "composition": {**composition, **wl.composition()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": sys.modules["numpy"].__version__},
    }
    if tracer is not None:
        payload["trace"] = trace_summary(tracer, traced_items, import_ns, tables_cold_ns)
        out_dir = HERE / "runs"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-s{args.seed}.json.gz"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "items": [rec[1:3] for rec in traced_items]})
        payload["trace"]["spans_file"] = str(path.relative_to(ROOT))
        payload["trace"]["spans"] = len(tracer.spans)
    emit(payload)
    return 0


def trace_summary(tracer, items, import_ns, tables_cold_ns) -> dict:
    from tracer import layer_metrics

    ids = range(len(items))
    per_fn = tracer.per_function(ids)
    wall = sum(rec[3] for rec in items)
    metrics = layer_metrics(per_fn, len(items), wall)
    metrics["import_ms"] = (import_ns / 1e6, "ms")
    metrics["g2_algebra.tables_cold_ms"] = (tables_cold_ns / 1e6, "ms")

    by_kind = {}
    for i, rec in enumerate(items):
        by_kind.setdefault(rec[1], []).append(i)
    per_kind = {}
    for kind, kind_ids in by_kind.items():
        counts = tracer.per_function(kind_ids)
        per_kind[kind] = {
            "items": len(kind_ids),
            "calls_per_item": {n: c[0] / len(kind_ids) for n, c in counts.items() if c[0]},
            "self_ms_per_item": {n: c[1] / 1e6 / len(kind_ids) for n, c in counts.items() if c[0]},
        }
    cold = tracer.per_function(["cold", "warmup"])
    return {
        "metrics": metrics,
        "per_kind": per_kind,
        "setup_phase": {n: {"calls": c[0], "self_ms": c[1] / 1e6} for n, c in cold.items() if c[0]},
        "wrapped_bindings": tracer.installed,
    }


if __name__ == "__main__":
    sys.exit(main())
