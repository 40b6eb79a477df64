"""The g2lab benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload lie-float --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the checkout it sits in and builds nothing
(the package is imported from ``src/``).  With ``--trace 0`` it measures the
end-to-end metrics: set-up time of fresh processes, cold CLI time, and the
throughput and latency of a closed-loop stream run in its own process.  With
``--trace 1`` it runs the same rounds untraced and then traced, checks that
the verdicts agree, and reports the per-layer metrics.  Metrics are printed
one per line with their units; the last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the whole run
is also written to ``perfbench/runs/``.  See ``perfbench/README.md``.

Exit codes: 0 the run finished (failed items are counted, not fatal),
2 the checkout or the arguments are unusable, 3 a benchmark process broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: per workload: the CLI command timed cold and how many cold runs; set-up
#: probes in their own processes (the stream process gives one more set-up
#: sample); the fixed tail percentile, chosen so that at least 10 items lie
#: beyond it at the seed state; and the number of rounds in a traced run.
#: exact-oracle makes fewer runs because each takes 5-11 s.  A single cold
#: CLI run varies by up to 1.5x on a shared machine, hence 21 of them.
LIE_FLOAT = {
    "cli": ["analyze", "examples_g2/bryant.g2"],
    "cli_runs": 21,
    "setup_probes": 8,
    "tail": 90,
    "trace_rounds": 3,
}
WORKLOADS = {
    "lie-float": LIE_FLOAT,
    "lie-float-wide": LIE_FLOAT,
    "exact-oracle": {
        "cli": ["identities", "--exact"],
        "cli_runs": 3,
        "setup_probes": 1,
        "tail": 60,
        "trace_rounds": 1,
    },
    "warped-sweep": {
        "cli": ["sweep"],
        "cli_runs": 21,
        "setup_probes": 8,
        "tail": 99.5,
        "trace_rounds": 20,
    },
}
#: the stream runs at least this many rounds, and at least --seconds
MIN_ROUNDS = 2
#: no benchmark process may run longer than this
PROCESS_TIMEOUT_S = 150
#: prefix of the worker's result lines on its standard output
PREFIX = "perfbench "

#: stages a later change may stop rebuilding; their calls per item are
#: printed for every item kind of a traced run
REDUNDANCY_PROBES = (
    "homogeneous.invariant_d_matrices",
    "homogeneous.levi_civita",
    "torsion.extract_torsion",
    "cohomo_one.nearly_kahler_model",
    "cohomo_one.flag_model",
)

#: the end-to-end metrics of BENCHMARK.json and their units
UNITS = {
    "setup_s": "s",
    "cli_cold_s": "s",
    "items_per_s": "1/s",
    "item_tail_ms": "ms",
    "pass_rate": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A benchmark process failed in a way that leaves no valid result."""


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(cmd: list, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{' '.join(cmd[1:3])} ran past {PROCESS_TIMEOUT_S} s") from exc


def worker_command(workload: str, seed: int, mode: str, rounds: int | None = None) -> list:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    return cmd + (["--rounds", str(rounds)] if rounds is not None else [])


def merge_results(results: list) -> dict:
    """One dict from a worker's result lines; round lines are concatenated."""
    out = {"items": []}
    for res in results:
        if "round" in res:
            out["items"] += res["items"]
        else:
            out.update(res)
    return out


def worker(env: dict, workload: str, seed: int, mode: str, rounds: int | None = None) -> dict:
    proc = run_child(worker_command(workload, seed, mode, rounds), env)
    results = [json.loads(line[len(PREFIX):]) for line in proc.stdout.splitlines() if line.startswith(PREFIX)]
    if proc.returncode not in (0, 1) or not results:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = merge_results(results)
    out["exit_code"] = proc.returncode
    return out


class ServedStream:
    """A stream worker that runs one round per request, so that other
    processes can be timed between its rounds."""

    def __init__(self, env: dict, workload: str, seed: int):
        self.proc = subprocess.Popen(
            worker_command(workload, seed, "stream"),
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        self.results = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def read(self) -> dict:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(f"stream worker stopped (exit {self.proc.wait()})")
            if line.startswith(PREFIX):
                self.results.append(json.loads(line[len(PREFIX):]))
                return self.results[-1]

    def send(self, command: str) -> None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BenchError(f"stream worker stopped (exit {self.proc.wait()})") from exc

    def round(self) -> list:
        self.send("round")
        return self.read()["items"]

    def finish(self) -> dict:
        self.send("done")
        self.read()
        if self.proc.wait() != 0:
            raise BenchError(f"stream worker exited {self.proc.returncode}")
        return merge_results(self.results)


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def stream_stats(items: list) -> dict:
    lat_ms = [rec[3] / 1e6 for rec in items]
    failed = [rec for rec in items if rec[5]]
    reasons = {}
    for rec in failed:
        key = f"{rec[1]}: {rec[5].split(':', 1)[0] if rec[5].startswith('raised') else rec[5][:60]}"
        reasons[key] = reasons.get(key, 0) + 1
    rounds = {}
    for rec in items:
        n, ns = rounds.get(rec[0], (0, 0))
        rounds[rec[0]] = (n + 1, ns + rec[3])
    return {
        "attempted": len(items),
        "failed": len(failed),
        "latencies_ms": lat_ms,
        "round_items_per_s": [n / (ns / 1e9) for n, ns in rounds.values()],
        "failure_reasons": reasons,
    }


def measure(workload: str, seed: int, seconds: int, env: dict) -> tuple:
    spec = WORKLOADS[workload]
    problems = []
    samples = {"setup_s": [], "cli_cold_s": [], "cli_exit_codes": []}
    cli_cmd = [sys.executable, "-c", "import sys; from g2lab.cli import main; sys.exit(main())"] + spec["cli"]

    def setup_probe():
        start = monotonic_ns()
        probe = worker(env, workload, seed, "setup")
        samples["setup_s"].append((probe["setup_done_ns"] - start) / 1e9)
        problems.extend(f"set-up: {p}" for p in probe["setup_problems"])

    def cli_run():
        start = time.perf_counter()
        proc = run_child(cli_cmd, env)
        samples["cli_cold_s"].append(time.perf_counter() - start)
        samples["cli_exit_codes"].append(proc.returncode)
        if proc.returncode != 0:
            problems.append(f"g2lab {' '.join(spec['cli'])} exited {proc.returncode}")

    # The set-up probes and CLI runs are spread over the stream, those due
    # after each round, so that every metric samples the whole run: the speed
    # of a shared machine drifts on a scale of seconds.
    runs = [((i + 0.5) / spec["cli_runs"], cli_run) for i in range(spec["cli_runs"])]
    runs += [((i + 0.5) / spec["setup_probes"], setup_probe) for i in range(spec["setup_probes"])]
    pending = [run for _pos, run in sorted(runs, key=lambda r: r[0])]
    n_extra = len(pending)

    start = monotonic_ns()
    with ServedStream(env, workload, seed) as stream:
        head = stream.read()
        samples["setup_s"].append((head["setup_done_ns"] - start) / 1e9)
        problems += [f"set-up: {p}" for p in head["setup_problems"]]
        problems += [f"reference: {p}" for p in stream.read()["reference_problems"]]
        rounds, stream_s = 0, 0.0
        while rounds < MIN_ROUNDS or stream_s < seconds:
            t0 = time.perf_counter()
            stream.round()
            stream_s += time.perf_counter() - t0
            rounds += 1
            while pending and stream_s >= seconds * (n_extra - len(pending)) / n_extra:
                pending.pop(0)()
        for run in pending:
            run()
        out = stream.finish()

    items = out["items"]
    st = stream_stats(items)
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        # a mean for the same reason as items_per_s: in six ten-seed batches
        # it moved less between runs than the median or the lower quartile
        "cli_cold_s": statistics.mean(samples["cli_cold_s"]),
        # over the whole stream: the machine's speed drifts on a scale of
        # seconds, and a total follows the drift linearly where a median of
        # rounds jumps between fast and slow rounds
        "items_per_s": st["attempted"] / (sum(rec[3] for rec in items) / 1e9),
        "item_tail_ms": percentile(st["latencies_ms"], spec["tail"]),
        "pass_rate": 1 - st["failed"] / st["attempted"],
        "peak_rss_mb": out["peak_rss_kb"] / 1024,
    }
    record = {
        "samples": {**samples, "round_items_per_s": st["round_items_per_s"]},
        # recorded, not gated: its run-to-run spread exceeds the widest bound
        "item_p50_ms": statistics.median(st["latencies_ms"]),
        "tail_percentile": spec["tail"],
        "items_beyond_tail": sum(v > metrics["item_tail_ms"] for v in st["latencies_ms"]),
        "fail_rate": st["failed"] / st["attempted"],
        "failure_reasons": st["failure_reasons"],
        "composition": out["composition"],
        "rounds": rounds,
        "versions": out["versions"],
        "items": items,
    }
    return metrics, st, problems, record


def measure_traced(workload: str, seed: int, env: dict) -> tuple:
    rounds = WORKLOADS[workload]["trace_rounds"]
    plain = worker(env, workload, seed, "stream", rounds=rounds)
    traced = worker(env, workload, seed, "trace", rounds=rounds)
    problems = [f"reference: {p}" for p in plain["reference_problems"] + traced["reference_problems"]]
    if [rec[1:3] + rec[4:] for rec in plain["items"]] != [rec[1:3] + rec[4:] for rec in traced["items"]]:
        problems.append("traced and untraced runs gave different verdicts")

    def throughput(out):
        return len(out["items"]) / (sum(rec[3] for rec in out["items"]) / 1e9)

    st = stream_stats(traced["items"])
    trace = traced["trace"]
    metrics = {name: value for name, (value, _unit) in trace["metrics"].items()}
    units = {name: unit for name, (_value, unit) in trace["metrics"].items()}
    record = {
        "rounds": rounds,
        "untraced_items_per_s": throughput(plain),
        "traced_items_per_s": throughput(traced),
        "tracing_overhead": throughput(plain) / throughput(traced) - 1,
        "fail_rate": st["failed"] / st["attempted"],
        "untraced_fail_rate": stream_stats(plain["items"])["failed"] / len(plain["items"]),
        "failure_reasons": st["failure_reasons"],
        "per_kind": trace["per_kind"],
        "setup_phase": trace["setup_phase"],
        "spans_file": trace["spans_file"],
        "spans": trace["spans"],
        "wrapped_bindings": trace["wrapped_bindings"],
        "composition": traced["composition"],
        "versions": traced["versions"],
    }
    return metrics, units, st, problems, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="g2lab benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in ("src/g2lab/__init__.py", "examples_g2/bryant.g2") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a g2lab checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    env = child_env()
    # compile the package's bytecode once, untimed, so no timed process pays for it
    run_child([sys.executable, "-c", "import g2lab, g2lab.cli"], env)
    try:
        if args.trace:
            metrics, units, st, problems, record = measure_traced(args.workload, args.seed, env)
        else:
            metrics, st, problems, record = measure(args.workload, args.seed, args.seconds, env)
            units = UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform()},
        "git_commit": git_commit(),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "correct": not problems,
        "problems": problems,
        **record,
    }
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    path = runs / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({record['git_commit'] or 'no git commit'})")
    for name, v in metrics.items():
        if not args.trace or v:
            print(f"  {name:<48} {v:.6g} {units[name]}")
    print(f"  attempted {st['attempted']}  failed {st['failed']}  fail_rate {st['failed'] / st['attempted']:.4f}")
    for reason, count in sorted(st["failure_reasons"].items(), key=lambda kv: -kv[1]):
        print(f"    {count:5d} x {reason}")
    if args.trace:
        print(f"  tracing overhead {record['tracing_overhead']:+.1%} on items_per_s")
        for kind, info in record["per_kind"].items():
            counts = [f"{n} {info['calls_per_item'][n]:g}" for n in REDUNDANCY_PROBES if n in info["calls_per_item"]]
            print(f"  per {kind} item: {', '.join(counts) or 'none of the rebuilt stages'}")
    else:
        print(f"  tail percentile p{record['tail_percentile']} ({record['items_beyond_tail']} items beyond)")
        print(f"  item_p50_ms {record['item_p50_ms']:.6g} ms (recorded, not in BENCHMARK.json)")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": st["attempted"],
                "failed": st["failed"],
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
