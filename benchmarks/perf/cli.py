"""Command line: one workload in this process, all of them, or a comparison."""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

import numpy as np

from . import schema
from .compare import compare_files
from .engine import (
    FLUSH_POLICY,
    REPO_ROOT,
    WRITE_CLOCK,
    RunResult,
    Scratch,
    run_ingest,
    run_query,
)
from .spans import merge_exports, write_chrome_trace

DEFAULT_SEED = 12
QUICK_SECONDS = 1.0
QUICK_BATCHES = 160
FULL_BATCHES = 800
#: ``loadgen`` (generator plus answer checks) may take at most this share
#: of a traced timed phase.
LOADGEN_BUDGET = 0.10
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def execute(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> RunResult:
    n_batches = QUICK_BATCHES if quick else FULL_BATCHES
    WRITE_CLOCK.install()
    scratch = Scratch()
    try:
        if workload == "ingest":
            return run_ingest(scratch, seed, seconds, n_batches, trace)
        if workload == "query-hot":
            return run_query(scratch, seed, seconds, n_batches, trace, cold=False)
        if workload == "query-cold":
            return run_query(scratch, seed, seconds, n_batches, trace, cold=True)
        if workload == "wire-mixed":
            from .wire import run_wire

            return run_wire(scratch, seed, seconds, n_batches, trace)
        raise SystemExit(f"unknown workload {workload!r}")
    finally:
        scratch.close()


def layer_metrics(workload: str, result: RunResult) -> Dict[str, float]:
    """Every declared per-layer metric (0 where the layer idled) from a
    traced run, after the trace self-check."""
    export = result.trace_export
    assert export is not None
    totals = export["totals"]
    missing = [
        name for name in schema.EXPECTED_SPANS[workload] if totals.get(name, [0, 0])[1] <= 0
    ]
    if missing:
        raise SystemExit(
            f"trace self-check failed on {workload}: no calls recorded for "
            f"{', '.join(missing)} (renamed in src/? see benchmarks/perf/spans.py)"
        )
    wall = result.info["traced_wall_s"]
    loadgen_s = totals["loadgen"][0] / 1e9
    if loadgen_s > LOADGEN_BUDGET * wall:
        raise SystemExit(
            f"trace self-check failed on {workload}: loadgen took {loadgen_s:.3f} s "
            f"of a {wall:.3f} s timed phase (budget {LOADGEN_BUDGET:.0%})"
        )
    metrics: Dict[str, float] = {}
    for name in schema.SPAN_NAMES:
        self_ns, calls = totals.get(name, [0, 0])
        metrics[f"{name}.self_s"] = self_ns / 1e9
        metrics[f"{name}.calls"] = float(calls)
    for name, _, _ in schema.COUNTERS:
        metrics[name] = float(result.metrics.get(name, 0.0))
    return metrics


def result_line(result: RunResult, metrics: Dict[str, float]) -> Dict[str, Any]:
    return {
        "correct": result.ledger.failed == 0,
        "attempted": result.ledger.attempted,
        "failed": result.ledger.failed,
        "metrics": {
            name: {"value": value, "unit": schema.UNITS[name]}
            for name, value in metrics.items()
        },
    }


def one_main(argv: Optional[List[str]] = None) -> int:
    """``run.py --workload W --seed N --seconds S --trace 0|1``: the form
    ``BENCHMARK.json`` declares.  The last line printed is the result."""
    parser = argparse.ArgumentParser(prog="run.py", description=one_main.__doc__)
    parser.add_argument("--workload", required=True, choices=[n for n, _ in schema.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(schema.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small dataset (smoke test)")
    parser.add_argument("--detail-out", help="write rounds, sample counts and info as JSON")
    parser.add_argument("--trace-out", help="write spans as Chrome-trace JSON (--trace 1)")
    args = parser.parse_args(argv)
    schema.check_names()

    result = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    metrics = layer_metrics(args.workload, result) if args.trace else result.metrics
    if args.trace_out and result.trace_export is not None:
        export = result.trace_export
        merged = export if "processes" in export else merge_exports([export])
        write_chrome_trace(args.trace_out, merged)
    if args.detail_out:
        with open(args.detail_out, "w") as out:
            json.dump({"rounds": result.rounds, "info": result.info}, out)
    line = result_line(result, metrics)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# flush policy: {FLUSH_POLICY}")
    for name, entry in line["metrics"].items():
        print(f"{name:44s} {entry['value']:>18.6f} {entry['unit']}")
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# All workloads, one result file
# ----------------------------------------------------------------------
def header(seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "hostname": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "flush_policy": FLUSH_POLICY,
    }


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
              trace_out: Optional[str]) -> Dict[str, Any]:
    """Run one workload in its own process (``peak_rss_mb`` is per
    process) and return its result line plus the detail file."""
    with tempfile.TemporaryDirectory() as tmp:
        detail_path = os.path.join(tmp, "detail.json")
        command = [
            sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--detail-out", detail_path,
        ]
        if quick:
            command.append("--quick")
        if trace and trace_out:
            stem, ext = os.path.splitext(trace_out)
            command += ["--trace-out", f"{stem}.{workload}{ext or '.json'}"]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"workload {workload} (trace={trace}) failed")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        with open(detail_path) as f:
            line.update(json.load(f))
        return line


def run_main(args: argparse.Namespace) -> int:
    schema.check_names()
    names = [args.workload] if args.workload else [n for n, _ in schema.WORKLOADS]
    seconds = QUICK_SECONDS if args.quick else float(schema.RUN_SECONDS)
    document: Dict[str, Any] = {"header": header(args.seed, seconds, args.quick), "workloads": {}}
    for workload in names:
        plain = run_child(workload, args.seed, seconds, 0, args.quick, None)
        entry: Dict[str, Any] = {
            "correct": plain["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "samples": plain["info"].get("samples", {}),
            "info": plain["info"],
            "end_to_end": {
                name: {**value, "rounds": plain["rounds"].get(name, [])}
                for name, value in plain["metrics"].items()
            },
        }
        if args.trace:
            traced = run_child(workload, args.seed, seconds, 1, args.quick, args.trace_out)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["per_layer"] = traced["metrics"]
            entry["traced_samples"] = traced["info"].get("samples", {})
        document["workloads"][workload] = entry
        print(f"== {workload}: attempted {entry['attempted']}, failed {entry['failed']}")
        for section in ("end_to_end", "per_layer"):
            for name, value in entry.get(section, {}).items():
                print(f"{workload:11s} {name:44s} {value['value']:>18.6f} {value['unit']}")
    if args.out:
        with open(args.out, "w") as out:
            json.dump(document, out, indent=1)
            out.write("\n")
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--workload", choices=[n for n, _ in schema.WORKLOADS])
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--trace", action="store_true", help="add a traced run (per-layer metrics)")
    run.add_argument("--trace-out", help="Chrome-trace file stem; one file per workload")
    run.add_argument("--out", help="write the result file here")
    run.add_argument("--quick", action="store_true", help="~1 s timed phases, small dataset")
    compare = commands.add_parser(
        "compare", help="judge result file(s) B against A; comma-separate several runs per side"
    )
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_main(args)
    return compare_files(args.a.split(","), args.b.split(","))
