"""Layered benchmark of the module area estimator: three workloads, one
per end-to-end path, each repeat in a fresh process.

    python3 perfbench/run.py --workload {oneshot,eco,serve,all}
                             --seed N --seconds S --trace {0,1}

The harness writes the workload's seeded inputs (and prints their
digest), then runs fixed-size repeats in fresh worker processes, as
many as take about ``--seconds`` (a count fixed by the arguments), and
reports medians over repeats and percentiles over the pooled samples.
With ``--trace 1`` repeats alternate untraced and traced; the traced
ones give the per-layer numbers, the untraced ones the baseline for the
residual and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero
when any output check fails or the server does not shut down cleanly.
See ``perfbench/README.md`` for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from common import (
    ROOT,
    child_env,
    nearest_rank,
    rank,
    tail_fraction,
    use_source_tree,
)

WORKLOADS = ("oneshot", "eco", "serve")
#: Seconds one repeat takes on the 2-core host the benchmark was built
#: on.  A run makes ``--seconds / REPEAT_S`` repeats (rounds of one
#: untraced and one traced repeat with ``--trace 1``): a count fixed by
#: the arguments, not by the clock, so every run with the same
#: arguments attempts the same operations and meets the same failures.
REPEAT_S = {"oneshot": 5.0, "eco": 1.8, "serve": 22.0}
#: Rounds every run makes, however short ``--seconds`` is.
MIN_ROUNDS = {"oneshot": 3, "eco": 3, "serve": 2}
MIN_TRACED_ROUNDS = 1
#: No new repeat starts after this many seconds, so a run on a much
#: slower program still ends inside the three minutes it is allowed.
HARD_STOP_S = 120.0
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "max_rate_rps": "1/s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units, read from the traced repeats.
PER_LAYER = {
    "netlist.parse.ms_per_op": "ms",
    "netlist.parse.kb_per_s": "kB/s",
    "netlist.parse.count": "count",
    "netlist.parse.p95_tail_share": "ratio",
    "netlist.stats.ms_per_op": "ms",
    "core.estimator.self_ms_per_op": "ms",
    "core.estimator.count": "count",
    "core.standard_cell.us_per_op": "us",
    "core.full_custom.ms_per_op": "ms",
    "perf.kernels.hit_rate": "ratio",
    "perf.kernels.misses": "count",
    "perf.kernels.triangle_cells": "count",
    "incremental.apply.us_per_op": "us",
    "incremental.apply.count": "count",
    "incremental.estimate_rows.self_us_per_op": "us",
    "incremental.statistics.us_per_op": "us",
    "perf.plan.get_plan.us_per_op": "us",
    "perf.plan.evaluate_rows.us_per_op": "us",
    "perf.plan.hit_rate": "ratio",
    "perf.plan.entries": "count",
    "service.server.session_estimate_ms": "ms",
    "service.server.session_edits_ms": "ms",
    "service.server.batch_estimate_ms": "ms",
    "service.server.create_session_ms": "ms",
    "service.client.base_ms": "ms",
    "service.transport_ms": "ms",
    "service.transport_share": "ratio",
    "service.transport_closed_loop_ms": "ms",
    "service.engine.dispatch_ms": "ms",
    "service.engine.coalesced_share": "ratio",
    "service.rejected_share": "ratio",
    "service.requests.count": "count",
    "serve.generator_lateness_ms": "ms",
    "trace.residual_ms_per_op": "ms",
    "trace.overhead_ms_per_op": "ms",
}

_SCALE = {"ms": 1e3, "us": 1e6}


class BenchmarkError(RuntimeError):
    """A repeat crashed or timed out: no result can be reported."""


def run_repeat(workload: str, work: Path, traced: bool) -> dict:
    """One repeat in a fresh worker process.  The worker runs in a
    process group of its own, so the server a ``serve`` worker spawns
    is killed with it if it hangs."""
    output = work / f"result-{time.monotonic_ns()}.json"
    worker = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
         str(work), "1" if traced else "0", str(output)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} repeat timed out") from exc
    finally:
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass                       # the group has already exited
        worker.wait()
    if worker.returncode != 0 or not output.exists():
        raise BenchmarkError(
            f"{workload} repeat exited with {worker.returncode}:\n"
            f"{stderr[-4000:]}"
        )
    result = json.loads(output.read_text())
    output.unlink()
    ops = result["ops"]
    result.setdefault("attempted", len(ops))
    result.setdefault("op_s", sum(latency for latency, _ in ops))
    result.setdefault("op_count", len(ops))
    busy = sum(latency for latency, _ in ops)
    result.setdefault("throughput", sum(ok for _, ok in ops) / busy)
    # A closed loop's highest sustainable arrival rate is the rate it
    # completes attempts at.
    result.setdefault("max_rate_rps", len(ops) / busy)
    result["failed"] = sum(result["failures"].values())
    return result


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    from workload_inputs import digest, write_inputs

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    try:
        write_inputs(workload, work, seed)
        inputs = digest(work)
        kinds = (False, True) if traced else (False,)
        minimum = MIN_TRACED_ROUNDS if traced else MIN_ROUNDS[workload]
        rounds = max(minimum,
                     round(seconds / (REPEAT_S[workload] * len(kinds))))
        repeats: List[dict] = []
        start = time.perf_counter()
        for index in range(rounds):
            if index >= minimum and time.perf_counter() - start > HARD_STOP_S:
                break
            for kind in kinds:
                result = run_repeat(workload, work, kind)
                result["traced"] = kind
                repeats.append(result)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return {"workload": workload, "seed": seed, "digest": inputs,
            "repeats": repeats, "elapsed_s": elapsed}


def end_to_end(repeats: List[dict]) -> Dict[str, dict]:
    latencies = [latency for r in repeats for latency, _ in r["ops"]]
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    fraction = tail_fraction(len(latencies))
    values = {
        "throughput": (statistics.median(r["throughput"] for r in repeats),
                       len(repeats)),
        "latency_p50_ms": (1e3 * nearest_rank(latencies, 0.5),
                           len(latencies)),
        "latency_p95_ms": (1e3 * nearest_rank(latencies, fraction),
                           len(latencies)),
        "max_rate_rps": (statistics.median(r["max_rate_rps"] for r in repeats),
                         len(repeats)),
        "success_rate": ((attempted - failed) / attempted, attempted),
        "setup_s": (statistics.median(r["setup_s"] for r in repeats),
                    len(repeats)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in repeats),
                        len(repeats)),
    }
    metrics = {name: {"value": value, "unit": END_TO_END[name],
                      "samples": samples}
               for name, (value, samples) in values.items()}
    metrics["latency_p95_ms"]["percentile"] = fraction
    metrics["latency_p95_ms"]["beyond"] = (
        len(latencies) - rank(len(latencies), fraction))
    return metrics


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, dict]:
    layers: Dict[str, Dict[str, float]] = {}
    for repeat in traced:
        for name, layer in repeat.get("layers", {}).items():
            total = layers.setdefault(name, {"count": 0, "self_s": 0.0})
            total["count"] += layer["count"]
            total["self_s"] += layer["self_s"]

    def per_op(name: str, unit: str) -> float:
        layer = layers.get(name)
        if not layer or not layer["count"]:
            return 0.0
        return _SCALE[unit] * layer["self_s"] / layer["count"]

    def count(name: str) -> float:
        return layers.get(name, {}).get("count", 0) / len(traced)

    def counter(name: str) -> float:
        return statistics.mean(r.get("counters", {}).get(name, 0.0)
                               for r in traced)

    def mean_op(repeats: List[dict]) -> float:
        return (sum(r["op_s"] for r in repeats)
                / sum(r["op_count"] for r in repeats))

    hits, misses = counter("kernel_hits"), counter("kernel_misses")
    layer_s = sum(layer["self_s"] for layer in layers.values())
    traced_ops = sum(r["op_count"] for r in traced)
    client = counter("client_base_ms")
    values = {
        "netlist.parse.ms_per_op": per_op("netlist.parse", "ms"),
        "netlist.parse.kb_per_s": counter("parse_kb_per_s"),
        "netlist.parse.count": count("netlist.parse"),
        "netlist.parse.p95_tail_share": counter("parse_tail_share"),
        "netlist.stats.ms_per_op": per_op("netlist.stats", "ms"),
        "core.estimator.self_ms_per_op": per_op("core.estimator", "ms"),
        "core.estimator.count": count("core.estimator"),
        "core.standard_cell.us_per_op": per_op("core.standard_cell", "us"),
        "core.full_custom.ms_per_op": per_op("core.full_custom", "ms"),
        "perf.kernels.hit_rate": hits / max(1, hits + misses),
        "perf.kernels.misses": misses,
        "perf.kernels.triangle_cells": counter("triangle_cells"),
        "incremental.apply.us_per_op": per_op("incremental.apply", "us"),
        "incremental.apply.count": count("incremental.apply"),
        "incremental.estimate_rows.self_us_per_op":
            per_op("incremental.estimate_rows", "us"),
        "incremental.statistics.us_per_op":
            per_op("incremental.statistics", "us"),
        "perf.plan.get_plan.us_per_op": per_op("perf.plan.get_plan", "us"),
        "perf.plan.evaluate_rows.us_per_op":
            per_op("perf.plan.evaluate_rows", "us"),
        "perf.plan.hit_rate": counter("plan_hit_rate"),
        "perf.plan.entries": counter("plan_entries"),
        "service.server.session_estimate_ms":
            counter("server_session_estimate"),
        "service.server.session_edits_ms": counter("server_session_edits"),
        "service.server.batch_estimate_ms": counter("server_batch_estimate"),
        "service.server.create_session_ms": counter("server_create_session"),
        "service.client.base_ms": client,
        "service.transport_ms": counter("transport_base_ms"),
        "service.transport_share":
            counter("transport_base_ms") / client if client else 0.0,
        "service.transport_closed_loop_ms":
            counter("transport_closed_loop_ms"),
        "service.engine.dispatch_ms": counter("dispatch_ms"),
        "service.engine.coalesced_share": counter("coalesced_share"),
        "service.rejected_share": counter("rejected_share"),
        "service.requests.count": count("service.server"),
        "serve.generator_lateness_ms": counter("generator_lateness_ms"),
        "trace.residual_ms_per_op":
            1e3 * (mean_op(untraced) - layer_s / traced_ops),
        "trace.overhead_ms_per_op":
            1e3 * (mean_op(traced) - mean_op(untraced)),
    }
    return {name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in values.items()}


def summarize(run: dict, traced: bool) -> dict:
    repeats = run["repeats"]
    untraced = [r for r in repeats if not r["traced"]]
    traced_repeats = [r for r in repeats if r["traced"]]
    counted = traced_repeats if traced else untraced
    mismatches = [m for r in repeats for m in r["mismatches"]]
    failures: Dict[str, int] = {}
    for repeat in counted:
        for name, number in repeat["failures"].items():
            failures[name] = failures.get(name, 0) + number
    summary = {
        "workload": run["workload"], "digest": run["digest"],
        "seed": run["seed"], "elapsed_s": run["elapsed_s"],
        "repeats": len(untraced), "traced_repeats": len(traced_repeats),
        "correct": not mismatches, "mismatches": mismatches,
        "checked": sum(r["checked"] for r in repeats),
        "attempted": sum(r["attempted"] for r in counted),
        "failed": sum(r["failed"] for r in counted),
        "failures": failures,
        "end_to_end": end_to_end(untraced),
        "steps": [(r["closed_loop"], r["steps"]) for r in untraced
                  if "steps" in r],
        "parse_by_kind": [r["counters"]["parse_by_kind"]
                          for r in traced_repeats
                          if "parse_by_kind" in r.get("counters", {})],
    }
    if traced:
        summary["per_layer"] = per_layer(untraced, traced_repeats)
    return summary


def report(summary: dict) -> None:
    """Human-readable lines: every metric by name, unit and samples."""
    print(f"== {summary['workload']}  seed {summary['seed']}  inputs sha256 "
          f"{summary['digest']}")
    print(f"   {summary['repeats']} untraced + {summary['traced_repeats']} "
          f"traced repeats, each in a fresh process, "
          f"{summary['elapsed_s']:.1f} s")
    for name, metric in summary["end_to_end"].items():
        extra = ""
        if "percentile" in metric:
            extra = (f", p{100 * metric['percentile']:g} with "
                     f"{metric['beyond']} beyond")
        print(f"   {name:<16} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"(n={metric['samples']}{extra})")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"   error_rate       {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} failed: {summary['failures'] or 'none'})")
    print(f"   output checks: {summary['checked']} checked, "
          f"{len(summary['mismatches'])} mismatched")
    for mismatch in summary["mismatches"][:10]:
        print(f"     MISMATCH {mismatch}")
    for index, (closed, steps) in enumerate(summary["steps"]):
        print(f"   repeat {index}: closed loop {closed['requests']} requests "
              f"at {closed['throughput']:.1f}/s, "
              f"p50 {closed['p50_ms']:.1f} ms")
        for s in steps:
            print(f"     {s['rate']:>5} req/s: "
                  f"{'pass' if s['passed'] else 'FAIL'}"
                  f"{'' if s['valid'] else ' (invalid: generator late)'}  "
                  f"p50 {s['p50_ms']:.1f} ms  p95 {s['p95_ms']:.1f} ms "
                  f"(from due)  achieved {s['achieved_rps']:.1f}/s  "
                  f"backlog {s['backlog_first']:.1f}->{s['backlog_last']:.1f}"
                  f"  generator late p95 {s['lateness_p95_ms']:.2f} ms")
    for by_kind in summary["parse_by_kind"][:1]:
        for kind, (ops, total, slowest, size) in sorted(by_kind.items()):
            print(f"   parse {kind:<12} {ops:>3} files, mean "
                  f"{1e3 * total / ops:7.1f} ms, slowest {1e3 * slowest:7.1f}"
                  f" ms at {size} devices")
    for name, metric in summary.get("per_layer", {}).items():
        print(f"   {name:<42} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    # A terminated run still unwinds, so its workers are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    traced = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for workload in workloads:
            run = run_workload(workload, args.seed, args.seconds, traced)
            summaries.append(summarize(run, traced))
            report(summaries[-1])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    key = "per_layer" if traced else "end_to_end"
    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        for name, metric in summary[key].items():
            metrics[prefix + name] = {"value": metric["value"],
                                      "unit": metric["unit"]}
    correct = all(summary["correct"] for summary in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
