"""Perf-trajectory harness for the batch estimation engine.

Every PR that touches a hot path should leave a machine-readable mark.
This harness times three workloads —

* the Table 1 suite (full-custom, both device-area modes),
* the Table 2 suite (standard-cell, the tabulated row counts),
* a large synthetic sweep (>= 50 generated modules x 8 row counts,
  the floorplan-iteration regime the batch engine exists for)

— under several execution paths:

* **seed serial**: one estimator call per (module, config) with kernel
  memoization disabled, re-scanning the schematic every call — the
  repository's original behaviour;
* **batch**: :func:`repro.perf.batch.estimate_batch`, kernel caches
  warm — isolates the caching/scan-sharing win;
* **direct**: scan once per module, then
  ``estimate_standard_cell_from_stats`` per row count — the PR 1
  reference the compiled-plan path is measured against;
* **plan**: compile one :class:`~repro.perf.plan.EstimationPlan`
  per module and ``evaluate`` it per row count;
* **eco rebuild / eco incremental**: a 50-edit ECO sequence against a
  moderate module, estimated after every edit — once by rescanning the
  netlist from scratch per edit, once through the
  :class:`~repro.incremental.IncrementalEstimator` delta path
  (``incremental_vs_rebuild`` is the headline ECO speedup);
* **serve load**: a live in-process ``mae serve`` under 50 concurrent
  sessions (6 in smoke) of mixed estimate / multi-row / ECO-edit
  traffic from :mod:`repro.service.loadtest` — the record's ``serve``
  section carries p50/p99 request latency, sustained estimates/sec,
  the deferred bit-identity tally, and the clean-shutdown flag.

It asserts all paths produce bit-identical estimates, captures
kernel-cache hit rates, plan-cache and Stirling-triangle statistics,
and writes everything to ``BENCH_batch_engine.json`` (schema-validated,
so a malformed trajectory file fails fast instead of silently polluting
the record).

Run it via ``mae bench``, the ``mae-bench`` console script, or
``python benchmarks/run_benchmarks.py``; ``--smoke`` keeps CI fast.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom_both
from repro.core.standard_cell import (
    estimate_standard_cell,
    estimate_standard_cell_from_stats,
)
from repro.errors import BenchmarkError
from repro.netlist.model import Module
from repro.netlist.stats import scan_module
from repro.obs.metrics import get_registry
from repro.perf.batch import estimate_batch
from repro.perf.kernels import caches_disabled, clear_kernel_caches
from repro.perf.plan import clear_plan_cache, compile_plan
from repro.reporting import render_table
from repro.technology.libraries import nmos_process
from repro.technology.process import ProcessDatabase
from repro.workloads.generators import (
    adder_module,
    counter_module,
    decoder_module,
    lfsr_module,
    mux_tree_module,
    random_gate_module,
    register_file_module,
)
from repro.workloads.suites import table1_suite, table2_suite

SCHEMA_VERSION = 10
BENCH_NAME = "batch_engine"
DEFAULT_OUTPUT = "BENCH_batch_engine.json"

#: Floorplan-race phase: design size (smoke / full) and the per-design
#: step budget.  The acceptance gate is >= 3x modules/sec for the
#: portfolio engine over the serial rescan loop at 1000 modules.
PORTFOLIO_MODULES = 1000
PORTFOLIO_MODULES_SMOKE = 48

#: Row counts for the synthetic sweep: 8 counts, the Table 2 ballpark.
SWEEP_ROW_COUNTS: Tuple[int, ...] = tuple(range(2, 10))

#: The ECO phase: edits applied to the workload module, one estimate
#: per edit (the acceptance target is >= 3x over rebuild-per-edit).
ECO_EDIT_COUNT = 50
ECO_GATES = 400

#: The serve phase: concurrent sessions and sustained-load seconds
#: (full run / smoke).  50 sessions is the service's acceptance bar.
SERVE_SESSIONS = 50
SERVE_SESSIONS_SMOKE = 6
SERVE_DURATION = 3.0
SERVE_DURATION_SMOKE = 1.0


# ----------------------------------------------------------------------
# synthetic workload
# ----------------------------------------------------------------------
def synthetic_sweep_modules(count: int = 50, seed: int = 7) -> List[Module]:
    """A deterministic mixed-family population of gate-level modules.

    Cycles through every workload generator family so the sweep covers
    local datapaths, global control logic, and the stress cases
    (LFSR feedback nets, register-file fan-out); sizes grow with the
    module index so the population spans small to moderate modules,
    like the paper's suites.
    """
    if count < 1:
        raise BenchmarkError(f"module count must be >= 1, got {count}")
    modules: List[Module] = []
    for index in range(count):
        scale = index // 8  # grows every full cycle through the families
        family = index % 8
        name = f"sweep_{index:03d}"
        if family == 0:
            modules.append(random_gate_module(
                name, gates=40 + 12 * scale, inputs=6 + scale,
                outputs=4 + scale, seed=seed + index, locality=0.8,
            ))
        elif family == 1:
            modules.append(random_gate_module(
                name, gates=30 + 10 * scale, inputs=8 + scale,
                outputs=6, seed=seed + index, locality=0.2,
            ))
        elif family == 2:
            modules.append(adder_module(name, bits=8 + 4 * scale))
        elif family == 3:
            modules.append(counter_module(name, bits=8 + 4 * scale))
        elif family == 4:
            modules.append(decoder_module(name, address_bits=3 + scale % 3))
        elif family == 5:
            modules.append(mux_tree_module(name, select_bits=3 + scale % 3))
        elif family == 6:
            modules.append(lfsr_module(name, bits=8 + 6 * scale))
        else:
            modules.append(register_file_module(
                name, words=4 + scale, bits=4 + scale,
            ))
    return modules


# ----------------------------------------------------------------------
# the bench itself
# ----------------------------------------------------------------------
def run_bench(
    module_count: int = 50,
    row_counts: Sequence[int] = SWEEP_ROW_COUNTS,
    process: Optional[ProcessDatabase] = None,
    smoke: bool = False,
    portfolio_modules: Optional[int] = None,
) -> dict:
    """Run every phase and return the trajectory record (a JSON-ready
    dict; see :func:`validate_bench_record` for the schema).

    ``portfolio_modules`` sizes the floorplan-race design (default:
    48 under ``smoke``, 1000 otherwise — CI's smoke gate passes 1000
    explicitly so the committed speedup claim is always measured at
    the acceptance scale)."""
    if smoke:
        module_count = min(module_count, 8)
        row_counts = tuple(row_counts)[:3]
    if portfolio_modules is None:
        portfolio_modules = (
            PORTFOLIO_MODULES_SMOKE if smoke else PORTFOLIO_MODULES
        )
    if portfolio_modules < 2:
        raise BenchmarkError(
            f"portfolio module count must be >= 2, got {portfolio_modules}"
        )
    row_counts = tuple(row_counts)
    process = process or nmos_process()
    phases: List[dict] = []
    equivalence: Dict[str, bool] = {}

    def timed(name: str, items: int, func):
        start = time.perf_counter()
        value = func()
        seconds = time.perf_counter() - start
        phases.append(
            {"name": name, "seconds": seconds, "items": items}
        )
        return value

    # ---- Table 1 suite: full-custom, both device-area modes ----------
    t1_cases = table1_suite()
    t1_modules = [case.module for case in t1_cases]

    def t1_seed():
        with caches_disabled():
            results = []
            for module in t1_modules:
                exact, average = estimate_full_custom_both(module, process)
                results.extend((exact, average))
            return results

    def t1_batch():
        config = EstimatorConfig()
        batch = estimate_batch(
            t1_modules,
            process,
            [config.with_(device_area_mode="exact"),
             config.with_(device_area_mode="average")],
            methodologies=("full-custom",),
        )
        return [result.estimate for result in batch]

    clear_kernel_caches()
    t1_seed_estimates = timed("table1_seed_serial", 2 * len(t1_modules),
                              t1_seed)
    t1_batch_estimates = timed("table1_batch_jobs1", 2 * len(t1_modules),
                               t1_batch)
    equivalence["table1"] = t1_seed_estimates == t1_batch_estimates

    # ---- Table 2 suite: standard-cell at the tabulated row counts ----
    t2_cases = table2_suite()
    t2_items = sum(len(case.row_counts) for case in t2_cases)

    def t2_seed():
        with caches_disabled():
            return [
                estimate_standard_cell(
                    case.module, process, EstimatorConfig(rows=row_count)
                )
                for case in t2_cases
                for row_count in case.row_counts
            ]

    def t2_batch():
        batch = estimate_batch(
            [case.module for case in t2_cases],
            process,
            [[EstimatorConfig(rows=row_count)
              for row_count in case.row_counts] for case in t2_cases],
            methodologies=("standard-cell",),
        )
        return [result.estimate for result in batch]

    clear_kernel_caches()
    t2_seed_estimates = timed("table2_seed_serial", t2_items, t2_seed)
    clear_kernel_caches()
    t2_batch_estimates = timed("table2_batch_jobs1", t2_items, t2_batch)
    equivalence["table2"] = t2_seed_estimates == t2_batch_estimates

    # ---- large synthetic sweep ---------------------------------------
    sweep = synthetic_sweep_modules(module_count)
    sweep_configs = [EstimatorConfig(rows=rows) for rows in row_counts]
    sweep_items = len(sweep) * len(row_counts)
    default_config = EstimatorConfig()
    # Scanned once, outside every timed phase: the plan phases below
    # start from statistics.
    sweep_stats = [
        scan_module(
            module,
            device_width=process.device_width,
            device_height=process.device_height,
            port_width=process.port_pitch,
            power_nets=default_config.power_nets,
        )
        for module in sweep
    ]

    def sweep_seed():
        # The original path: one estimator call per (module, rows),
        # re-scanning each time, no cross-call kernel memoization.
        with caches_disabled():
            return [
                estimate_standard_cell(module, process, config)
                for module in sweep
                for config in sweep_configs
            ]

    def sweep_batch():
        batch = estimate_batch(
            sweep, process, sweep_configs,
            methodologies=("standard-cell",),
        )
        return [result.estimate for result in batch]

    clear_kernel_caches()
    clear_plan_cache()
    seed_estimates = timed("synthetic_seed_serial", sweep_items, sweep_seed)
    clear_kernel_caches()
    clear_plan_cache()
    batch1_estimates = timed("synthetic_batch_jobs1", sweep_items,
                             sweep_batch)
    # The registry snapshot is the supported view of the kernel caches
    # (same shape as before, no reaching into repro.perf.kernels).
    cache_snapshot = get_registry().snapshot()["kernels"]
    equivalence["synthetic_jobs1"] = seed_estimates == batch1_estimates

    # ---- plan path vs the PR 1 direct path ---------------------------
    # Both phases reuse the one-time scan and start from cleared caches,
    # so the comparison isolates exactly what plan compilation buys:
    # frozen histogram arrays and whole-histogram kernel calls versus
    # the per-call histogram walk of estimate_standard_cell_from_stats.
    def sweep_direct():
        return [
            estimate_standard_cell_from_stats(stats, process, config)
            for stats in sweep_stats
            for config in sweep_configs
        ]

    def sweep_plan():
        estimates = []
        for stats in sweep_stats:
            plan = compile_plan(stats, process, default_config)
            estimates.extend(
                plan.evaluate(config.rows) for config in sweep_configs
            )
        return estimates

    clear_kernel_caches()
    clear_plan_cache()
    direct_estimates = timed("synthetic_direct_jobs1", sweep_items,
                             sweep_direct)
    clear_kernel_caches()
    clear_plan_cache()
    plan_estimates = timed("synthetic_plan_jobs1", sweep_items, sweep_plan)
    equivalence["synthetic_direct_jobs1"] = seed_estimates == direct_estimates
    equivalence["synthetic_plan_jobs1"] = seed_estimates == plan_estimates
    plan_snapshot = get_registry().snapshot()
    plans_section = plan_snapshot["plans"]
    triangle_section = plan_snapshot["triangle"]

    # ---- incremental ECO path vs rebuild-per-edit --------------------
    # Both paths estimate after *every* edit of the same sequence, with
    # kernel caches warm from the phases above, so the ratio isolates
    # what the delta engine buys: O(affected nets) bookkeeping plus
    # plan-cache reuse versus a full netlist rescan per edit.
    from repro.incremental.editgen import generate_edit_sequence
    from repro.incremental.engine import IncrementalEstimator

    eco_gates = 60 if smoke else ECO_GATES
    eco_edit_count = 10 if smoke else ECO_EDIT_COUNT
    eco_module = random_gate_module(
        "bench_eco", gates=eco_gates, inputs=24, outputs=16,
        seed=11, locality=0.5,
    )
    eco_edits = generate_edit_sequence(
        eco_module, eco_edit_count, seed=13,
        power_nets=default_config.power_nets,
    )

    def eco_rebuild():
        live = eco_module.copy()
        estimates = []
        for mutation in eco_edits:
            mutation.apply(live)
            stats = scan_module(
                live,
                device_width=process.device_width,
                device_height=process.device_height,
                port_width=process.port_pitch,
                power_nets=default_config.power_nets,
            )
            estimates.append(estimate_standard_cell_from_stats(
                stats, process, default_config
            ))
        return estimates

    def eco_incremental():
        engine = IncrementalEstimator(eco_module, process, default_config)
        return [engine.estimate_after(mutation) for mutation in eco_edits]

    rebuild_estimates = timed("eco_rebuild_per_edit", eco_edit_count,
                              eco_rebuild)
    incremental_estimates = timed("eco_incremental", eco_edit_count,
                                  eco_incremental)
    equivalence["eco_incremental"] = (
        rebuild_estimates == incremental_estimates
    )
    incremental_section = {
        "module_devices": eco_module.device_count,
        "edits": eco_edit_count,
    }

    # ---- serve: the live service under concurrent sessions -----------
    from repro.service.engine import EstimationEngine, ServiceConfig
    from repro.service.loadtest import run_load
    from repro.service.server import start_server

    serve_sessions = SERVE_SESSIONS_SMOKE if smoke else SERVE_SESSIONS
    serve_duration = SERVE_DURATION_SMOKE if smoke else SERVE_DURATION
    serve_server = start_server(EstimationEngine(ServiceConfig(
        max_sessions=serve_sessions + 8,
    )))
    try:
        serve_report = run_load(
            serve_server.base_url, sessions=serve_sessions,
            duration=serve_duration, seed=11,
        )
    finally:
        serve_server.stop(drain=True)
    phases.append({
        "name": "serve_load",
        "seconds": serve_report["elapsed_s"],
        "items": max(1, serve_report["estimates"]),
    })
    equivalence["serve"] = (
        not serve_report["errors"]
        and not serve_report["mismatches"]
        and serve_report["verified"] > 0
        and serve_server.stopped
    )
    serve_section = {
        "sessions": serve_report["sessions"],
        "duration_s": serve_report["duration_s"],
        "requests": serve_report["requests"],
        "estimates": serve_report["estimates"],
        "edits": serve_report["edits"],
        "rejected": serve_report["rejected"],
        "errors": len(serve_report["errors"]),
        "verified": serve_report["verified"],
        "mismatches": len(serve_report["mismatches"]),
        "p50_ms": serve_report["latency"]["p50_ms"],
        "p99_ms": serve_report["latency"]["p99_ms"],
        "estimates_per_sec": serve_report["estimates_per_sec"],
        "clean_shutdown": serve_server.stopped,
    }

    # ---- floorplan race: portfolio engine vs the serial loop ---------
    # Identical trajectories by construction (same seed, same searcher
    # code; only the estimate server differs), so the ratio isolates
    # what the compiled hot path buys: batch-prefilled plans plus
    # incremental windows versus one fresh scan-and-estimate per query.
    # A mid-run checkpoint is resumed to completion and must replay the
    # winning trajectory bit-identically.
    import tempfile

    from repro.floorplan.portfolio import (
        PortfolioConfig,
        load_checkpoint,
        run_portfolio,
    )
    from repro.workloads.designs import generate_design

    fp_design = generate_design(portfolio_modules, seed=23,
                                name="bench_chip")
    fp_steps = max(60, min(2 * portfolio_modules, 1200))
    fp_config = PortfolioConfig(
        steps=fp_steps, seed=29,
        checkpoint_every=max(1, fp_steps // 2),
        spot_checks=4,
    )
    fp_moves = fp_steps * len(fp_config.searchers)

    def floorplan_race(engine: str):
        def run():
            clear_kernel_caches()
            clear_plan_cache()
            return run_portfolio(
                fp_design, process, fp_config, engine=engine,
            )
        return run

    fp_serial = timed("floorplan_serial", fp_moves,
                      floorplan_race("serial"))
    fp_portfolio = timed("floorplan_portfolio", fp_moves,
                         floorplan_race("portfolio"))
    equivalence["floorplan_portfolio"] = (
        fp_serial.trajectory_hashes == fp_portfolio.trajectory_hashes
        and fp_serial.winner == fp_portfolio.winner
        and fp_serial.best_cost == fp_portfolio.best_cost
    )
    with tempfile.TemporaryDirectory() as fp_dir:
        fp_ckpt = os.path.join(fp_dir, "floorplan.ckpt.json")
        run_portfolio(
            fp_design, process, fp_config,
            checkpoint_path=fp_ckpt, stop_after=fp_steps // 2,
        )
        fp_resumed = run_portfolio(
            fp_design, process, fp_config,
            resume=load_checkpoint(fp_ckpt),
        )
    equivalence["floorplan_resume"] = (
        fp_resumed.trajectory_hashes == fp_portfolio.trajectory_hashes
        and fp_resumed.winner == fp_portfolio.winner
        and fp_resumed.best_rows == fp_portfolio.best_rows
    )
    # ---- congestion phase: routability-scored vs unscored sweep ------
    # Same design, same seed, same step budget; the only difference is
    # the routability term in the move cost, which prices every
    # (module, rows) probe through the plan cache's congestion memo.
    # Both sides of the gated ratio are *steady-state* runs (caches
    # left warm from a prior run of the same config), because that is
    # the regime repeated sweeps live in and it is the regime the memo
    # protects: if the per-plan congestion memo regresses, the warm
    # scored run re-prices every probe and the ratio blows straight
    # past the gate.  The one-time cold warm-up (one congestion
    # distribution per unique (module, rows) probed) is timed
    # separately as floorplan_scored_cold and not gated.
    import dataclasses as dataclasses_module

    fp_scored_config = dataclasses_module.replace(
        fp_config, routability_weight=0.8
    )

    def timed_warm(name: str, config):
        # Best-of-3 single runs: the warm sweeps finish in tens of
        # milliseconds, where single-shot wall time is noise-dominated
        # and would flap the overhead gate.  The runs are
        # deterministic, so taking the fastest repeat changes only the
        # timing, never the result.
        best = math.inf
        result = None
        for _ in range(3):
            start = time.perf_counter()
            result = run_portfolio(
                fp_design, process, config, engine="portfolio",
            )
            best = min(best, time.perf_counter() - start)
        phases.append({"name": name, "seconds": best, "items": fp_moves})
        return result

    def floorplan_scored_cold():
        clear_kernel_caches()
        clear_plan_cache()
        return run_portfolio(
            fp_design, process, fp_scored_config, engine="portfolio",
        )

    fp_unscored_warm = timed_warm("floorplan_unscored_warm", fp_config)
    fp_scored_cold = timed("floorplan_scored_cold", fp_moves,
                           floorplan_scored_cold)
    fp_scored = timed_warm("floorplan_scored", fp_scored_config)
    equivalence["floorplan_scored_determinism"] = (
        fp_scored_cold.trajectory_hashes == fp_scored.trajectory_hashes
        and fp_scored_cold.winner == fp_scored.winner
        and fp_scored_cold.best_cost == fp_scored.best_cost
    )
    equivalence["floorplan_unscored_weight_zero"] = (
        fp_unscored_warm.trajectory_hashes
        == fp_portfolio.trajectory_hashes
        and fp_unscored_warm.best_cost == fp_portfolio.best_cost
    )
    floorplan_section = {
        "modules": portfolio_modules,
        "steps": fp_steps,
        "searchers": list(fp_config.searchers),
        "winner": fp_portfolio.winner,
        "spot_checks": fp_portfolio.spot_checks,
        "serial": {
            "seconds": fp_serial.elapsed,
            "modules_per_sec": fp_serial.modules_per_sec,
            "evaluations": fp_serial.evaluations,
        },
        "portfolio": {
            "seconds": fp_portfolio.elapsed,
            "modules_per_sec": fp_portfolio.modules_per_sec,
            "evaluations": fp_portfolio.evaluations,
            "table_hits": fp_portfolio.table_hits,
        },
        "scored": {
            "seconds": fp_scored.elapsed,
            "cold_seconds": fp_scored_cold.elapsed,
            "modules_per_sec": fp_scored.modules_per_sec,
            "evaluations": fp_scored.evaluations,
            "routability_weight": fp_scored_config.routability_weight,
            "winner": fp_scored.winner,
            "best_cost": fp_scored.best_cost,
        },
    }

    timings = {phase["name"]: phase["seconds"] for phase in phases}
    speedups = {
        "table1_batch_jobs1_vs_seed": _ratio(
            timings["table1_seed_serial"], timings["table1_batch_jobs1"]
        ),
        "table2_batch_jobs1_vs_seed": _ratio(
            timings["table2_seed_serial"], timings["table2_batch_jobs1"]
        ),
        "synthetic_batch_jobs1_vs_seed": _ratio(
            timings["synthetic_seed_serial"],
            timings["synthetic_batch_jobs1"],
        ),
    }
    speedups["synthetic_plan_vs_direct_jobs1"] = _ratio(
        timings["synthetic_direct_jobs1"], timings["synthetic_plan_jobs1"]
    )
    # The headline plan number: compiled plans versus the PR 1 batch
    # engine on the same sweep (estimate_batch re-scans and
    # re-dispatches per group; the plan phase compiles once per module
    # and then only evaluates).
    speedups["synthetic_plan_vs_batch_jobs1"] = _ratio(
        timings["synthetic_batch_jobs1"], timings["synthetic_plan_jobs1"]
    )
    # The headline ECO number: delta-maintained statistics versus a
    # from-scratch rescan after every edit of the same sequence.
    speedups["incremental_vs_rebuild"] = _ratio(
        timings["eco_rebuild_per_edit"], timings["eco_incremental"]
    )
    # The headline floorplan number: the whole race, end to end, in
    # modules/sec — equal move counts, so the wall-time ratio is the
    # throughput ratio.
    speedups["floorplan_portfolio_vs_serial"] = _ratio(
        timings["floorplan_serial"], timings["floorplan_portfolio"]
    )
    # The congestion number is an *overhead*, not a speedup: scored
    # steady-state wall time over unscored steady-state wall time, so
    # 1.0 means routability pricing is free and the gate asserts an
    # upper bound.
    speedups["floorplan_scored_overhead"] = _ratio(
        timings["floorplan_scored"], timings["floorplan_unscored_warm"]
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": BENCH_NAME,
        "created_unix": time.time(),
        "smoke": smoke,
        "environment": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpu_count": os.cpu_count() or 1,
        },
        "workload": {
            "synthetic_modules": len(sweep),
            "synthetic_row_counts": list(row_counts),
            "table1_cases": len(t1_modules),
            "table2_cases": len(t2_cases),
        },
        "phases": phases,
        "speedups": speedups,
        "cache": {
            "kernels": cache_snapshot,
            "plans": plans_section,
            "triangle": triangle_section,
        },
        "incremental": incremental_section,
        "serve": serve_section,
        "floorplan": floorplan_section,
        "equivalence": equivalence,
    }


def _ratio(baseline: float, candidate: float) -> float:
    if candidate <= 0:
        return float(baseline > 0)
    return baseline / candidate


# ----------------------------------------------------------------------
# schema validation and I/O
# ----------------------------------------------------------------------
def validate_bench_record(record: dict) -> None:
    """Raise :class:`BenchmarkError` unless ``record`` is a well-formed
    trajectory record with all equivalence checks passing."""
    if not isinstance(record, dict):
        raise BenchmarkError("bench record must be a JSON object")
    if record.get("schema_version") != SCHEMA_VERSION:
        raise BenchmarkError(
            f"unsupported schema_version {record.get('schema_version')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    _require(record, "benchmark", str)
    _require(record, "created_unix", (int, float))
    _require(record, "smoke", bool)

    phases = _require(record, "phases", list)
    if not phases:
        raise BenchmarkError("phases must be non-empty")
    for phase in phases:
        if not isinstance(phase, dict):
            raise BenchmarkError(f"phase entries must be objects: {phase!r}")
        _require(phase, "name", str, context="phase")
        seconds = _require(phase, "seconds", (int, float), context="phase")
        if seconds < 0:
            raise BenchmarkError(f"phase seconds must be >= 0, got {seconds}")
        items = _require(phase, "items", int, context="phase")
        if items < 1:
            raise BenchmarkError(f"phase items must be >= 1, got {items}")

    speedups = _require(record, "speedups", dict)
    if not speedups:
        raise BenchmarkError("speedups must be non-empty")
    for name, value in speedups.items():
        if not isinstance(value, (int, float)) or value <= 0:
            raise BenchmarkError(
                f"speedup {name!r} must be a positive number, got {value!r}"
            )

    cache = _require(record, "cache", dict)
    kernels = _require(cache, "kernels", dict, context="cache")
    for name, stats in kernels.items():
        if not isinstance(stats, dict):
            raise BenchmarkError(f"cache stats for {name!r} must be objects")
        for field in ("hits", "misses", "entries", "bypasses"):
            value = _require(stats, field, int, context=f"cache[{name}]")
            if value < 0:
                raise BenchmarkError(
                    f"cache[{name}].{field} must be >= 0, got {value}"
                )
    plans = _require(cache, "plans", dict, context="cache")
    for field in ("hits", "compilations", "entries", "evaluations"):
        value = _require(plans, field, int, context="cache[plans]")
        if value < 0:
            raise BenchmarkError(
                f"cache[plans].{field} must be >= 0, got {value}"
            )
    triangle = _require(cache, "triangle", dict, context="cache")
    for field in ("depth", "limit", "extensions", "cells"):
        value = _require(triangle, field, int, context="cache[triangle]")
        if value < 0:
            raise BenchmarkError(
                f"cache[triangle].{field} must be >= 0, got {value}"
            )

    incremental = _require(record, "incremental", dict)
    for field in ("module_devices", "edits"):
        value = _require(incremental, field, int, context="incremental")
        if value < 1:
            raise BenchmarkError(
                f"incremental.{field} must be >= 1, got {value}"
            )
    if "incremental_vs_rebuild" not in _require(record, "speedups", dict):
        raise BenchmarkError(
            "speedups is missing the 'incremental_vs_rebuild' ratio"
        )

    floorplan = _require(record, "floorplan", dict)
    for field in ("modules", "steps"):
        value = _require(floorplan, field, int, context="floorplan")
        if value < 1:
            raise BenchmarkError(
                f"floorplan.{field} must be >= 1, got {value}"
            )
    _require(floorplan, "searchers", list, context="floorplan")
    _require(floorplan, "winner", str, context="floorplan")
    for engine in ("serial", "portfolio"):
        section = _require(floorplan, engine, dict, context="floorplan")
        for field in ("seconds", "modules_per_sec"):
            value = _require(section, field, (int, float),
                             context=f"floorplan[{engine}]")
            if value < 0:
                raise BenchmarkError(
                    f"floorplan[{engine}].{field} must be >= 0, "
                    f"got {value}"
                )
        evaluations = _require(section, "evaluations", int,
                               context=f"floorplan[{engine}]")
        if evaluations < 1:
            raise BenchmarkError(
                f"floorplan[{engine}].evaluations must be >= 1, "
                f"got {evaluations}"
            )
    if "floorplan_portfolio_vs_serial" not in speedups:
        raise BenchmarkError(
            "speedups is missing the 'floorplan_portfolio_vs_serial' ratio"
        )
    scored = _require(floorplan, "scored", dict, context="floorplan")
    for field in ("seconds", "cold_seconds", "modules_per_sec",
                  "routability_weight"):
        value = _require(scored, field, (int, float),
                         context="floorplan[scored]")
        if value < 0:
            raise BenchmarkError(
                f"floorplan[scored].{field} must be >= 0, got {value}"
            )
    if "floorplan_scored_overhead" not in speedups:
        raise BenchmarkError(
            "speedups is missing the 'floorplan_scored_overhead' ratio"
        )

    if "history" in record:
        history = _require(record, "history", list)
        for entry in history:
            if not isinstance(entry, dict):
                raise BenchmarkError(
                    f"history entries must be objects (prior trajectory "
                    f"records), got {type(entry).__name__}"
                )
            if "history" in entry:
                raise BenchmarkError(
                    "history entries must not nest their own history"
                )

    serve = _require(record, "serve", dict)
    for field in ("sessions", "requests", "estimates", "verified"):
        value = _require(serve, field, int, context="serve")
        if value < 1:
            raise BenchmarkError(f"serve.{field} must be >= 1, got {value}")
    for field in ("edits", "rejected", "errors", "mismatches"):
        value = _require(serve, field, int, context="serve")
        if value < 0:
            raise BenchmarkError(f"serve.{field} must be >= 0, got {value}")
    for field in ("duration_s", "p50_ms", "p99_ms", "estimates_per_sec"):
        value = _require(serve, field, (int, float), context="serve")
        if value < 0:
            raise BenchmarkError(f"serve.{field} must be >= 0, got {value}")
    if not _require(serve, "clean_shutdown", bool, context="serve"):
        raise BenchmarkError(
            "serve.clean_shutdown is false: the service did not drain "
            "cleanly during the serve phase"
        )

    equivalence = _require(record, "equivalence", dict)
    if not equivalence:
        raise BenchmarkError("equivalence must be non-empty")
    for name, flag in equivalence.items():
        if not isinstance(flag, bool):
            raise BenchmarkError(
                f"equivalence[{name!r}] must be a bool, got {flag!r}"
            )
        if not flag:
            raise BenchmarkError(
                f"equivalence check {name!r} failed: batch results are not "
                "bit-identical to the seed path"
            )


def _require(record: dict, key: str, types, context: str = "record"):
    if key not in record:
        raise BenchmarkError(f"{context} is missing required key {key!r}")
    value = record[key]
    # bool is an int subclass; reject it where an int/float is required.
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise BenchmarkError(f"{context}[{key!r}] must not be a bool")
    if not isinstance(value, types):
        raise BenchmarkError(
            f"{context}[{key!r}] has type {type(value).__name__}, "
            f"expected {types}"
        )
    return value


def write_bench_record(record: dict, path: Union[str, Path, None] = None) -> Path:
    """Validate and write the record; returns the destination path.

    A record already at the destination is not discarded: it is folded
    (with its own history) into the new record's ``history`` list,
    oldest first, so the committed file carries the machine-readable
    perf trajectory across PRs.  A corrupt prior file fails the write
    loudly rather than silently dropping the trajectory.
    """
    validate_bench_record(record)
    path = Path(path) if path else Path(DEFAULT_OUTPUT)
    record = dict(record)
    history = list(record.get("history", []))
    if path.exists():
        try:
            prior = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BenchmarkError(
                f"existing bench record {path} is unreadable; refusing to "
                f"drop the perf trajectory: {exc}"
            ) from exc
        if not isinstance(prior, dict):
            raise BenchmarkError(
                f"existing bench record {path} is not a JSON object; "
                "refusing to drop the perf trajectory"
            )
        prior_history = prior.pop("history", [])
        if not isinstance(prior_history, list):
            raise BenchmarkError(
                f"existing bench record {path} has a malformed history"
            )
        history = prior_history + [prior] + history
    record["history"] = history
    validate_bench_record(record)
    try:
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise BenchmarkError(
            f"cannot write bench record {path}: {exc}"
        ) from exc
    return path


def load_bench_record(path: Union[str, Path]) -> dict:
    """Read and validate a trajectory record; fails fast when malformed."""
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read bench record {path}: {exc}") from exc
    validate_bench_record(record)
    return record


def format_bench_record(record: dict) -> str:
    """Human-readable phase/speedup summary of a trajectory record."""
    headers = ("Phase", "Items", "Seconds", "Per item (ms)")
    body = [
        (
            phase["name"],
            phase["items"],
            f"{phase['seconds']:.3f}",
            f"{1000.0 * phase['seconds'] / phase['items']:.3f}",
        )
        for phase in record["phases"]
    ]
    table = render_table(
        headers, body,
        title=f"Batch-engine perf trajectory (smoke={record['smoke']})",
    )
    speedups = ", ".join(
        f"{name} = {value:.2f}x"
        for name, value in sorted(record["speedups"].items())
    )
    hit_rates = ", ".join(
        f"{name} {stats['hit_rate']:.0%}"
        for name, stats in sorted(record["cache"]["kernels"].items())
    )
    serve = record["serve"]
    serve_line = (
        f"serve: {serve['sessions']} sessions, "
        f"{serve['estimates_per_sec']:.1f} estimates/sec, "
        f"p50 {serve['p50_ms']:.2f}ms, p99 {serve['p99_ms']:.2f}ms, "
        f"{serve['verified']} bit-identity samples verified"
    )
    fp = record["floorplan"]
    floorplan_line = (
        f"floorplan: {fp['modules']} modules x {fp['steps']} steps, "
        f"serial {fp['serial']['modules_per_sec']:.0f} -> portfolio "
        f"{fp['portfolio']['modules_per_sec']:.0f} module-moves/sec, "
        f"winner {fp['winner']}"
    )
    history_line = (
        f"history: {len(record.get('history', []))} prior trajectory "
        f"record(s) carried"
    )
    return (
        f"{table}\nspeedups: {speedups}\n"
        f"kernel-cache hit rates (batch sweep): {hit_rates}\n"
        f"{serve_line}\n{floorplan_line}\n{history_line}"
    )


# ----------------------------------------------------------------------
# console entry point (``mae-bench`` / benchmarks/run_benchmarks.py)
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mae-bench",
        description="Run the batch-engine benchmark suite and write the "
                    "BENCH_batch_engine.json perf-trajectory record.",
    )
    parser.add_argument("--modules", type=int, default=50, metavar="M",
                        help="synthetic sweep population (default: 50)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for CI: exercises every phase and "
                             "validates the record, no timing claims")
    parser.add_argument("--output", default=None,
                        help=f"destination JSON (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--assert-plan-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the compiled-plan path is at "
                             "least X times the direct path (CI guard "
                             "against plan-path regressions)")
    parser.add_argument("--assert-incremental-speedup", type=float,
                        default=None, metavar="X",
                        help="fail unless the incremental ECO path is at "
                             "least X times rebuild-per-edit (CI guard "
                             "against delta-engine regressions)")
    parser.add_argument("--assert-serve-throughput", type=float,
                        default=None, metavar="EPS",
                        help="fail unless the serve phase sustains at "
                             "least EPS estimates/sec across its "
                             "concurrent sessions (CI guard against "
                             "service regressions)")
    parser.add_argument("--portfolio-modules", type=int, default=None,
                        metavar="N",
                        help="design size for the floorplan-race phase "
                             f"(default: {PORTFOLIO_MODULES_SMOKE} in "
                             f"--smoke, {PORTFOLIO_MODULES} otherwise)")
    parser.add_argument("--assert-portfolio-speedup", type=float,
                        default=None, metavar="X",
                        help="fail unless the portfolio floorplan engine "
                             "is at least X times the serial loop in "
                             "modules/sec (CI guard against hot-path "
                             "regressions)")
    parser.add_argument("--assert-congestion-overhead", type=float,
                        default=None, metavar="X",
                        help="fail if the routability-scored portfolio "
                             "sweep takes more than X times the unscored "
                             "sweep's wall time (CI guard against "
                             "congestion-pricing regressions; lower is "
                             "better)")
    args = parser.parse_args(argv)

    try:
        record = run_bench(module_count=args.modules, smoke=args.smoke,
                           portfolio_modules=args.portfolio_modules)
        path = write_bench_record(record, args.output)
        # Round-trip through the validator so a malformed file on
        # disk fails here, not in the next PR's trajectory tooling
        # (and so the summary below reports the written history).
        record = load_bench_record(path)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_bench_record(record))
    print(f"trajectory record written to {path}")
    if args.assert_plan_speedup is not None:
        ratio = record["speedups"]["synthetic_plan_vs_batch_jobs1"]
        if ratio < args.assert_plan_speedup:
            print(
                f"error: plan path speedup {ratio:.2f}x is below the "
                f"required {args.assert_plan_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"plan path speedup {ratio:.2f}x meets the required "
            f"{args.assert_plan_speedup:.2f}x"
        )
    if args.assert_incremental_speedup is not None:
        ratio = record["speedups"]["incremental_vs_rebuild"]
        if ratio < args.assert_incremental_speedup:
            print(
                f"error: incremental ECO speedup {ratio:.2f}x is below "
                f"the required {args.assert_incremental_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"incremental ECO speedup {ratio:.2f}x meets the required "
            f"{args.assert_incremental_speedup:.2f}x"
        )
    if args.assert_serve_throughput is not None:
        rate = record["serve"]["estimates_per_sec"]
        if rate < args.assert_serve_throughput:
            print(
                f"error: serve throughput {rate:.1f} estimates/sec is "
                f"below the required {args.assert_serve_throughput:.1f}",
                file=sys.stderr,
            )
            return 1
        print(
            f"serve throughput {rate:.1f} estimates/sec meets the "
            f"required {args.assert_serve_throughput:.1f}"
        )
    if args.assert_portfolio_speedup is not None:
        ratio = record["speedups"]["floorplan_portfolio_vs_serial"]
        if ratio < args.assert_portfolio_speedup:
            print(
                f"error: floorplan portfolio speedup {ratio:.2f}x is "
                f"below the required {args.assert_portfolio_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"floorplan portfolio speedup {ratio:.2f}x meets the "
            f"required {args.assert_portfolio_speedup:.2f}x"
        )
    if args.assert_congestion_overhead is not None:
        ratio = record["speedups"].get("floorplan_scored_overhead")
        if ratio is None:
            print(
                "error: --assert-congestion-overhead requires the "
                "floorplan congestion phase, which was not part of "
                "this run",
                file=sys.stderr,
            )
            return 1
        if ratio > args.assert_congestion_overhead:
            print(
                f"error: routability-scored sweep overhead {ratio:.2f}x "
                f"exceeds the allowed "
                f"{args.assert_congestion_overhead:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"routability-scored sweep overhead {ratio:.2f}x is within "
            f"the allowed {args.assert_congestion_overhead:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
