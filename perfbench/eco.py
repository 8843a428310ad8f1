"""``eco`` repeat: a long engineering-change session on one large module.

One operation is ``IncrementalEstimator.apply(<one edit>)`` followed by
``estimate_rows(<the fixed row sweep>)``.  The edit stream was generated
before the worker started; set-up is the engine's construction plus its
first estimate.

Traced repeats add spans around ``apply`` and ``estimate_rows`` and wrap
the three calls ``estimate_rows`` makes into its layers:
``IncrementalEstimator.statistics``, ``get_plan`` (as the engine module
imports it) and ``EstimationPlan.evaluate_rows``.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from common import Spans, cache_counters, scan


def run(work: Path, manifest: dict, traced: bool) -> dict:
    from repro.core.config import EstimatorConfig
    from repro.incremental.engine import IncrementalEstimator
    from repro.incremental.mutations import load_mutations
    from repro.technology import nmos_process
    from workload_inputs import eco_module

    module = eco_module(manifest["module"])
    edits = load_mutations(str(work / manifest["edits"]))
    rows = tuple(manifest["rows"])
    process, config = nmos_process(), EstimatorConfig()

    start = time.perf_counter()
    engine = IncrementalEstimator(module, process, config)
    first = engine.estimate_rows(rows)
    setup_s = time.perf_counter() - start

    mismatches = []
    problem = _check(engine, rows, first, process, config)
    if problem:
        mismatches.append(f"first estimate: {problem}")
    checked = 1

    spans = Spans()
    if traced:
        before = cache_counters()
        _wrap_layers(spans)
    checks = set(manifest["checks"])
    ops, failures = [], {}
    for index, edit in enumerate(edits):
        begin = time.perf_counter()
        try:
            if traced:
                with spans.span("incremental.apply"):
                    engine.apply(edit)
                with spans.span("incremental.estimate_rows"):
                    estimates = engine.estimate_rows(rows)
            else:
                engine.apply(edit)
                estimates = engine.estimate_rows(rows)
        except Exception as exc:       # every error is a counted failure
            ops.append((time.perf_counter() - begin, False))
            name = type(exc).__name__
            failures[name] = failures.get(name, 0) + 1
            continue
        ops.append((time.perf_counter() - begin, True))
        if index in checks:
            checked += 1
            try:
                problem = _check(engine, rows, estimates, process, config)
            except Exception as exc:
                problem = f"rescan check raised {exc!r}"
            if problem:                # a wrong output is a failure too
                ops[-1] = (ops[-1][0], False)
                failures["wrong output"] = failures.get("wrong output", 0) + 1
                mismatches.append(f"edit {index}: {problem}")

    result = {"setup_s": setup_s, "ops": ops, "failures": failures,
              "mismatches": mismatches, "checked": checked}
    if traced:
        after = cache_counters()
        result["layers"] = spans.layers()
        hits = after["plan_hits"] - before["plan_hits"]
        compiled = after["plan_compilations"] - before["plan_compilations"]
        result["counters"] = {
            "kernel_hits": after["kernel_hits"] - before["kernel_hits"],
            "kernel_misses": after["kernel_misses"] - before["kernel_misses"],
            "triangle_cells": after["triangle_cells"],
            "plan_hit_rate": hits / max(1, hits + compiled),
            "plan_entries": after["plan_entries"],
        }
    return result


def _wrap_layers(spans: Spans) -> None:
    import repro.incremental.engine as engine_module
    from repro.perf.plan import EstimationPlan

    spans.wrap(engine_module.IncrementalEstimator, "statistics",
               "incremental.statistics")
    spans.wrap(engine_module, "get_plan", "perf.plan.get_plan")
    spans.wrap(EstimationPlan, "evaluate_rows", "perf.plan.evaluate_rows")


def _check(engine, rows, estimates, process, config) -> str:
    """A full rescan of the live module, estimated directly at each row
    count, must match the engine's estimates bit for bit."""
    from repro.core.standard_cell import estimate_standard_cell_from_stats

    stats = scan(engine.module, process, config)
    if len(estimates) != len(rows):
        return f"{len(estimates)} estimates for {len(rows)} row counts"
    for row_count, served in zip(rows, estimates):
        direct = estimate_standard_cell_from_stats(
            stats, process, config.with_rows(row_count)
        )
        if dataclasses.astuple(direct) != dataclasses.astuple(served):
            return f"rows={row_count}: engine differs from a full rescan"
    return ""
