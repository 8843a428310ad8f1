"""``oneshot`` repeat: estimate every module of a chip from its files.

One operation is ``ModuleAreaEstimator.load_schematic(path)`` followed by
``.estimate(module)`` for both methodologies, timed to the answer or to
the exception.  Set-up is building the estimator plus one warm-up pass
over four small files of its own (one per format), so the measured pass
meets the chip's net sizes with cold kernel caches.

Traced repeats add spans around the two calls and, outside the timed
operation, time the facade's pieces on their own: one ``scan_module``,
one ``estimate_standard_cell_from_stats`` and the two
``estimate_full_custom(stats=...)`` calls.  The estimator's self time is
the facade's span minus those pieces.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import nullcontext
from pathlib import Path

from common import Spans, cache_counters, nearest_rank, scan, tail_fraction


def run(work: Path, manifest: dict, traced: bool) -> dict:
    from repro.core.config import EstimatorConfig
    from repro.core.estimator import ModuleAreaEstimator
    from repro.technology import nmos_process

    start = time.perf_counter()
    estimator = ModuleAreaEstimator(nmos_process(), EstimatorConfig())
    for path in manifest["warmup"]:
        estimator.estimate(estimator.load_schematic(work / path))
    setup_s = time.perf_counter() - start

    spans = Spans()
    checks = set(manifest["checks"])
    ops, failures, mismatches, checked = [], {}, [], 0
    parse_bytes = pieces_s = 0.0
    tail = []          # per op: (latency, parse time)
    by_kind = {}       # kind: [ops, parse seconds, slowest parse, its size]
    kernel_hits = kernel_misses = 0
    for index, entry in enumerate(manifest["files"]):
        path = work / entry["path"]
        if traced:
            before = cache_counters()
        parsed = None
        begin = time.perf_counter()
        try:
            if traced:
                with spans.span("netlist.parse"):
                    module = estimator.load_schematic(path)
                parsed = time.perf_counter()
                with spans.span("core.estimator"):
                    record = estimator.estimate(module)
            else:
                module = estimator.load_schematic(path)
                record = estimator.estimate(module)
        except Exception as exc:       # every error is a counted failure
            end = time.perf_counter()
            name = type(exc).__name__
            failures[name] = failures.get(name, 0) + 1
            record = None
        else:
            end = time.perf_counter()
        ops.append((end - begin, record is not None))
        if traced:
            after = cache_counters()
            kernel_hits += after["kernel_hits"] - before["kernel_hits"]
            kernel_misses += after["kernel_misses"] - before["kernel_misses"]
            parse_s = (parsed or end) - begin
            parse_bytes += path.stat().st_size
            tail.append((end - begin, parse_s))
            kind = by_kind.setdefault(entry["kind"], [0, 0.0, 0.0, 0])
            kind[0] += 1
            kind[1] += parse_s
            if parse_s > kind[2]:
                kind[2:] = [parse_s, entry["size"]]
            if record is not None:
                pieces_s += _time_pieces(estimator, module, spans)
        if record is None:
            continue

        problems = [_check_finite(record)]
        if index in checks:
            checked += 1
            try:
                problems.append(_check_rederived(estimator, module, record))
            except Exception as exc:
                problems.append(f"re-derivation raised {exc!r}")
        problems = [problem for problem in problems if problem]
        if problems:                   # a wrong output is a failure too
            ops[-1] = (ops[-1][0], False)
            failures["wrong output"] = failures.get("wrong output", 0) + 1
            mismatches.extend(f"{entry['path']}: {p}" for p in problems)

    result = {"setup_s": setup_s, "ops": ops, "failures": failures,
              "mismatches": mismatches, "checked": checked}
    if traced:
        layers = spans.layers()
        if "core.estimator" in layers:
            layers["core.estimator"]["self_s"] -= pieces_s
        result["layers"] = layers
        result["counters"] = {
            "kernel_hits": kernel_hits,
            "kernel_misses": kernel_misses,
            "triangle_cells": cache_counters()["triangle_cells"],
            "parse_kb_per_s": (parse_bytes / 1024.0
                               / layers["netlist.parse"]["self_s"]),
            "parse_tail_share": _parse_tail_share(tail),
            "parse_by_kind": by_kind,
        }
    return result


def _time_pieces(estimator, module, spans: Spans) -> float:
    """Time the facade's essential pieces on their own; returns their
    summed duration."""
    from repro.core.full_custom import estimate_full_custom
    from repro.core.standard_cell import estimate_standard_cell_from_stats

    process, config = estimator.process, estimator.config
    begin = time.perf_counter()
    with spans.span("netlist.stats"):
        stats = scan(module, estimator.process, estimator.config)
    with spans.span("core.standard_cell"):
        estimate_standard_cell_from_stats(stats, process, config)
    for mode in ("exact", "average"):
        with spans.span("core.full_custom"):
            estimate_full_custom(module, process,
                                 config.with_(device_area_mode=mode),
                                 stats=stats)
    return time.perf_counter() - begin


def _parse_tail_share(tail) -> float:
    """Parse's share of the time of the ops at or above the p95."""
    cut = nearest_rank([t[0] for t in tail], tail_fraction(len(tail)))
    slow = [t for t in tail if t[0] >= cut]
    return sum(t[1] for t in slow) / sum(t[0] for t in slow)


def _check_finite(record) -> str:
    for label, estimate in (("standard-cell", record.standard_cell),
                            ("full-custom", record.full_custom),
                            ("full-custom-average",
                             record.full_custom_average)):
        area = estimate.area
        if not (math.isfinite(area) and area > 0.0):
            return f"{label} area {area!r} is not finite and positive"
    return ""


def _check_rederived(estimator, module, record) -> str:
    """Re-derive the record from one scan, with the kernel caches on and
    again with them off; every field must be bit-identical."""
    from repro.core.full_custom import estimate_full_custom
    from repro.core.standard_cell import estimate_standard_cell_from_stats
    from repro.perf import caches_disabled

    process, config = estimator.process, estimator.config
    served = tuple(dataclasses.astuple(part) for part in (
        record.statistics, record.standard_cell, record.full_custom,
        record.full_custom_average,
    ))
    for label, guard in (("cached", nullcontext()),
                         ("uncached", caches_disabled())):
        with guard:
            stats = scan(module, estimator.process, estimator.config)
            derived = tuple(dataclasses.astuple(part) for part in (
                stats,
                estimate_standard_cell_from_stats(stats, process, config),
                estimate_full_custom(module, process,
                                     config.with_(device_area_mode="exact"),
                                     stats=stats),
                estimate_full_custom(module, process,
                                     config.with_(device_area_mode="average"),
                                     stats=stats),
            ))
        if derived != served:
            return f"facade result differs from the {label} re-derivation"
    return ""
