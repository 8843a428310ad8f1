"""Helpers shared by the harness and the per-repeat workers: span
recording, percentiles, peak-memory readout and the checkout layout."""

from __future__ import annotations

import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

#: The checkout root: this file lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` directory, or exit
    non-zero when the checkout has no source tree to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for processes that import ``repro`` from the checkout."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Spans:
    """In-memory span recorder for one single-threaded worker.

    Spans nest through a stack, so each one knows the span that caused
    it.  A span's self time is its duration minus the durations of its
    direct children: nested layer spans add up to the outer span
    without double counting.  Only per-name totals are kept.
    """

    def __init__(self) -> None:
        self._child_time: List[float] = []
        self.self_time: Dict[str, float] = {}
        self.count: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._child_time.pop()
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - children
            )
            self.count[name] = self.count.get(name, 0) + 1
            if self._child_time:
                self._child_time[-1] += duration

    def wrap(self, owner, attribute: str, name: str) -> bool:
        """Replace ``owner.attribute`` with a wrapper that records a span
        around every call; returns False when the attribute is absent."""
        original = getattr(owner, attribute, None)
        if original is None:
            return False
        spans = self

        def traced(*args, **kwargs):
            with spans.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        return True

    def layers(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": self.count[name], "self_s": self.self_time[name]}
            for name in sorted(self.count)
        }


def cache_counters() -> Dict[str, int]:
    """Totals of the kernel, Stirling-triangle and plan counters that
    ``repro.perf`` exposes for this process."""
    from repro.perf import kernel_cache_stats, surjection_triangle_stats
    from repro.perf.plan import plan_cache_stats

    kernels = kernel_cache_stats().values()
    plans = plan_cache_stats()
    return {
        "kernel_hits": sum(stats.hits for stats in kernels),
        "kernel_misses": sum(stats.misses for stats in kernels),
        "triangle_cells": surjection_triangle_stats().get("cells", 0),
        "plan_hits": plans.get("hits", 0),
        "plan_compilations": plans.get("compilations", 0),
        "plan_entries": plans.get("entries", 0),
    }


def scan(module, process, config):
    """``scan_module`` with the geometry, port pitch and power nets the
    estimators themselves use."""
    from repro.netlist.stats import scan_module

    return scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )


def rank(count: int, fraction: float) -> int:
    """The 1-based nearest rank of the ``fraction`` percentile."""
    return max(1, math.ceil(fraction * count - 1e-9))


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """The nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), fraction) - 1]


def tail_fraction(count: int, wanted: float = 0.95, beyond: int = 10) -> float:
    """The highest percentile up to ``wanted`` that leaves at least
    ``beyond`` samples above it in a sample of ``count``."""
    if count <= beyond:
        return 0.5
    return min(wanted, (count - beyond) / count)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (the resident-set high-water mark) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
