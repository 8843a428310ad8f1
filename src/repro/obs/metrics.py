"""The unified metrics registry.

PR 1 left the repository with one observability island: the kernel
caches of :mod:`repro.perf.kernels` count their own hits and misses.
This module puts every counter behind one snapshot API:

* **Estimation counters** — plain additive ``name -> number`` values
  recorded by the span hooks in :mod:`repro.core` and
  :mod:`repro.perf.batch` (estimates run, nets processed, expected
  feed-through mass, batch tasks, ...).
* **Kernel-cache statistics** — read live from
  :func:`repro.perf.kernels.kernel_cache_stats` at snapshot time.
  These are process-wide cache facts and deliberately kept out of the
  additive counter space: they depend on what ran earlier in the
  process, not only on the traced work.

The default registry (:func:`get_registry`) is process-global so code
that only wants a snapshot — ``mae bench`` reporting cache hit rates —
never needs to construct anything.  Tracers carry their *own* registry
(see :mod:`repro.obs.trace`) so a traced run's counters are isolated
from other work in the process.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Union

Number = Union[int, float]


class MetricsRegistry:
    """Additive counters plus a live view of the kernel-cache stats."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}

    # ------------------------------------------------------------------
    # additive counters
    # ------------------------------------------------------------------
    def incr(self, name: str, value: Number = 1) -> None:
        """Add ``value`` (int or float) to the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def counters(self) -> Dict[str, Number]:
        """A sorted copy of the additive counters."""
        return dict(sorted(self._counters.items()))

    def clear(self) -> None:
        """Drop every additive counter (kernel stats are not touched)."""
        self._counters.clear()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-ready view of everything observable.

        ``{"counters": {...}, "kernels": {name: {hits, misses, entries,
        bypasses, hit_rate}}, "plans": {...}, "triangle": {...}}`` — the
        ``kernels``, ``plans`` and ``triangle`` sections are read live
        from this process's caches and match the shapes recorded in
        ``BENCH_batch_engine.json``.
        """
        # Imported lazily for the same reason as kernel_cache_snapshot.
        from repro.perf.kernels import surjection_triangle_stats
        from repro.perf.plan import plan_cache_stats

        return {
            "counters": self.counters(),
            "kernels": kernel_cache_snapshot(),
            "plans": plan_cache_stats(),
            "triangle": surjection_triangle_stats(),
        }


class LatencyTracker:
    """Thread-safe latency reservoir with quantile summaries.

    The estimation service records one observation per request and
    reports p50/p99 through ``/metrics`` and the bench serve phase.
    The reservoir keeps the most recent ``capacity`` samples (a ring
    buffer, so a long-running server's quantiles track current load,
    not its start-up transient) while ``count``/``total`` cover the
    tracker's whole lifetime.
    """

    __slots__ = ("_lock", "_samples", "_capacity", "_next", "_count",
                 "_total", "_max")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._samples: List[float] = []
        self._capacity = capacity
        self._next = 0  # ring-buffer write cursor once at capacity
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation, in seconds."""
        value = float(seconds)
        with self._lock:
            if len(self._samples) < self._capacity:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self._capacity
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Lifetime number of observations."""
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the retained samples, in
        seconds; 0.0 when nothing has been observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        return samples[min(len(samples) - 1, int(q * len(samples)))]

    def summary(self) -> Dict[str, Number]:
        """JSON-ready ``{count, mean_ms, p50_ms, p99_ms, max_ms}``."""
        with self._lock:
            samples = sorted(self._samples)
            count = self._count
            total = self._total
            peak = self._max

        def pick(q: float) -> float:
            if not samples:
                return 0.0
            return samples[min(len(samples) - 1, int(q * len(samples)))]

        return {
            "count": count,
            "mean_ms": round(1000.0 * total / count, 3) if count else 0.0,
            "p50_ms": round(1000.0 * pick(0.50), 3),
            "p99_ms": round(1000.0 * pick(0.99), 3),
            "max_ms": round(1000.0 * peak, 3),
        }


def latency_percentiles(
    seconds: Sequence[float], quantiles: Sequence[float] = (0.50, 0.99)
) -> Dict[str, float]:
    """Quantiles of a finished sample set, keyed ``p50_ms``-style.

    The one-shot companion to :class:`LatencyTracker` for callers that
    already hold every observation (the serve load test, the bench
    serve phase): same selection rule, no locking.
    """
    samples = sorted(float(value) for value in seconds)
    result: Dict[str, float] = {}
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if samples:
            value = samples[min(len(samples) - 1, int(q * len(samples)))]
        else:
            value = 0.0
        label = f"p{q * 100:g}".replace(".", "_")
        result[f"{label}_ms"] = round(1000.0 * value, 3)
    return result


def kernel_cache_snapshot() -> Dict[str, Dict[str, Number]]:
    """The kernel-cache section of a snapshot, as plain JSON types.

    This is the supported way to report cache statistics (``mae bench``
    uses it); it shields consumers from the internals of
    :mod:`repro.perf.kernels`.
    """
    # Imported here, not at module top, so repro.obs stays import-light
    # and dependency-free for the tracer hot path.
    from repro.perf.kernels import kernel_cache_stats

    return {
        name: {
            "hits": stats.hits,
            "misses": stats.misses,
            "entries": stats.entries,
            "bypasses": stats.bypasses,
            "hit_rate": round(stats.hit_rate, 4),
        }
        for name, stats in sorted(kernel_cache_stats().items())
    }


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _DEFAULT_REGISTRY
