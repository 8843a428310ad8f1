"""Compiled estimation plans.

In the floor-planning regime the same module is re-estimated at many
row counts on every iteration.  :func:`estimate_standard_cell_from_stats`
pays per call for work that depends only on the module and the process:
re-reading the ``multi_component_nets`` histogram property (which
rebuilds its tuple on every access), re-resolving process constants,
and walking a Python loop over the histogram per kernel family.

An :class:`EstimationPlan` is compiled **once** per (module statistics,
process, config-sans-rows) triple: the (D, y_D) histogram is frozen
into dense parallel tuples, the Eq. 12 process constants are
pre-resolved, and :meth:`EstimationPlan.evaluate` produces a
:class:`~repro.core.results.StandardCellEstimate` for any row count via
the whole-histogram kernels of :mod:`repro.perf.kernels` — one kernel
call for all track demands, one for the feed-through mean.

The guarantee is the same as the kernel layer's: **bit-identical
results**.  ``evaluate(rows)`` performs the same arithmetic, in the
same order, as ``estimate_standard_cell_from_stats(stats, process,
config.with_rows(rows))``; a Hypothesis property test asserts
field-for-field equality over random histograms, row counts, and both
row-spread/feed-through models.

Plans are cached process-wide (:func:`get_plan`).  Compilation
statistics live in
:func:`plan_cache_stats` (cache-stats space, like the kernel caches) —
deliberately *not* in the additive tracer counter space, because plan
cache hits depend on process history, not on the workload.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.core.config import EstimatorConfig
from repro.core.probability import expected_feedthroughs
from repro.core.results import StandardCellEstimate
from repro.core.standard_cell import choose_initial_rows
from repro.errors import EstimationError, StaleStatisticsError
from repro.netlist.stats import ModuleStatistics
from repro.obs.trace import current_tracer
from repro.perf.kernels import (
    central_feedthrough_probability,
    feedthrough_mean_for_histogram,
    tracks_for_histogram,
)
from repro.technology.process import ProcessDatabase
from repro.units import round_up


class EstimationPlan:
    """One module's standard-cell estimator, compiled for re-evaluation.

    Construct via :func:`compile_plan` (validates) or :func:`get_plan`
    (process-wide cache).  ``evaluate(rows)`` is bit-identical to the
    direct path at ``config.with_rows(rows)``; ``evaluate(None)`` runs
    the Section 5 initial-row algorithm exactly like the direct path —
    on *every* call, so traced row-iteration counters stay
    workload-derived.
    """

    __slots__ = (
        "stats", "process", "config", "histogram", "net_sizes",
        "net_counts", "routed_net_count", "device_count", "average_width",
        "cell_area", "row_height", "track_pitch", "feedthrough_unit_width",
        "_congestion_memo",
    )

    def __init__(
        self,
        stats: ModuleStatistics,
        process: ProcessDatabase,
        config: EstimatorConfig,
    ):
        self.stats = stats
        self.process = process
        #: Row count is an evaluate()-time argument, never plan state.
        self.config = config.with_rows(None)
        #: The (D, y_D) histogram, frozen once (the property rebuilds
        #: its tuple per access on the direct path).
        self.histogram: Tuple[Tuple[int, int], ...] = (
            stats.multi_component_nets
        )
        self.net_sizes: Tuple[int, ...] = tuple(
            d for d, _ in self.histogram
        )
        self.net_counts: Tuple[int, ...] = tuple(
            y for _, y in self.histogram
        )
        self.routed_net_count = stats.routed_net_count
        self.device_count = stats.device_count
        self.average_width = stats.average_width
        self.cell_area = stats.total_device_area
        self.row_height = process.row_height
        self.track_pitch = process.track_pitch
        self.feedthrough_unit_width = process.feedthrough_width
        #: (rows, capacity) -> CongestionDistribution, filled lazily by
        #: :meth:`evaluate_congestion`.  Plain dict of frozen
        #: dataclasses, so plans stay picklable.
        self._congestion_memo: Dict[Tuple[int, int], object] = {}

    def evaluate(self, rows: Optional[int] = None) -> StandardCellEstimate:
        """The Eq. 12 estimate at ``rows`` (``None``: Section 5 rows)."""
        config = self.config
        tracer = current_tracer()
        with tracer.span("plan.evaluate") as span:
            if rows is None:
                rows = choose_initial_rows(self.stats, self.process, config)
            if rows < 1:
                raise EstimationError(
                    f"row count must be >= 1, got {rows}"
                )

            per_size = tracks_for_histogram(self.histogram, rows)
            estimate = self._assemble(rows, per_size, tracer, span)
        _note_evaluation()
        return estimate

    def evaluate_rows(
        self, row_counts
    ) -> Tuple[StandardCellEstimate, ...]:
        """The Eq. 12 estimates at every row count, in order."""
        return tuple(self.evaluate(rows) for rows in row_counts)

    def evaluate_congestion(self, rows: int, capacity: Optional[int] = None):
        """The per-channel congestion distribution at ``rows``, memoized.

        ``capacity = None`` resolves through the plan's process
        (:func:`repro.congestion.model.resolve_channel_capacity`), so a
        plan prices routability against the same routing budget every
        other consumer of the process sees.  Results are memoized per
        ``(rows, capacity)`` — the floorplan race revisits the same row
        counts constantly.
        """
        from repro.congestion.model import (
            congestion_distribution,
            resolve_channel_capacity,
        )

        if rows is None or rows < 1:
            raise EstimationError(f"row count must be >= 1, got {rows}")
        resolved, _ = resolve_channel_capacity(self.process, capacity)
        key = (rows, resolved)
        distribution = self._congestion_memo.get(key)
        if distribution is None:
            distribution = congestion_distribution(
                self.histogram, rows, resolved
            )
            self._congestion_memo[key] = distribution
        return distribution

    def _assemble(
        self,
        rows: int,
        per_size: Tuple[int, ...],
        tracer,
        span,
    ) -> StandardCellEstimate:
        """Scalar Eq. 12 assembly from precomputed per-net-size tracks."""
        config = self.config
        total = 0
        for tracks_per_net, count in zip(per_size, self.net_counts):
            total += tracks_per_net * count
        if config.track_model == "shared":
            from repro.core.sharing import estimate_shared_tracks

            shared = estimate_shared_tracks(
                self.histogram,
                rows,
                config.congestion_margin,
            ).total_tracks
            # The upper bound stays an upper bound.
            shared = min(shared, total)
        else:
            shared = math.ceil(total * config.track_sharing_factor)
        tracks = shared

        feedthroughs = self._feedthroughs(rows, tracer)

        cell_width_per_row = (
            self.average_width * self.device_count / rows
        )
        feedthrough_width = feedthroughs * self.feedthrough_unit_width
        width = cell_width_per_row + feedthrough_width
        height = rows * self.row_height + tracks * self.track_pitch
        area = width * height
        cell_area = self.cell_area

        if tracer.enabled:
            span.set("module", self.stats.module_name)
            span.set("rows", rows)
            span.set("tracks", tracks)
            span.set("feedthroughs", feedthroughs)
            metrics = tracer.metrics
            metrics.incr("sc.estimates")
            metrics.incr("sc.nets_routed", self.routed_net_count)
            metrics.incr("sc.tracks_total", tracks)
            metrics.incr("sc.feedthroughs_total", feedthroughs)
            metrics.incr("sc.track_nets", self.routed_net_count)

        return StandardCellEstimate(
            module_name=self.stats.module_name,
            rows=rows,
            cell_width_per_row=cell_width_per_row,
            feedthroughs=feedthroughs,
            feedthrough_width=feedthrough_width,
            tracks=tracks,
            tracks_by_net_size=tuple(zip(self.net_sizes, per_size)),
            width=width,
            height=height,
            cell_area=cell_area,
            wiring_area=max(0.0, area - cell_area),
            area=area,
        )

    def _feedthroughs(self, rows: int, tracer) -> int:
        config = self.config
        if rows < 3:
            # No interior row exists; nothing can straddle a row.
            return 0
        if config.feedthrough_model == "two-component":
            probability = central_feedthrough_probability(rows)
            return expected_feedthroughs(self.routed_net_count, probability)
        mean = feedthrough_mean_for_histogram(
            self.histogram, rows, "general"
        )
        if tracer.enabled:
            tracer.metrics.incr("feedthrough.mean_sum", mean)
        return round_up(mean)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EstimationPlan({self.stats.module_name!r}, "
            f"{len(self.histogram)} net sizes)"
        )


def compile_plan(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> EstimationPlan:
    """Compile a fresh plan (no cache), validating the inputs exactly
    like the direct estimator."""
    config = config or EstimatorConfig()
    if stats.device_count == 0:
        raise EstimationError(
            f"module {stats.module_name!r}: cannot estimate an empty module"
        )
    _PLAN_COUNTERS["compilations"] += 1
    return EstimationPlan(stats, process, config)


# ----------------------------------------------------------------------
# the process-wide plan cache
# ----------------------------------------------------------------------
_PLAN_CACHE: Dict[tuple, EstimationPlan] = {}
_PLAN_COUNTERS = {"hits": 0, "compilations": 0, "evaluations": 0}


def _plan_key(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: EstimatorConfig,
) -> tuple:
    # Only these three process constants reach the Eq. 12 arithmetic
    # (device geometry is already baked into the scan statistics), so
    # they — not object identity — define plan equivalence.
    return (
        stats,
        (process.row_height, process.track_pitch,
         process.feedthrough_width),
        config.with_rows(None),
    )


def get_plan(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    expected_version: Optional[int] = None,
) -> EstimationPlan:
    """The cached plan for this (stats, process, config-sans-rows)
    triple, compiling on first use.

    ``expected_version`` guards against the stale-stats hazard: callers
    that hold a :class:`~repro.netlist.stats.ModuleStatistics` snapshot
    across netlist edits (the floorplan loop, the incremental engine)
    pass the netlist's current revision, and a snapshot taken at any
    other revision is rejected with :class:`StaleStatisticsError`
    instead of silently serving a plan for a netlist that no longer
    exists.  Snapshots without a version (``stats_version is None``)
    cannot be validated and are rejected too when a check is requested.
    """
    config = config or EstimatorConfig()
    if expected_version is not None and stats.stats_version != expected_version:
        raise StaleStatisticsError(
            f"module {stats.module_name!r}: statistics snapshot is from "
            f"netlist revision {stats.stats_version!r}, but revision "
            f"{expected_version} was expected — rescan (or re-snapshot "
            "the incremental engine) before planning"
        )
    key = _plan_key(stats, process, config)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = compile_plan(stats, process, config)
        _PLAN_CACHE[key] = plan
    else:
        _PLAN_COUNTERS["hits"] += 1
    return plan


def _note_evaluation() -> None:
    _PLAN_COUNTERS["evaluations"] += 1


def plan_cache_stats() -> Dict[str, int]:
    """Per-process plan statistics: cache hits, compilations (cache
    misses plus direct :func:`compile_plan` calls), entries, and total
    evaluations."""
    return {
        "hits": _PLAN_COUNTERS["hits"],
        "compilations": _PLAN_COUNTERS["compilations"],
        "entries": len(_PLAN_CACHE),
        "evaluations": _PLAN_COUNTERS["evaluations"],
    }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters."""
    _PLAN_CACHE.clear()
    for name in _PLAN_COUNTERS:
        _PLAN_COUNTERS[name] = 0
