"""Standard-cell module area estimation (Section 4.1, Eqs. 1-12).

The estimate proceeds exactly as the paper's derivation:

1. Scan the schematic for N, H, the width histogram (W_i, X_i) and the
   net-size histogram (D, y_D); compute W_avg (Eq. 1).
2. Choose the number of rows n — either fixed by the caller or by the
   Section 5 port-fitting algorithm.
3. Expected total track count: for every net size D, the expected row
   spread E(i) (Eqs. 2-3) rounded up, times y_D nets of that size.
4. Expected feed-throughs in a row: each net straddles the central row
   with probability P (Eq. 9, or Eq. 8 for the general model); the
   count over H nets is binomial with mean H*P (Eqs. 10-11), rounded
   up.  Every row is assumed to carry this (worst-case central-row)
   feed-through load.
5. Module area (Eq. 12)::

       area = (n * row_height + tracks * track_pitch)
            * (W_avg * N / n + E(M) * feedthrough_width)

The result is an upper bound: "each routing track only contains one
signal net" ignores track sharing, which the paper identifies as the
source of its 42-70 % Table 2 overestimates.  ``track_sharing_factor``
in the config scales the track count for the A1 ablation.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.config import EstimatorConfig
from repro.core.probability import expected_feedthroughs
from repro.obs.trace import current_tracer
from repro.perf.kernels import (
    central_feedthrough_probability,
    feedthrough_mean_for_histogram,
    tracks_for_histogram,
)
from repro.core.results import StandardCellEstimate
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.netlist.stats import ModuleStatistics, scan_module
from repro.technology.process import ProcessDatabase
from repro.units import round_up


def estimate_standard_cell(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> StandardCellEstimate:
    """Estimate standard-cell layout area for a module."""
    config = config or EstimatorConfig()
    tracer = current_tracer()
    with tracer.span("scan") as span:
        stats = scan_module(
            module,
            device_width=process.device_width,
            device_height=process.device_height,
            port_width=config.port_pitch_override or process.port_pitch,
            power_nets=config.power_nets,
        )
        if tracer.enabled:
            span.set("module", stats.module_name)
            span.set("devices", stats.device_count)
            span.set("nets", stats.net_count)
            tracer.metrics.incr("scan.modules")
    return estimate_standard_cell_from_stats(stats, process, config)


def estimate_standard_cell_from_stats(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> StandardCellEstimate:
    """Estimate from pre-computed statistics (workload sweeps reuse the
    scan across row counts)."""
    config = config or EstimatorConfig()
    if stats.device_count == 0:
        raise EstimationError(
            f"module {stats.module_name!r}: cannot estimate an empty module"
        )

    tracer = current_tracer()
    with tracer.span("sc.estimate") as span:
        rows = config.rows if config.rows is not None else choose_initial_rows(
            stats, process, config
        )
        if rows < 1:
            raise EstimationError(f"row count must be >= 1, got {rows}")

        tracks, per_size = _expected_tracks(stats, rows, config)
        feedthroughs = _expected_feedthroughs(stats, rows, config)

        cell_width_per_row = stats.average_width * stats.device_count / rows
        feedthrough_width = feedthroughs * process.feedthrough_width
        width = cell_width_per_row + feedthrough_width
        height = rows * process.row_height + tracks * process.track_pitch
        area = width * height
        cell_area = stats.total_device_area

        if tracer.enabled:
            span.set("module", stats.module_name)
            span.set("rows", rows)
            span.set("tracks", tracks)
            span.set("feedthroughs", feedthroughs)
            metrics = tracer.metrics
            metrics.incr("sc.estimates")
            metrics.incr("sc.nets_routed", stats.routed_net_count)
            metrics.incr("sc.tracks_total", tracks)
            metrics.incr("sc.feedthroughs_total", feedthroughs)

    return StandardCellEstimate(
        module_name=stats.module_name,
        rows=rows,
        cell_width_per_row=cell_width_per_row,
        feedthroughs=feedthroughs,
        feedthrough_width=feedthrough_width,
        tracks=tracks,
        tracks_by_net_size=tuple(per_size),
        width=width,
        height=height,
        cell_area=cell_area,
        wiring_area=max(0.0, area - cell_area),
        area=area,
    )


def sweep_rows(
    module: Module,
    process: ProcessDatabase,
    row_counts: Tuple[int, ...],
    config: Optional[EstimatorConfig] = None,
) -> List[StandardCellEstimate]:
    """Estimates at several row counts (the paper shows 2-3 per module
    in Table 2; "the area estimate decreased as the number of rows
    increased").

    Results are in ``row_counts`` order.
    """
    # Deferred: repro.perf.batch imports this module.
    from repro.perf.batch import estimate_batch

    config = config or EstimatorConfig()
    results = estimate_batch(
        [module],
        process,
        [config.with_rows(rows) for rows in row_counts],
        methodologies=("standard-cell",),
    )
    return [result.estimate for result in results]


def choose_initial_rows(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> int:
    """The Section 5 initial-row algorithm.

    Starting from i = 2::

        n = ceil( sqrt(active_cell_area) / (i * row_height) )
        row_length = active_cell_area / (n * row_height)

    accept n once all module ports fit within ``row_length`` (ports fit
    along one of the longer edges), otherwise increment i — fewer,
    longer rows.  n = 1 is always accepted: rows cannot get any longer.
    """
    config = config or EstimatorConfig()
    area = stats.total_device_area
    if area <= 0:
        raise EstimationError(
            f"module {stats.module_name!r}: active cell area must be positive"
        )
    row_height = process.row_height
    port_length = stats.total_port_width

    tracer = current_tracer()
    with tracer.span("sc.choose_rows") as span:
        divisor = 2
        iterations = 0
        while True:
            rows = math.ceil(math.sqrt(area) / (divisor * row_height))
            rows = max(1, min(rows, config.max_rows))
            row_length = area / (rows * row_height)
            if rows == 1 or port_length <= row_length:
                if tracer.enabled:
                    span.set("rows", rows)
                    span.set("iterations", iterations)
                    tracer.metrics.incr("sc.row_iterations", iterations)
                return rows
            divisor += 1
            iterations += 1
            if iterations > 10_000:  # unreachable: rows -> 1 as divisor grows
                raise EstimationError(
                    f"module {stats.module_name!r}: row selection did not "
                    "converge"
                )


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _expected_tracks(
    stats: ModuleStatistics,
    rows: int,
    config: EstimatorConfig,
) -> Tuple[int, List[Tuple[int, int]]]:
    tracer = current_tracer()
    with tracer.span("sc.tracks") as span:
        histogram = stats.multi_component_nets
        # One kernel call covers the whole histogram: a cache hit
        # returns every net size's Eq. 3 demand in a single lookup.
        per_net = tracks_for_histogram(histogram, rows)
        per_size: List[Tuple[int, int]] = []
        total = 0
        for (components, count), tracks in zip(histogram, per_net):
            per_size.append((components, tracks))
            total += tracks * count
        if config.track_model == "shared":
            # Section 7 future work: the analytic expected-density model.
            from repro.core.sharing import estimate_shared_tracks

            shared = estimate_shared_tracks(
                stats.multi_component_nets,
                rows,
                config.congestion_margin,
            ).total_tracks
            # The upper bound stays an upper bound.
            shared = min(shared, total)
        else:
            shared = math.ceil(total * config.track_sharing_factor)
        if tracer.enabled:
            span.set("raw_tracks", total)
            span.set("tracks", shared)
            tracer.metrics.incr(
                "sc.track_nets", stats.routed_net_count
            )
    return shared, per_size


def _expected_feedthroughs(
    stats: ModuleStatistics,
    rows: int,
    config: EstimatorConfig,
) -> int:
    tracer = current_tracer()
    with tracer.span("sc.feedthroughs") as span:
        if rows < 3:
            # No interior row exists; nothing can straddle a row.  The
            # span still reports its payload so traced 1- and 2-row
            # estimates are not empty.
            if tracer.enabled:
                span.set("mean", 0.0)
                span.set("feedthroughs", 0)
            return 0
        if config.feedthrough_model == "two-component":
            probability = central_feedthrough_probability(rows)
            count = expected_feedthroughs(
                stats.routed_net_count, probability
            )
            if tracer.enabled:
                span.set("mean", stats.routed_net_count * probability)
                span.set("feedthroughs", count)
            return count
        # General model: per net size D, Eq. 8 at the central row, the
        # whole histogram in one kernel call.
        mean = feedthrough_mean_for_histogram(
            stats.multi_component_nets, rows, "general"
        )
        count = round_up(mean)
        if tracer.enabled:
            span.set("mean", mean)
            span.set("feedthroughs", count)
            tracer.metrics.incr("feedthrough.mean_sum", mean)
        return count
