"""Multiple aspect-ratio candidates (the paper's Section 7 future work).

"The estimator will be changed to output four or five aspect ratio
estimates to allow chip floor planners more flexibility in choosing
module shapes."  This module produces those candidates:

* **Standard-Cell** — re-estimate at several row counts around the
  Section 5 initial choice; every row count is a genuinely different
  implementation with its own width, height, and area.
* **Full-Custom** — the estimated area is shape-flexible (devices can
  be packed into any reasonable envelope), so candidates are the same
  area at several aspect ratios in the paper's typical 1:1 .. 1:2
  band, filtered by the port-length control criterion.

:func:`candidate_shapes` merges both into the shape list a slicing
floorplanner consumes; the C3 benchmark measures how much chip dead
space the extra flexibility removes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.aspect import fits_ports
from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom
from repro.core.results import (
    FullCustomEstimate,
    ModuleEstimate,
    StandardCellEstimate,
)
from repro.core.standard_cell import choose_initial_rows
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.netlist.stats import scan_module
from repro.technology.process import ProcessDatabase

#: Aspect ratios offered for full-custom candidates (width : height).
DEFAULT_FULL_CUSTOM_ASPECTS: Tuple[float, ...] = (1.0, 1.25, 1.5, 1.75, 2.0)


def standard_cell_candidates(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    count: int = 5,
    stats=None,
) -> List[StandardCellEstimate]:
    """Up to ``count`` standard-cell implementations at different row
    counts, centred on the Section 5 initial choice.

    ``stats`` injects a pre-computed scan (the C2 loop and the
    portfolio optimizer hold one per module); when omitted the module
    is scanned here.  Either way the ranking itself always goes
    through the shared plan cache."""
    config = config or EstimatorConfig()
    if stats is None:
        stats = scan_module(
            module,
            device_width=process.device_width,
            device_height=process.device_height,
            port_width=config.port_pitch_override or process.port_pitch,
            power_nets=config.power_nets,
        )
    return standard_cell_candidates_from_stats(stats, process, config, count)


def standard_cell_candidates_from_stats(
    stats,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    count: int = 5,
) -> List[StandardCellEstimate]:
    """The row-count spread from pre-computed statistics (the C2
    aspect-ratio search re-queries this as the netlist evolves, feeding
    it incremental snapshots instead of rescanning)."""
    if count < 1:
        raise EstimationError(f"count must be >= 1, got {count}")
    config = config or EstimatorConfig()
    centre = (
        config.rows
        if config.rows is not None
        else choose_initial_rows(stats, process, config)
    )
    row_counts = _spread_around(centre, count, config.max_rows)
    # Deferred: repro.perf.plan imports repro.core.standard_cell.
    from repro.perf.plan import get_plan

    # One plan covers the whole spread (bit-identical to the per-row
    # direct path via the plan_vs_direct invariant).
    plan = get_plan(stats, process, config)
    return list(plan.evaluate_rows(row_counts))


def full_custom_candidates(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    aspects: Sequence[float] = DEFAULT_FULL_CUSTOM_ASPECTS,
    stats=None,
) -> List[FullCustomEstimate]:
    """Full-custom implementations of the estimated area at several
    aspect ratios.

    Candidates violating the port criterion (all ports along one of
    the longer edges) are dropped; the port-stretched shape is always
    included, so at least one candidate survives.  ``stats`` injects a
    pre-computed scan shared with the caller's other estimates.
    """
    if not aspects:
        raise EstimationError("at least one aspect ratio is required")
    config = config or EstimatorConfig()
    if stats is None:
        stats = scan_module(
            module,
            device_width=process.device_width,
            device_height=process.device_height,
            port_width=config.port_pitch_override or process.port_pitch,
            power_nets=config.power_nets,
        )
    base = estimate_full_custom(module, process, config, stats=stats)
    port_length = stats.total_port_width

    candidates: List[FullCustomEstimate] = []
    seen: set = set()
    for aspect in sorted(set(aspects)):
        if aspect <= 0:
            raise EstimationError(f"aspect must be positive, got {aspect}")
        width = math.sqrt(base.area * aspect)
        height = base.area / width
        if not fits_ports(width, height, port_length):
            continue
        key = round(width, 6)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(_reshaped(base, width, height))

    base_key = round(base.width, 6)
    if base_key not in seen:
        # The Section 5 algorithm's own shape (port-stretched when
        # ports demand it) is always a valid candidate.
        candidates.append(base)
    return candidates


def candidate_shapes(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    count: int = 5,
) -> List[Tuple[str, float, float]]:
    """All candidate (label, width, height) triples for a module —
    both methodologies, ready to feed a floorplanner's shape list.

    The module is scanned exactly once; both rankings share the scan
    (and the standard-cell side the cached plan)."""
    config = config or EstimatorConfig()
    stats = scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )
    shapes: List[Tuple[str, float, float]] = []
    for estimate in standard_cell_candidates(
        module, process, config, count, stats=stats
    ):
        shapes.append(
            (f"sc-{estimate.rows}rows", estimate.width, estimate.height)
        )
    for estimate in full_custom_candidates(
        module, process, config, stats=stats
    ):
        shapes.append(
            (
                f"fc-{estimate.width / estimate.height:.2f}",
                estimate.width,
                estimate.height,
            )
        )
    return shapes


def _spread_around(centre: int, count: int, max_rows: int) -> List[int]:
    """Distinct row counts nearest the centre: centre, +-1, +-2, ..."""
    result: List[int] = []
    offset = 0
    while len(result) < count:
        for candidate in (centre + offset, centre - offset):
            if 1 <= candidate <= max_rows and candidate not in result:
                result.append(candidate)
                if len(result) == count:
                    break
        offset += 1
        if offset > max_rows:
            break
    return sorted(result)


def _reshaped(base: FullCustomEstimate, width: float,
              height: float) -> FullCustomEstimate:
    return FullCustomEstimate(
        module_name=base.module_name,
        device_area_mode=base.device_area_mode,
        device_area=base.device_area,
        wire_area=base.wire_area,
        area=base.area,
        width=width,
        height=height,
        net_areas=base.net_areas,
    )
