"""Gate-array area estimation (extension).

Section 1 names three popular methodologies — Full-Custom,
Standard-Cell, and Gate Array — and covers the first two; "the
remaining methodologies and Gate Arrays are not covered here".  This
module adds the third, so the floorplanner can weigh all three, using
the same statistics scan as the paper's estimators.

Model
-----
A gate array is a prediffused die of identical *sites* arranged in
rows, with fixed-capacity routing channels between site rows.  Mapping
a netlist onto it:

* every device consumes ``site_equivalents(cell)`` sites — gates map by
  transistor-pair count (a site is one 2-transistor pair cell);
* the routing channels have a *fixed* number of tracks per channel.
  The design's expected track demand per channel (from the same
  probability model as Eq. 3, or the analytic sharing model) must fit;
  if it does not, the array must be *under-utilised*: rows are added
  (spreading the logic) until per-channel demand fits the capacity.
  This is the classic gate-array utilisation wall.

The estimate reports the chosen array (rows x columns), the achieved
utilisation, and the die area.  Unlike standard cells, the array
height does not grow with track demand — the channel capacity is
fixed at fabrication, which is exactly the trade-off that made gate
arrays cheap but area-hungry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import EstimatorConfig
from repro.core.sharing import estimate_shared_tracks
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.netlist.stats import ModuleStatistics, scan_module
from repro.technology.process import DeviceKind, ProcessDatabase
from repro.units import normalized_aspect

#: Site equivalents by pin count: a 2-input gate is one site, larger
#: gates and storage elements consume proportionally more.
_SITES_BY_PINS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4}
_SITES_SEQUENTIAL = 4  # flip-flops / latches


@dataclass(frozen=True)
class GateArraySpec:
    """Geometry of one prediffused array family."""

    site_width: float = 16.0        # lambda
    site_height: float = 40.0       # lambda (one site row)
    channel_tracks: int = 10        # fixed tracks per routing channel
    track_pitch: float = 7.0
    max_rows: int = 128

    def __post_init__(self) -> None:
        if self.site_width <= 0 or self.site_height <= 0:
            raise EstimationError("site dimensions must be positive")
        if self.channel_tracks < 1:
            raise EstimationError("channel_tracks must be >= 1")
        if self.max_rows < 1:
            raise EstimationError("max_rows must be >= 1")

    @property
    def row_pitch(self) -> float:
        """One site row plus its channel."""
        return self.site_height + self.channel_tracks * self.track_pitch


@dataclass(frozen=True)
class GateArrayEstimate:
    """A gate-array mapping of one module."""

    module_name: str
    rows: int
    columns: int
    sites_used: int
    sites_total: int
    demand_tracks_per_channel: int
    capacity_tracks_per_channel: int
    width: float
    height: float
    area: float

    @property
    def utilization(self) -> float:
        if self.sites_total == 0:
            return 0.0
        return self.sites_used / self.sites_total

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height

    @property
    def normalized_aspect(self) -> float:
        return normalized_aspect(self.width, self.height)

    @property
    def routing_limited(self) -> bool:
        """True when channel capacity (not site count) set the size."""
        return self.demand_tracks_per_channel >= (
            self.capacity_tracks_per_channel
        )


def site_equivalents(module: Module, process: ProcessDatabase) -> int:
    """Total sites the module's devices consume."""
    total = 0
    for device in module.devices:
        device_type = process.device_type(device.cell)
        if device_type.kind is DeviceKind.TRANSISTOR:
            # Two transistors share one site pair.
            total += 1
            continue
        name = device.cell.upper()
        if name.startswith(("DFF", "DLATCH")):
            total += _SITES_SEQUENTIAL
        else:
            inputs = max(1, device_type.pin_count - 1)
            total += _SITES_BY_PINS.get(inputs, inputs - 1)
    return total


def estimate_gate_array(
    module: Module,
    process: ProcessDatabase,
    spec: Optional[GateArraySpec] = None,
    config: Optional[EstimatorConfig] = None,
) -> GateArrayEstimate:
    """Map a module onto the smallest feasible gate array.

    Rows grow from the near-square count until (a) all sites fit and
    (b) the per-channel track demand fits the fixed channel capacity.
    """
    spec = spec or GateArraySpec()
    config = config or EstimatorConfig()
    if module.device_count == 0:
        raise EstimationError(
            f"module {module.name!r}: cannot estimate an empty module"
        )

    stats = scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )
    sites = site_equivalents(module, process)

    rows = max(1, round(math.sqrt(
        sites * spec.site_width / spec.row_pitch
    )))
    while rows <= spec.max_rows:
        columns = math.ceil(sites / rows)
        demand = _per_channel_demand(stats, rows, config)
        if demand <= spec.channel_tracks:
            return _build_estimate(
                stats.module_name, spec, rows, columns, sites, demand
            )
        rows += 1
    raise EstimationError(
        f"module {stats.module_name!r}: routing demand exceeds channel "
        f"capacity even at {spec.max_rows} rows; use a richer array "
        "(raise channel_tracks) or a channelled methodology"
    )


def compare_methodologies(
    module: Module,
    process: ProcessDatabase,
    spec: Optional[GateArraySpec] = None,
    config: Optional[EstimatorConfig] = None,
) -> Dict[str, float]:
    """Areas under all three methodologies (gate-level modules).

    Returns {methodology: area}; full-custom requires a transistor
    expansion and is included only when every cell is expandable.
    """
    from repro.core.standard_cell import estimate_standard_cell
    from repro.errors import NetlistError
    from repro.workloads.generators import expand_to_transistors

    areas: Dict[str, float] = {}
    areas["standard-cell"] = estimate_standard_cell(
        module, process, config
    ).area
    areas["gate-array"] = estimate_gate_array(
        module, process, spec, config
    ).area
    try:
        from repro.core.full_custom import estimate_full_custom

        transistor_level = expand_to_transistors(module)
        areas["full-custom"] = estimate_full_custom(
            transistor_level, process, config
        ).area
    except NetlistError:
        pass  # cells without an nMOS expansion: skip full-custom
    return areas


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _per_channel_demand(
    stats: ModuleStatistics, rows: int, config: EstimatorConfig
) -> int:
    shared = estimate_shared_tracks(
        stats.multi_component_nets,
        rows,
        config.congestion_margin,
    )
    return shared.tracks_per_channel


def _build_estimate(
    name: str,
    spec: GateArraySpec,
    rows: int,
    columns: int,
    sites: int,
    demand: int,
) -> GateArrayEstimate:
    width = columns * spec.site_width
    height = rows * spec.row_pitch
    return GateArrayEstimate(
        module_name=name,
        rows=rows,
        columns=columns,
        sites_used=sites,
        sites_total=rows * columns,
        demand_tracks_per_channel=demand,
        capacity_tracks_per_channel=spec.channel_tracks,
        width=width,
        height=height,
        area=width * height,
    )
