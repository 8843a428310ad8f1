"""Router-backed congestion accuracy envelope, committed.

The congestion model (:mod:`repro.congestion`) predicts *where* a
module's Eq. 2-3 track demand lands: an expected track count per
routing channel.  This module gates those predictions against the
in-repo routers — every corpus case is placed and channel-routed by
:func:`repro.layout.standard_cell_flow.layout_standard_cell` (the
global router assigns trunks to channels, the left-edge channel router
packs them into tracks), and the predicted per-channel demand is
compared against the routed per-channel track usage on two axes:

* **total error** — ``predicted_total / routed_total - 1``, the same
  relative-error convention as the area envelope.  The estimator's
  one-net-per-track model is an upper bound, so this sits mostly
  above zero.
* **shape error** — the total-variation distance between the
  *normalised* predicted and routed per-channel distributions, in
  [0, 1]: 0 means the model puts demand in exactly the channels the
  router fills, 1 means the distributions are disjoint.  This is the
  metric that catches a model that predicts the right total in the
  wrong channels.

``mae verify --check congestion_oracle`` runs this over the corpus;
the calibrated bounds are committed as
``VERIFY_congestion_envelope.json`` (``--congestion-report``), so
drift in either the model or the routers shows up as a reviewable
diff.  docs/ORACLES.md records the calibration run.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell
from repro.congestion.model import (
    congestion_distribution,
    resolve_channel_capacity,
)
from repro.errors import VerificationError
from repro.layout.annealing import AnnealingSchedule
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.netlist.model import Module
from repro.netlist.stats import scan_module
from repro.technology.process import ProcessDatabase
from repro.verify.corpus import CaseSpec

#: Artifact schema, bumped on shape changes.
CONGESTION_ENVELOPE_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class CongestionEnvelopeBounds:
    """Committed gates for predicted-vs-routed channel demand.

    Calibrated over the 0/1/2-base-seed corpus sweeps (54
    standard-cell cases, total error in [+0.00, +6.43], shape error
    <= 0.25) against the pinned verification schedule, then widened
    by a safety margin (docs/ORACLES.md records the observed ranges).
    The total-error band is wide and one-sided for a structural
    reason: the Eq. 2-3 demand model books one track per net segment,
    while the left-edge router packs a channel down to its density
    lower bound, so predictions sit well above routed usage — what the
    gate actually pins down is the *shape*: demand must land in the
    channels the router fills.
    """

    total_low: float = -0.50
    total_high: float = 8.00
    shape_max: float = 0.40

    def contains(self, total_error: float, shape_error: float) -> bool:
        return (
            self.total_low <= total_error <= self.total_high
            and shape_error <= self.shape_max
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CongestionEnvelopePoint:
    """One case's predicted-vs-routed per-channel comparison."""

    label: str
    family: str
    devices: int
    rows: int
    capacity: int
    predicted_total: float       # sum of per-channel demand means
    routed_total: int            # sum of routed channel tracks
    total_error: float           # predicted/routed - 1
    shape_error: float           # TV distance of normalised profiles
    routability: float           # P(no channel overflows), model view
    within: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def shape_distance(
    predicted: Sequence[float], routed: Sequence[float]
) -> float:
    """Total-variation distance between two demand profiles.

    Each profile is normalised to a distribution over channels first;
    an all-zero profile is treated as matching anything (distance 0),
    so trivially-unrouted modules cannot fail the shape gate.
    """
    if len(predicted) != len(routed):
        raise VerificationError(
            f"profile lengths differ: {len(predicted)} != {len(routed)}"
        )
    predicted_total = float(sum(predicted))
    routed_total = float(sum(routed))
    if predicted_total <= 0.0 or routed_total <= 0.0:
        return 0.0
    distance = 0.0
    for expected, observed in zip(predicted, routed):
        distance += abs(
            expected / predicted_total - observed / routed_total
        )
    return distance / 2.0


def measure_congestion_case(
    spec: CaseSpec,
    module: Module,
    process: ProcessDatabase,
    bounds: CongestionEnvelopeBounds,
    schedule: Optional[AnnealingSchedule] = None,
    config: Optional[EstimatorConfig] = None,
    capacity: Optional[int] = None,
) -> CongestionEnvelopePoint:
    """Predict and route one case; record both error axes.

    The oracle runs at the estimator's own Section 5 row choice
    (clamped to the device count, exactly like the area envelope), so
    prediction and routing describe the same channel structure.
    Standard-cell cases only — the full-custom flow has no channels.
    """
    if spec.methodology != "standard-cell":
        raise VerificationError(
            f"case {spec.label}: congestion oracle needs a standard-cell "
            f"case, got {spec.methodology}"
        )
    from repro.verify.envelope import verification_schedule

    schedule = schedule or verification_schedule()
    config = config or EstimatorConfig()
    estimate = estimate_standard_cell(module, process, config)
    rows = min(estimate.rows, module.device_count)
    resolved_capacity, _ = resolve_channel_capacity(process, capacity)
    stats = scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )
    distribution = congestion_distribution(
        stats.multi_component_nets, rows, resolved_capacity
    )
    oracle = layout_standard_cell(
        module, process, rows=rows, seed=spec.seed, schedule=schedule,
        config=config,
    )
    routed = [
        oracle.channel_tracks.get(channel, 0)
        for channel in range(rows + 1)
    ]
    predicted_total = distribution.total_demand
    routed_total = sum(routed)
    total_error = predicted_total / max(1, routed_total) - 1.0
    shape_error = shape_distance(distribution.demand_means, routed)
    return CongestionEnvelopePoint(
        label=spec.label,
        family=spec.family,
        devices=module.device_count,
        rows=rows,
        capacity=resolved_capacity,
        predicted_total=predicted_total,
        routed_total=routed_total,
        total_error=total_error,
        shape_error=shape_error,
        routability=distribution.routability,
        within=bounds.contains(total_error, shape_error),
    )


def summarize_congestion(
    points: Sequence[CongestionEnvelopePoint],
    bounds: CongestionEnvelopeBounds,
) -> Dict[str, object]:
    """Aggregate both error axes, area-envelope style."""
    summary: Dict[str, object] = {
        "cases": len(points),
        "bounds": bounds.to_dict(),
        "violations": sum(1 for point in points if not point.within),
    }
    if points:
        totals = [point.total_error for point in points]
        shapes = [point.shape_error for point in points]
        summary.update(
            min_total_error=min(totals),
            max_total_error=max(totals),
            mean_total_error=sum(totals) / len(totals),
            max_shape_error=max(shapes),
            mean_shape_error=sum(shapes) / len(shapes),
        )
    return summary


def measure_congestion_envelope(
    specs: Sequence[CaseSpec],
    process: ProcessDatabase,
    bounds: Optional[CongestionEnvelopeBounds] = None,
    schedule: Optional[AnnealingSchedule] = None,
) -> dict:
    """The full envelope record over the corpus slice (standard-cell
    cases only)."""
    bounds = bounds or CongestionEnvelopeBounds()
    points: List[CongestionEnvelopePoint] = []
    for spec in specs:
        if spec.methodology != "standard-cell":
            continue
        points.append(
            measure_congestion_case(
                spec, spec.build(), process, bounds, schedule
            )
        )
    if not points:
        raise VerificationError(
            "congestion envelope: no standard-cell cases in the corpus "
            "slice"
        )
    return {
        "schema_version": CONGESTION_ENVELOPE_SCHEMA_VERSION,
        "benchmark": "congestion_envelope",
        "bounds": bounds.to_dict(),
        "cases": [point.to_dict() for point in points],
        "summary": summarize_congestion(points, bounds),
    }


def save_congestion_envelope(record: dict, path: str) -> None:
    """Write the envelope artifact (sorted keys, trailing newline — the
    committed-diff format)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_congestion_envelope(path: str) -> dict:
    """Read an envelope artifact back, validating the schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("schema_version") != CONGESTION_ENVELOPE_SCHEMA_VERSION:
        raise VerificationError(
            f"congestion envelope {path!r}: schema "
            f"{record.get('schema_version')!r} != "
            f"{CONGESTION_ENVELOPE_SCHEMA_VERSION}"
        )
    return record
