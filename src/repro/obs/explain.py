"""Term-by-term audit of an estimate (``mae explain``).

The paper's value is interpretability: Eqs. 2-11 decompose
standard-cell area into per-net track expectations and central-row
feed-through probabilities, and Eq. 13 decomposes full-custom area into
per-net interconnection areas.  This module recomputes every one of
those terms *per net* — not from the histogram the estimator uses —
prints them against the final Eq. 12/13 area, and **verifies** that the
printed terms re-assemble into exactly the area the estimator reported.
If explain and estimator ever drift apart, :meth:`verify` raises
instead of printing a plausible-looking lie.

Line-to-equation mapping (also in README "Interpreting an estimate"):

========================  =============================================
Report line               Paper equation
========================  =============================================
``scan`` header           Eq. 1 (N, H, W_avg from the schematic scan)
per-net ``E(i)``          Eqs. 2-3 (row-spread expectation)
per-net ``tracks``        Eq. 3 rounded up ("at least one track")
per-net ``P(central)``    Eq. 8 (general) / Eq. 9 (two-component)
``mean M`` line           Eq. 10 (binomial mean over H nets)
``E(M)`` line             Eq. 11 (rounded up)
``width``/``height``      Eq. 12 factors
``area``                  Eq. 12 / Eq. 13
``aspect``                Eq. 14
========================  =============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.core.config import EstimatorConfig
from repro.core.full_custom import (
    estimate_full_custom,
    net_interconnection_area,
)
from repro.core.probability import (
    central_feedthrough_probability,
    expected_feedthroughs,
    expected_row_spread,
    tracks_for_net,
)
from repro.core.results import FullCustomEstimate, StandardCellEstimate
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.errors import EstimationError, ObservabilityError
from repro.netlist.model import Module
from repro.netlist.stats import ModuleStatistics, scan_module
from repro.reporting import render_table
from repro.technology.process import ProcessDatabase
from repro.units import round_up

#: Relative tolerance for the "terms sum to the reported area" checks.
AREA_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NetTerm:
    """One net's contribution to the standard-cell estimate."""

    net: str
    components: int         # D
    expected_rows: float    # E(i), Eq. 3
    tracks: int             # ceil(E(i)), Eq. 3
    feed_probability: float  # P at the central row, Eq. 8/9


@dataclass(frozen=True)
class StandardCellExplanation:
    """Every term of Eq. 12, per net and assembled."""

    estimate: StandardCellEstimate
    stats: ModuleStatistics
    config: EstimatorConfig
    process_name: str
    row_height: float
    track_pitch: float
    feedthrough_width: float
    net_terms: Tuple[NetTerm, ...]
    single_component_nets: int
    raw_tracks: int          # sum of per-net tracks, pre-sharing
    tracks: int              # after track model / sharing factor
    feed_mean: float         # Eq. 10 binomial mean
    feedthroughs: int        # Eq. 11, rounded up

    @property
    def rows(self) -> int:
        return self.estimate.rows

    def width_terms(self) -> Tuple[float, float]:
        """(cell width per row, feed-through width) — Eq. 12 width."""
        return (
            self.stats.average_width * self.stats.device_count / self.rows,
            self.feedthroughs * self.feedthrough_width,
        )

    def height_terms(self) -> Tuple[float, float]:
        """(row stack height, track stack height) — Eq. 12 height."""
        return (
            self.rows * self.row_height,
            self.tracks * self.track_pitch,
        )

    def reconstructed_area(self) -> float:
        """Eq. 12 reassembled from the per-net terms shown in the report."""
        cell_width, feed_width = self.width_terms()
        row_height, track_height = self.height_terms()
        return (cell_width + feed_width) * (row_height + track_height)

    def verify(self) -> None:
        """Cross-check the per-net terms against the estimator's output.

        Raises :class:`ObservabilityError` if the terms do not
        re-assemble (within fp tolerance) into the reported estimate —
        the audit refuses to print numbers that do not add up.
        """
        per_net_tracks = sum(term.tracks for term in self.net_terms)
        if per_net_tracks != self.raw_tracks:
            raise ObservabilityError(
                f"per-net tracks sum to {per_net_tracks}, histogram total "
                f"is {self.raw_tracks}"
            )
        if self.tracks != self.estimate.tracks:
            raise ObservabilityError(
                f"explained track total {self.tracks} != estimator "
                f"{self.estimate.tracks}"
            )
        if self.feedthroughs != self.estimate.feedthroughs:
            raise ObservabilityError(
                f"explained feed-throughs {self.feedthroughs} != estimator "
                f"{self.estimate.feedthroughs}"
            )
        per_net_mean = sum(term.feed_probability for term in self.net_terms)
        if abs(per_net_mean - self.feed_mean) > 1e-9 * max(
            1.0, abs(self.feed_mean)
        ):
            raise ObservabilityError(
                f"per-net feed-through probabilities sum to {per_net_mean}, "
                f"binomial mean is {self.feed_mean}"
            )
        area = self.reconstructed_area()
        if abs(area - self.estimate.area) > AREA_TOLERANCE * max(
            1.0, abs(self.estimate.area)
        ):
            raise ObservabilityError(
                f"reconstructed area {area} != estimated "
                f"{self.estimate.area}"
            )


@dataclass(frozen=True)
class FullCustomExplanation:
    """Every term of Eq. 13, per net and assembled."""

    estimate: FullCustomEstimate
    stats: ModuleStatistics
    config: EstimatorConfig
    process_name: str
    net_areas: Tuple[Tuple[str, int, float], ...]  # (net, D, A_j)

    def reconstructed_area(self) -> float:
        """Eq. 13 reassembled: device area + sum of per-net A_j."""
        return self.estimate.device_area + sum(
            area for _, _, area in self.net_areas
        )

    def verify(self) -> None:
        area = self.reconstructed_area()
        if abs(area - self.estimate.area) > AREA_TOLERANCE * max(
            1.0, abs(self.estimate.area)
        ):
            raise ObservabilityError(
                f"reconstructed area {area} != estimated "
                f"{self.estimate.area}"
            )


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def explain_standard_cell(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> StandardCellExplanation:
    """Recompute the standard-cell estimate with per-net attribution."""
    config = config or EstimatorConfig()
    stats = scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )
    estimate = estimate_standard_cell_from_stats(stats, process, config)
    rows = estimate.rows

    terms = []
    singles = 0
    raw_tracks = 0
    for net in sorted(
        module.iter_signal_nets(config.power_nets), key=lambda n: n.name
    ):
        components = net.component_count
        if components == 0:
            continue  # port-only net: the scan skips these too
        if components == 1:
            singles += 1
            continue
        tracks = tracks_for_net(components, rows)
        raw_tracks += tracks
        if rows < 3:
            probability = 0.0
        elif config.feedthrough_model == "two-component":
            probability = central_feedthrough_probability(rows)
        else:
            probability = central_feedthrough_probability(
                rows, components, model="general"
            )
        terms.append(
            NetTerm(
                net=net.name,
                components=components,
                expected_rows=expected_row_spread(components, rows),
                tracks=tracks,
                feed_probability=probability,
            )
        )

    # Re-assemble the totals with the estimator's exact arithmetic (fp
    # evaluation order matters at the Eq. 3/11 ceil boundaries), so
    # verify() compares like for like.
    if config.track_model == "shared":
        from repro.core.sharing import estimate_shared_tracks

        shared = estimate_shared_tracks(
            stats.multi_component_nets,
            rows,
            config.congestion_margin,
        ).total_tracks
        tracks_total = min(shared, raw_tracks)
    else:
        tracks_total = math.ceil(raw_tracks * config.track_sharing_factor)

    if rows < 3 or not terms:
        feed_mean = 0.0
        feedthroughs = 0
    elif config.feedthrough_model == "two-component":
        probability = central_feedthrough_probability(rows)
        feed_mean = stats.routed_net_count * probability
        feedthroughs = expected_feedthroughs(
            stats.routed_net_count, probability
        )
    else:
        feed_mean = 0.0
        for components, count in stats.multi_component_nets:
            feed_mean += count * central_feedthrough_probability(
                rows, components, model="general"
            )
        feedthroughs = round_up(feed_mean)

    explanation = StandardCellExplanation(
        estimate=estimate,
        stats=stats,
        config=config,
        process_name=process.name,
        row_height=process.row_height,
        track_pitch=process.track_pitch,
        feedthrough_width=process.feedthrough_width,
        net_terms=tuple(terms),
        single_component_nets=singles,
        raw_tracks=raw_tracks,
        tracks=tracks_total,
        feed_mean=feed_mean,
        feedthroughs=feedthroughs,
    )
    explanation.verify()
    return explanation


def explain_full_custom(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> FullCustomExplanation:
    """Recompute the full-custom estimate with per-net attribution."""
    config = config or EstimatorConfig()
    stats = scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )
    estimate = estimate_full_custom(module, process, config, stats=stats)

    net_areas = []
    for net in sorted(
        module.iter_signal_nets(config.power_nets), key=lambda n: n.name
    ):
        if net.component_count == 0:
            continue
        area = net_interconnection_area(
            net, module, process, config, stats.average_width
        )
        net_areas.append((net.name, net.component_count, area))

    explanation = FullCustomExplanation(
        estimate=estimate,
        stats=stats,
        config=config,
        process_name=process.name,
        net_areas=tuple(net_areas),
    )
    explanation.verify()
    return explanation


# ----------------------------------------------------------------------
# module resolution (files or the built-in suites)
# ----------------------------------------------------------------------
def resolve_module(
    name_or_path: str, process: ProcessDatabase
) -> Module:
    """``mae explain`` input: a schematic file, or a built-in suite
    module name (``t1_*`` / ``t2_*``), so any Table 1/2 row can be
    audited without shipping a netlist file."""
    path = Path(name_or_path)
    if path.exists():
        from repro.core.estimator import ModuleAreaEstimator

        return ModuleAreaEstimator(process).load_schematic(path)
    suites = suite_modules()
    if name_or_path in suites:
        return suites[name_or_path]
    known = ", ".join(sorted(suites))
    raise EstimationError(
        f"{name_or_path!r} is neither a schematic file nor a built-in "
        f"suite module (known suite modules: {known})"
    )


def suite_modules() -> dict:
    """Name -> Module for every frozen Table 1 / Table 2 suite case."""
    from repro.workloads.suites import table1_suite, table2_suite

    modules = {}
    for case in table1_suite():
        modules[case.module.name] = case.module
    for case in table2_suite():
        modules[case.module.name] = case.module
    return modules


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_standard_cell_explanation(
    explanation: StandardCellExplanation,
) -> str:
    """The ``mae explain`` standard-cell report."""
    est = explanation.estimate
    stats = explanation.stats
    config = explanation.config
    rows = explanation.rows

    headers = ("Net", "D", "E(i) Eq.3", "Tracks", "P(central) Eq.8/9")
    body = [
        (
            term.net,
            term.components,
            f"{term.expected_rows:.4f}",
            term.tracks,
            f"{term.feed_probability:.6f}",
        )
        for term in explanation.net_terms
    ]
    table = render_table(
        headers, body,
        title=f"Per-net terms ({len(body)} routed nets, "
              f"{explanation.single_component_nets} single-component nets "
              f"contribute nothing)",
    )

    cell_width, feed_width = explanation.width_terms()
    row_height, track_height = explanation.height_terms()
    area = explanation.reconstructed_area()
    if config.track_model == "shared":
        track_note = (
            f"shared-density model (Section 7) caps the "
            f"{explanation.raw_tracks} raw tracks at {explanation.tracks}"
        )
    elif config.track_sharing_factor != 1.0:
        track_note = (
            f"x sharing factor {config.track_sharing_factor} "
            f"-> {explanation.tracks} tracks"
        )
    else:
        track_note = "upper bound: one net per track (the paper's model)"

    lines = [
        f"standard-cell estimate of {stats.module_name} "
        f"({explanation.process_name}, n={rows} rows)",
        "",
        f"Eq. 1    scan: N={stats.device_count} devices, "
        f"H={stats.net_count} signal nets, "
        f"W_avg={stats.average_width:.3f} lambda",
        "",
        table,
        "",
        f"Eqs. 2-3  total tracks: sum of per-net tracks = "
        f"{explanation.raw_tracks}  ({track_note})",
        f"Eq. 10    feed-through mean: sum of per-net P = "
        f"{explanation.feed_mean:.4f} over "
        f"{len(explanation.net_terms)} routed nets "
        f"(model={config.feedthrough_model})",
        f"Eq. 11    E(M) = ceil({explanation.feed_mean:.4f}) = "
        f"{explanation.feedthroughs} feed-throughs per row",
        "",
        "Eq. 12    area assembly:",
        f"  width  = W_avg*N/n + E(M)*f_w = {cell_width:.3f} + "
        f"{feed_width:.3f} = {cell_width + feed_width:.3f} lambda",
        f"  height = n*r_h + T*t_p = {row_height:.3f} + "
        f"{track_height:.3f} = {row_height + track_height:.3f} lambda",
        f"  area   = width * height = {area:.3f} lambda^2",
        f"  estimator reports {est.area:.3f} lambda^2 "
        f"(terms match within fp tolerance)",
        f"Eq. 14    aspect ratio = width/height = {est.aspect_ratio:.4f}",
    ]
    return "\n".join(lines)


#: Width of the ``mae explain --congestion`` heat bars (characters at
#: 100% of channel capacity).
_HEAT_WIDTH = 24

#: Human-readable labels for the capacity fallback chain
#: (:data:`repro.congestion.model.CAPACITY_SOURCES`).
_CAPACITY_SOURCE_LABELS = {
    "override": "explicit --channel-capacity override",
    "process": "process database",
    "default": "model default (no capacity in process description)",
}


def format_congestion_explanation(report) -> str:
    """The ``mae explain --congestion`` per-channel heatmap.

    ``report`` is a :class:`repro.congestion.model.CongestionReport`.
    Each channel gets a demand bar scaled so a full-capacity channel
    spans the full bar width; demand past capacity renders as ``!``.
    The capacity line always names its source, so a capacity that fell
    back to the model default (instead of coming from the loaded
    process description) is visible in the report.
    """
    distribution = report.distribution
    source = _CAPACITY_SOURCE_LABELS.get(
        report.capacity_source, report.capacity_source
    )
    headers = ("Channel", "Demand", "Crossing", "P(overflow)", "Heat")
    body = []
    for channel in range(distribution.channel_count):
        demand = distribution.demand_means[channel]
        fill = demand / report.capacity
        cells = int(round(fill * _HEAT_WIDTH))
        overflow = min(_HEAT_WIDTH, max(0, cells - _HEAT_WIDTH))
        bar = "#" * min(cells, _HEAT_WIDTH) + "!" * overflow
        body.append(
            (
                channel,
                f"{demand:.2f}",
                f"{distribution.crossing_means[channel]:.2f}",
                f"{distribution.exceedances[channel]:.4f}",
                bar,
            )
        )
    table = render_table(
        headers, body,
        title=f"Per-channel track demand ({distribution.channel_count} "
              f"channels; channel k runs below row k, channel 0 is "
              f"never used)",
    )
    worst = report.worst_channel
    lines = [
        f"congestion report for {report.module_name} "
        f"(n={report.rows} rows)",
        "",
        f"channel capacity: {report.capacity} tracks "
        f"(source: {source})",
        "",
        table,
        "",
        f"total demand: {report.total_demand:.3f} tracks, redistributed "
        f"from the module's Eq. 2-3 track total",
        f"worst channel: {worst} "
        f"(P(overflow)={distribution.exceedances[worst]:.4f})",
        f"routability score: P(no channel overflows) = "
        f"{report.routability:.6f}",
    ]
    return "\n".join(lines)


def format_full_custom_explanation(
    explanation: FullCustomExplanation,
) -> str:
    """The ``mae explain`` full-custom report."""
    est = explanation.estimate
    stats = explanation.stats

    headers = ("Net", "D", "A_j (lambda^2)")
    body = [
        (net, components, f"{area:.3f}")
        for net, components, area in explanation.net_areas
    ]
    table = render_table(
        headers, body,
        title="Per-net minimum interconnection areas (Section 4.2; "
              "A_j = 0 nets abut across the channel)",
    )
    area = explanation.reconstructed_area()
    lines = [
        f"full-custom estimate of {stats.module_name} "
        f"({explanation.process_name}, "
        f"device areas: {explanation.config.device_area_mode})",
        "",
        f"Eq. 1    scan: N={stats.device_count} devices, "
        f"H={stats.net_count} signal nets",
        "",
        table,
        "",
        f"Eq. 13   area = device area + sum A_j = "
        f"{est.device_area:.3f} + {est.wire_area:.3f} = "
        f"{area:.3f} lambda^2",
        f"  estimator reports {est.area:.3f} lambda^2 "
        f"(terms match within fp tolerance)",
        f"Sec. 5   dimensions {est.width:.1f} x {est.height:.1f} lambda "
        f"(aspect {est.aspect_ratio:.4f}, port criterion applied)",
    ]
    return "\n".join(lines)
