"""Analytic track-sharing model (the paper's Section 7 future work).

"In the future ... the estimator will be changed to account for
routing channel track sharing in Standard-Cell layouts."  This module
implements that change, staying within the paper's
probability-of-placement framework:

* A net with D components spread over E(i) rows (Eq. 3) places a trunk
  in roughly ``max(ceil(E(i)) - 1, 1)`` channels.
* Given D points uniform on a row of unit length, the expected extent
  of their span is (D - 1)/(D + 1); a trunk therefore *covers* a
  uniformly chosen column of its channel with that probability.
* Summing coverage over all nets and dividing by the channel count
  gives the expected column density per channel.  Peak density (what a
  router must provide as tracks) exceeds the mean; a configurable
  ``congestion_margin`` (default 1.25) scales mean to peak.

The resulting track count replaces the paper's one-net-per-track upper
bound (Eq. 3's ``sum y_D * ceil(E(i))``), moving the Table 2 area
estimates from a ~2x overestimate to roughly router-accurate — the A1
benchmark quantifies this against routed layouts.

This stays an *estimate*: no placement is consulted, only the same
(D, y_D) histogram the rest of the estimator uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.probability import total_expected_tracks
from repro.errors import EstimationError
from repro.perf.kernels import expected_row_spread
from repro.units import round_up


@dataclass(frozen=True)
class SharedTrackEstimate:
    """Outcome of the analytic sharing model."""

    channels: int
    mean_density: float          # expected nets covering a column
    tracks_per_channel: int      # with the congestion margin applied
    total_tracks: int

    @property
    def sharing_factor_equivalent(self) -> float:
        """The ``track_sharing_factor`` this estimate corresponds to,
        relative to a given upper bound (set by the caller via
        :func:`equivalent_sharing_factor`)."""
        return float("nan")


def expected_span_fraction(components: int) -> float:
    """Expected extent of D uniform points on a unit row: (D-1)/(D+1).

    This is the classic order-statistics result E[max - min] for D
    i.i.d. uniforms; for D = 2 it is 1/3, approaching 1 as D grows.
    """
    if components < 1:
        raise EstimationError(
            f"components must be >= 1, got {components}"
        )
    if components == 1:
        return 0.0
    return (components - 1) / (components + 1)


def expected_channels_for_net(components: int, rows: int) -> int:
    """Channels a D-component net's trunks occupy.

    A net spread over r rows needs trunks in the r - 1 channels between
    them (feed-through insertion makes the occupied rows consecutive);
    a single-row net still uses one channel.
    """
    if components <= 1:
        return 0
    spread = round_up(expected_row_spread(components, rows))
    return max(spread - 1, 1)


def estimate_shared_tracks(
    net_size_histogram: Sequence[Tuple[int, int]],
    rows: int,
    congestion_margin: float = 1.25,
) -> SharedTrackEstimate:
    """Expected routed track count for a module.

    ``net_size_histogram`` is the scanner's (D, y_D) pairs; ``rows``
    the standard-cell row count (so there are rows + 1 channels).
    """
    if rows < 1:
        raise EstimationError(f"rows must be >= 1, got {rows}")
    if congestion_margin < 1.0:
        raise EstimationError(
            f"congestion_margin must be >= 1, got {congestion_margin}"
        )
    channels = rows + 1

    coverage = 0.0
    for components, count in net_size_histogram:
        if count < 0:
            raise EstimationError(
                f"negative net count for D={components}"
            )
        if components <= 1:
            continue
        trunk_channels = expected_channels_for_net(components, rows)
        # Pins facing one channel come from the two adjacent rows; the
        # trunk's span is governed by the components that landed there.
        # Using the full D is conservative (a trunk never spans more
        # than the whole net does).
        coverage += count * trunk_channels * expected_span_fraction(
            components
        )

    mean_density = coverage / channels
    tracks_per_channel = max(1, math.ceil(mean_density * congestion_margin))
    if coverage == 0.0:
        tracks_per_channel = 0
    # Sharing can only reduce the one-net-per-track count: the
    # per-channel ceiling can otherwise overshoot on degenerate
    # few-row modules.
    upper_bound = total_expected_tracks(net_size_histogram, rows)
    total = min(tracks_per_channel * channels, upper_bound)
    return SharedTrackEstimate(
        channels=channels,
        mean_density=mean_density,
        tracks_per_channel=tracks_per_channel,
        total_tracks=total,
    )


def equivalent_sharing_factor(
    shared_tracks: int, upper_bound_tracks: int
) -> float:
    """The ``EstimatorConfig.track_sharing_factor`` that would produce
    the analytic model's track count from the Eq. 3 upper bound."""
    if upper_bound_tracks <= 0:
        raise EstimationError(
            f"upper bound tracks must be positive, got {upper_bound_tracks}"
        )
    if shared_tracks < 0:
        raise EstimationError(
            f"shared tracks must be >= 0, got {shared_tracks}"
        )
    return min(1.0, max(shared_tracks / upper_bound_tracks, 1e-9))
