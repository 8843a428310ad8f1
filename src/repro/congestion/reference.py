"""Fraction-exact reference for the congestion model.

The production path (:mod:`repro.congestion.model`) runs in float64.
This module re-derives the same quantities in exact rational
arithmetic, which makes two properties *provable by evaluation* rather
than approximately testable:

* the per-channel crossing probability really is the probability of a
  disjoint union, so it lies in [0, 1] without clamping;
* the per-entry channel weights sum to exactly 1, so the allocated
  per-channel demand means telescope to exactly the module's total
  Eq. 2-3 track count — the congestion model redistributes the
  estimator's demand, it never invents or loses any.

The float path is then validated against these Fractions within a
stated tolerance (see ``tests/test_congestion.py``), the same
reference-oracle pattern as ``surjection_count_recurrence``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from repro.errors import EstimationError
from repro.perf.kernels import tracks_for_net


def exact_crossing_probability(
    components: int, rows: int, channel: int
) -> Fraction:
    """The channel-k crossing probability as an exact rational.

    Same closed form as
    :func:`repro.perf.kernels.channel_crossing_probability`::

        P = 1 - (k/n)^D - ((n-k)/n)^D + (1/n)^D

    evaluated in :class:`~fractions.Fraction` arithmetic.  No clamp is
    applied — the value is in [0, 1] by construction, which the
    property suite asserts.
    """
    if components < 1:
        raise EstimationError(
            f"components must be >= 1, got {components}"
        )
    if rows < 1:
        raise EstimationError(f"rows must be >= 1, got {rows}")
    if not 0 <= channel <= rows:
        raise EstimationError(f"channel {channel} out of range 0..{rows}")
    if components < 2 or channel == 0:
        return Fraction(0)
    return (
        1
        - Fraction(channel, rows) ** components
        - Fraction(rows - channel, rows) ** components
        + Fraction(1, rows) ** components
    )


def exact_channel_weights(
    components: int, rows: int
) -> Tuple[Fraction, ...]:
    """Normalised channel-allocation weights for one net size.

    ``weights[k]`` is the fraction of a D-component net's track demand
    allocated to channel k; the normaliser is the expected number of
    channels the net uses, which is >= 1 for every D >= 2 (every
    routed net uses at least one channel with certainty), so the
    division is always defined.  The weights sum to exactly 1.
    """
    probabilities = [
        exact_crossing_probability(components, rows, channel)
        for channel in range(rows + 1)
    ]
    total = sum(probabilities)
    if total <= 0:
        raise EstimationError(
            f"net size {components} has zero channel mass at {rows} rows"
        )
    return tuple(p / total for p in probabilities)


def exact_demand_means(
    net_size_histogram: Sequence[Tuple[int, int]],
    rows: int,
) -> Tuple[Fraction, ...]:
    """Exact per-channel expected track demand for a whole histogram.

    Each net size's integer Eq. 2-3 track count (``tracks_for_net``)
    is distributed over channels 0..rows by
    :func:`exact_channel_weights`; summing the result over channels
    recovers :func:`exact_total_tracks` *exactly* — the property the
    float path is tested against.
    """
    if rows < 1:
        raise EstimationError(f"rows must be >= 1, got {rows}")
    means = [Fraction(0)] * (rows + 1)
    for components, count in net_size_histogram:
        if components < 2:
            continue
        demand = count * tracks_for_net(components, rows)
        for channel, weight in enumerate(
            exact_channel_weights(components, rows)
        ):
            means[channel] += demand * weight
    return tuple(means)


def exact_total_tracks(
    net_size_histogram: Sequence[Tuple[int, int]],
    rows: int,
) -> int:
    """The module's total Eq. 2-3 track demand (the estimator's own
    per-module count): ``sum_D y_D * tracks_for_net(D, n)``."""
    if rows < 1:
        raise EstimationError(f"rows must be >= 1, got {rows}")
    return sum(
        count * tracks_for_net(components, rows)
        for components, count in net_size_histogram
        if components >= 2
    )


__all__ = [
    "exact_channel_weights",
    "exact_crossing_probability",
    "exact_demand_means",
    "exact_total_tracks",
]
