"""Probabilistic placement models of Section 4.1.

Two questions drive the standard-cell estimate, both answered under the
assumption that each of a net's D components lands in one of n rows
uniformly and independently:

1. **Over how many rows does a net spread?**  (Eqs. 2-3.)  A net placed
   in i rows needs roughly i routing tracks (one per channel it
   touches), so the expected spread E(i) converts net sizes into track
   demand.  The paper's Eq. 2 denominator n**min(n, D) and the exact
   multinomial n**D are constants that cancel under normalisation, so
   the published and the exact forms are one PMF, computed once.

2. **Which row do feed-throughs hit, and how many are there?**
   (Eqs. 4-11.)  A net whose components straddle row i contributes one
   feed-through to row i.  The paper shows the central row
   i = (n+1)/2 maximises this probability, derives its limiting value
   1/2, and models the feed-through count as a binomial over the H nets.

Everything here is exact combinatorics on Python integers (no floating
subtraction of near-equal terms); Monte-Carlo simulators are provided so
property tests — and the S1 benchmark reproducing the paper's
"numerical simulation results" — can check the closed forms against
brute force.

The hot kernels (row-spread PMF, track demand, central feed-through
probability, surjection counts) are implemented and memoized in
:mod:`repro.perf.kernels`; the public functions here are thin wrappers
so every caller — estimator, sweep, batch engine — shares one
process-wide cache.  Results are bit-identical to the original
closed forms (the kernels perform the same arithmetic in the same
order).
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.errors import EstimationError
from repro.obs.trace import current_tracer
from repro.perf import kernels as _kernels
from repro.units import round_up


# ----------------------------------------------------------------------
# Eq. 2: b[i] and the row-spread distribution
# ----------------------------------------------------------------------
def surjection_count(components: int, rows: int) -> int:
    """The paper's b[i]: ways to place D labelled components in exactly
    ``rows`` specific rows so no row is empty; equals
    ``i! * Stirling2(D, i)``.

    Computed from the iterative Stirling table of
    :func:`repro.perf.kernels.surjection_table` — one O(D * i) pass,
    no recursion, no ``rows**components`` big-integer powers.  The
    paper's literal recurrence survives as
    :func:`surjection_count_recurrence`, kept solely as a test oracle.
    """
    return _kernels.surjection_count(components, rows)


@lru_cache(maxsize=4096)
def surjection_count_recurrence(components: int, rows: int) -> int:
    """Test oracle: the paper's recurrence
    ``b[i] = i**D - sum_j C(i, j) * b[j]`` (inclusion-exclusion),
    evaluated literally.

    Recursion depth grows with ``rows`` and every level computes a
    ``rows**components`` power, so this is exponential-flavoured and
    raises ``RecursionError`` for large inputs — which is exactly why
    the estimator no longer uses it.  Property tests assert agreement
    with the iterative table for D, n <= 60.
    """
    _check_positive("components", components)
    _check_positive("rows", rows)
    if rows > components:
        return 0
    total = rows ** components
    for smaller in range(1, rows):
        total -= math.comb(rows, smaller) * surjection_count_recurrence(
            components, smaller
        )
    return total


def row_spread_pmf(components: int, rows: int) -> Tuple[float, ...]:
    """P_rows(i) for i = 1..min(n, D): probability a D-component net
    occupies exactly i of the n rows (Eq. 2).

    The paper divides by n**k with k = min(n, D); the true multinomial
    divides by n**D.  Either denominator is a constant across i, so it
    cancels when the weights ``C(n, i) * b[i]`` are normalised: the
    published and the exact form are one PMF.  The kernel normalises in
    integers, so the result is correctly rounded for any D.
    """
    return _kernels.row_spread_pmf(components, rows)


def expected_row_spread(components: int, rows: int) -> float:
    """E(i) of Eq. 3: expected number of rows a net's components occupy."""
    return _kernels.expected_row_spread(components, rows)


def tracks_for_net(components: int, rows: int) -> int:
    """Routing tracks demanded by one net: E(i) rounded up (Eq. 3).

    "One net needs at least one track"; a single-component net needs no
    routing at all and returns 0.
    """
    return _kernels.tracks_for_net(components, rows)


def total_expected_tracks(
    net_size_histogram: Sequence[Tuple[int, int]], rows: int
) -> int:
    """Expectation value of the total track count over all nets.

    ``net_size_histogram`` is the scanner's (D, y_D) pairs; Eq. 3
    applied per distinct D, weighted by y_D.
    """
    tracer = current_tracer()
    with tracer.span("probability.total_tracks") as span:
        total = 0
        nets = 0
        for components, count in net_size_histogram:
            if count < 0:
                raise EstimationError(
                    f"net-size histogram has negative count for D={components}"
                )
            total += count * tracks_for_net(components, rows)
            nets += count
        if tracer.enabled:
            span.set("nets", nets)
            span.set("tracks", total)
            tracer.metrics.incr("probability.track_evals")
    return total


# ----------------------------------------------------------------------
# Eqs. 4-8: feed-through probability per row
# ----------------------------------------------------------------------
def feedthrough_probability(
    components: int, rows: int, row: int
) -> float:
    """Probability a D-component net contributes a feed-through to the
    given row (Eq. 5 in closed form).

    A feed-through in ``row`` requires at least one component strictly
    above and at least one strictly below.  With per-component
    probabilities a = (row-1)/n above, b = (n-row)/n below, the paper's
    double sum over (l components in the row, j above, rest below)
    collapses by inclusion-exclusion to::

        P = 1 - (1 - a)**D - (1 - b)**D + (1/n)**D

    ``feedthrough_probability_paper_sum`` evaluates the published double
    sum literally; property tests assert the two agree.
    """
    return _kernels.feedthrough_probability(components, rows, row)


def feedthrough_probability_paper_sum(
    components: int, rows: int, row: int
) -> float:
    """Eq. 5 exactly as printed: sum over l in-row components and j
    components above the row."""
    _check_positive("components", components)
    _check_positive("rows", rows)
    if not 1 <= row <= rows:
        raise EstimationError(f"row {row} out of range 1..{rows}")
    if components < 2:
        return 0.0
    above = (row - 1) / rows
    below = (rows - row) / rows
    inside = 1.0 / rows
    total = 0.0
    for in_row in range(0, components - 1):          # l = 0 .. D-2
        remaining = components - in_row
        choose_in_row = math.comb(components, in_row) * inside ** in_row
        inner = 0.0
        for j in range(1, remaining):                # j = 1 .. D-l-1
            inner += (
                math.comb(remaining, j)
                * above ** j
                * below ** (remaining - j)
            )
        total += choose_in_row * inner
    return total


def central_row(rows: int) -> float:
    """The row index maximising feed-through probability: (n+1)/2 (Eq. 7)."""
    _check_positive("rows", rows)
    return (rows + 1) / 2


def feedthrough_argmax_row(components: int, rows: int) -> int:
    """Integer row with the highest feed-through probability.

    For even n the two middle rows tie (by symmetry); the lower index is
    returned.  The S1 benchmark sweeps this against the analytic
    (n+1)/2 claim.
    """
    best_row = 1
    best_probability = -1.0
    for row in range(1, rows + 1):
        probability = feedthrough_probability(components, rows, row)
        if probability > best_probability + 1e-15:
            best_probability = probability
            best_row = row
    return best_row


def central_feedthrough_probability(
    rows: int, components: int = 2, model: str = "two-component"
) -> float:
    """Feed-through probability at the central row.

    ``model="two-component"`` is the paper's simplification (Eq. 9):
    P = (n-1)^2 / (2 n^2), independent of D, with limit 1/2 as n grows.
    ``model="general"`` evaluates the closed form at i = (n+1)/2 for the
    actual D (Eq. 8); for even n it averages the two central rows.
    """
    return _kernels.central_feedthrough_probability(rows, components, model)


# ----------------------------------------------------------------------
# Eqs. 10-11: expected feed-through count in the central row
# ----------------------------------------------------------------------
def feedthrough_count_pmf(nets: int, probability: float) -> Tuple[float, ...]:
    """Eq. 10: P(M feed-throughs among H nets), M = 0..H (binomial)."""
    if nets < 0:
        raise EstimationError(f"net count must be >= 0, got {nets}")
    if not 0.0 <= probability <= 1.0:
        raise EstimationError(
            f"probability must be in [0, 1], got {probability}"
        )
    return tuple(
        math.comb(nets, m)
        * probability ** m
        * (1.0 - probability) ** (nets - m)
        for m in range(nets + 1)
    )


def expected_feedthroughs(nets: int, probability: float) -> int:
    """Eq. 11: E(M) rounded up to an integer.

    The binomial mean H*p equals the paper's explicit sum
    ``sum_M M * P[M]``; tests assert the identity.
    """
    if nets == 0:
        return 0
    mean = nets * probability
    tracer = current_tracer()
    if tracer.enabled:
        tracer.metrics.incr("feedthrough.evals")
        tracer.metrics.incr("feedthrough.mean_sum", mean)
    return round_up(mean)


# ----------------------------------------------------------------------
# Monte-Carlo oracles (for tests and the S1 benchmark)
# ----------------------------------------------------------------------
def simulate_row_spread(
    components: int,
    rows: int,
    trials: int,
    rng: Optional[random.Random] = None,
) -> List[float]:
    """Empirical row-spread PMF from random uniform placements."""
    _check_positive("trials", trials)
    rng = rng or random.Random(0)
    max_spread = min(rows, components)
    counts = [0] * max_spread
    for _ in range(trials):
        occupied = {rng.randrange(rows) for _ in range(components)}
        counts[len(occupied) - 1] += 1
    return [count / trials for count in counts]


def simulate_feedthrough_probability(
    components: int,
    rows: int,
    row: int,
    trials: int,
    rng: Optional[random.Random] = None,
) -> float:
    """Empirical probability that a random placement of a net straddles
    ``row`` (at least one component above and one below)."""
    _check_positive("trials", trials)
    rng = rng or random.Random(0)
    hits = 0
    for _ in range(trials):
        placement = [rng.randrange(1, rows + 1) for _ in range(components)]
        if any(p < row for p in placement) and any(p > row for p in placement):
            hits += 1
    return hits / trials


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _check_positive(label: str, value: int) -> None:
    if value < 1:
        raise EstimationError(f"{label} must be >= 1, got {value}")
