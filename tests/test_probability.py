"""Tests for the Section 4.1 probability models (Eqs. 2-11).

The closed forms are checked three ways: against each other (paper's
double sum vs inclusion-exclusion), against exact combinatorial
identities, and against Monte-Carlo simulation.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import probability as prob
from repro.errors import EstimationError


def published_pmf(components: int, rows: int, exponent: int):
    """Eq. 2 over the denominator ``rows**exponent``, renormalised in
    exact rationals and rounded once per entry."""
    weights = [
        Fraction(math.comb(rows, i) * prob.surjection_count(components, i),
                 rows ** exponent)
        for i in range(1, min(rows, components) + 1)
    ]
    total = sum(weights)
    return tuple(float(weight / total) for weight in weights)


def stirling2(n: int, k: int) -> int:
    """Reference Stirling numbers of the second kind."""
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    total = 0
    for j in range(k + 1):
        total += (-1) ** j * math.comb(k, j) * (k - j) ** n
    return total // math.factorial(k)


class TestSurjectionCount:
    def test_base_case(self):
        assert prob.surjection_count(5, 1) == 1

    def test_matches_stirling(self):
        for components in range(1, 9):
            for rows in range(1, components + 1):
                expected = math.factorial(rows) * stirling2(components, rows)
                assert prob.surjection_count(components, rows) == expected

    def test_zero_when_rows_exceed_components(self):
        assert prob.surjection_count(3, 4) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(EstimationError):
            prob.surjection_count(0, 1)
        with pytest.raises(EstimationError):
            prob.surjection_count(1, 0)

    @given(components=st.integers(1, 12))
    def test_sum_over_rows_is_total_placements(self, components):
        """sum_i C(n,i)*b[i] over i = n^D for n = D (every placement
        occupies *some* exact set of rows)."""
        n = components
        total = sum(
            math.comb(n, i) * prob.surjection_count(components, i)
            for i in range(1, n + 1)
        )
        assert total == n ** components


class TestSurjectionRecurrenceOracle:
    """The iterative Stirling table vs the paper's literal recurrence.

    The recurrence (``surjection_count_recurrence``) is kept solely as
    a test oracle: it recurses once per row value and computes
    ``rows**components`` powers at every level, so the estimator itself
    uses the iterative table.  Here the two must agree exactly.
    """

    @given(components=st.integers(1, 60), rows=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_iterative_matches_recurrence(self, components, rows):
        assert prob.surjection_count(
            components, rows
        ) == prob.surjection_count_recurrence(components, rows)

    def test_large_inputs_do_not_recurse(self):
        """Inputs far beyond any sane netlist must not raise
        RecursionError (the seed recurrence would)."""
        value = prob.surjection_count(2000, 150)
        assert value > 0

    def test_oracle_matches_stirling_identity(self):
        for components in range(1, 20):
            rows = (components % 7) + 1
            assert prob.surjection_count_recurrence(
                components, rows
            ) == math.factorial(rows) * stirling2(components, rows)


class TestRowSpreadPmf:
    @given(components=st.integers(1, 10), rows=st.integers(1, 10))
    def test_is_a_distribution(self, components, rows):
        pmf = prob.row_spread_pmf(components, rows)
        assert len(pmf) == min(rows, components)
        assert all(p >= 0 for p in pmf)
        assert sum(pmf) == pytest.approx(1.0)

    @given(components=st.integers(1, 8), rows=st.integers(1, 8))
    def test_modes_agree_when_d_le_n(self, components, rows):
        # For D <= n the paper's exponent min(n, D) is D itself, so the
        # printed Eq. 2 weights already sum to one.
        if components <= rows:
            printed = [
                Fraction(math.comb(rows, i)
                         * prob.surjection_count(components, i),
                         rows ** components)
                for i in range(1, components + 1)
            ]
            assert sum(printed) == 1
            assert prob.row_spread_pmf(components, rows) == tuple(
                float(weight) for weight in printed
            )

    def test_single_row_is_certain(self):
        assert prob.row_spread_pmf(5, 1) == (1.0,)

    def test_single_component_one_row(self):
        assert prob.row_spread_pmf(1, 7) == (1.0,)

    def test_known_value_two_components(self):
        # D=2, n=4: same row with probability 1/4.
        pmf = prob.row_spread_pmf(2, 4)
        assert pmf[0] == pytest.approx(0.25)
        assert pmf[1] == pytest.approx(0.75)

    def test_exact_matches_simulation(self, rng):
        for components, rows in ((3, 4), (5, 3), (6, 6)):
            analytic = prob.row_spread_pmf(components, rows)
            empirical = prob.simulate_row_spread(components, rows, 30_000,
                                                 rng)
            for a, e in zip(analytic, empirical):
                assert a == pytest.approx(e, abs=0.02)


class TestExpectedRowSpread:
    @given(components=st.integers(1, 10), rows=st.integers(1, 10))
    def test_bounds(self, components, rows):
        expected = prob.expected_row_spread(components, rows)
        assert 1.0 <= expected <= min(components, rows) + 1e-12

    def test_monotone_in_components(self):
        values = [prob.expected_row_spread(d, 5) for d in range(1, 9)]
        assert values == sorted(values)

    def test_known_value(self):
        # D=2, n=2: E = 1*(1/2) + 2*(1/2) = 1.5
        assert prob.expected_row_spread(2, 2) == pytest.approx(1.5)


class TestTracksForNet:
    def test_single_component_needs_nothing(self):
        assert prob.tracks_for_net(1, 5) == 0

    def test_at_least_one_track(self):
        assert prob.tracks_for_net(2, 1) == 1

    def test_round_up_applied(self):
        # E(2, 2) = 1.5 -> 2 tracks
        assert prob.tracks_for_net(2, 2) == 2

    @given(components=st.integers(2, 10), rows=st.integers(1, 10))
    def test_bounded_by_min_n_d(self, components, rows):
        tracks = prob.tracks_for_net(components, rows)
        assert 1 <= tracks <= min(components, rows) + 1


class TestHighFanout:
    """Clock, reset and enable nets reach hundreds of pins.  The
    kernels normalise the row-spread PMF in integer arithmetic, so no
    float intermediate overflows however large D grows."""

    @given(components=st.integers(1, 1024), rows=st.integers(1, 64))
    def test_kernels_stay_finite_and_bounded(self, components, rows):
        expected = prob.expected_row_spread(components, rows)
        assert math.isfinite(expected)
        # The sum of i * P(i) may overshoot min(n, D) by float rounding.
        assert 1.0 <= expected <= min(components, rows) * (1 + 1e-12)
        if components >= 2:
            assert prob.tracks_for_net(components, rows) >= 1

    @given(components=st.integers(1, 1024), rows=st.integers(1, 64))
    def test_modes_give_bit_identical_pmfs(self, components, rows):
        # The paper's n**min(n, D) and the multinomial n**D are
        # constants that cancel under normalisation: both published
        # forms are the kernel's PMF, correctly rounded.
        pmf = prob.row_spread_pmf(components, rows)
        assert pmf == published_pmf(components, rows, min(rows, components))
        assert pmf == published_pmf(components, rows, components)


class TestTotalExpectedTracks:
    def test_weighted_sum(self):
        histogram = [(2, 10), (3, 5)]
        expected = (
            10 * prob.tracks_for_net(2, 4) + 5 * prob.tracks_for_net(3, 4)
        )
        assert prob.total_expected_tracks(histogram, 4) == expected

    def test_empty_histogram(self):
        assert prob.total_expected_tracks([], 4) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(EstimationError):
            prob.total_expected_tracks([(2, -1)], 4)


class TestFeedthroughProbability:
    @given(
        components=st.integers(2, 10),
        rows=st.integers(1, 12),
        row=st.integers(1, 12),
    )
    def test_closed_form_equals_paper_sum(self, components, rows, row):
        if row > rows:
            row = rows
        closed = prob.feedthrough_probability(components, rows, row)
        summed = prob.feedthrough_probability_paper_sum(components, rows, row)
        assert closed == pytest.approx(summed, abs=1e-12)

    def test_edge_rows_are_zero(self):
        assert prob.feedthrough_probability(4, 6, 1) == 0.0
        assert prob.feedthrough_probability(4, 6, 6) == 0.0

    def test_single_component_zero(self):
        assert prob.feedthrough_probability(1, 5, 3) == 0.0

    def test_symmetry(self):
        for row in range(1, 8):
            mirrored = 8 - row
            assert prob.feedthrough_probability(4, 7, row) == pytest.approx(
                prob.feedthrough_probability(4, 7, mirrored)
            )

    def test_matches_simulation(self, rng):
        for components, rows, row in ((2, 5, 3), (4, 7, 4), (6, 9, 2)):
            analytic = prob.feedthrough_probability(components, rows, row)
            empirical = prob.simulate_feedthrough_probability(
                components, rows, row, 30_000, rng
            )
            assert analytic == pytest.approx(empirical, abs=0.02)

    def test_out_of_range_row_rejected(self):
        with pytest.raises(EstimationError):
            prob.feedthrough_probability(3, 5, 0)
        with pytest.raises(EstimationError):
            prob.feedthrough_probability(3, 5, 6)

    @given(components=st.integers(2, 10), rows=st.integers(3, 15))
    def test_central_row_is_argmax(self, components, rows):
        """The paper's headline numerical-simulation claim."""
        argmax = prob.feedthrough_argmax_row(components, rows)
        central = (
            {(rows + 1) // 2}
            if rows % 2 == 1
            else {rows // 2, rows // 2 + 1}
        )
        assert argmax in central


class TestCentralFeedthroughProbability:
    def test_eq9_formula(self):
        # P = (n-1)^2 / (2 n^2)
        for rows in (3, 5, 9, 15):
            assert prob.central_feedthrough_probability(rows) == (
                pytest.approx((rows - 1) ** 2 / (2 * rows * rows))
            )

    def test_limit_is_half(self):
        assert prob.central_feedthrough_probability(10_000) == pytest.approx(
            0.5, abs=1e-3
        )

    def test_monotone_in_rows(self):
        values = [prob.central_feedthrough_probability(n) for n in
                  range(2, 40)]
        assert values == sorted(values)

    def test_general_model_odd_rows(self):
        direct = prob.feedthrough_probability(4, 7, 4)
        assert prob.central_feedthrough_probability(
            7, 4, model="general"
        ) == pytest.approx(direct)

    def test_general_model_even_rows_averages(self):
        low = prob.feedthrough_probability(3, 6, 3)
        high = prob.feedthrough_probability(3, 6, 4)
        assert prob.central_feedthrough_probability(
            6, 3, model="general"
        ) == pytest.approx((low + high) / 2)

    def test_general_model_degenerate(self):
        assert prob.central_feedthrough_probability(2, 5, "general") == 0.0
        assert prob.central_feedthrough_probability(5, 1, "general") == 0.0

    def test_unknown_model_rejected(self):
        with pytest.raises(EstimationError, match="model"):
            prob.central_feedthrough_probability(5, 2, model="nope")

    def test_two_component_matches_general_for_d2_large_n(self):
        # Eq. 9 is derived from the D=2 case at the central row.
        for rows in (5, 9, 13):
            two = prob.central_feedthrough_probability(rows)
            general = prob.central_feedthrough_probability(rows, 2, "general")
            assert two == pytest.approx(general)


class TestFeedthroughCounts:
    @given(
        nets=st.integers(0, 40),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_pmf_is_distribution(self, nets, p):
        pmf = prob.feedthrough_count_pmf(nets, p)
        assert len(pmf) == nets + 1
        assert sum(pmf) == pytest.approx(1.0)

    @given(
        nets=st.integers(1, 40),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_expectation_matches_pmf_sum(self, nets, p):
        """Eq. 11 explicit sum equals the binomial mean H*p."""
        pmf = prob.feedthrough_count_pmf(nets, p)
        explicit = sum(m * pmf[m] for m in range(nets + 1))
        assert explicit == pytest.approx(nets * p, abs=1e-9)

    def test_expected_feedthroughs_rounds_up(self):
        assert prob.expected_feedthroughs(10, 0.31) == 4
        assert prob.expected_feedthroughs(10, 0.30) == 3
        assert prob.expected_feedthroughs(0, 0.9) == 0

    def test_pmf_rejects_bad_inputs(self):
        with pytest.raises(EstimationError):
            prob.feedthrough_count_pmf(-1, 0.5)
        with pytest.raises(EstimationError):
            prob.feedthrough_count_pmf(3, 1.5)


class TestSimulators:
    def test_row_spread_requires_trials(self):
        with pytest.raises(EstimationError):
            prob.simulate_row_spread(2, 2, 0)

    def test_feedthrough_requires_trials(self):
        with pytest.raises(EstimationError):
            prob.simulate_feedthrough_probability(2, 3, 2, 0)

    def test_deterministic_with_seed(self):
        a = prob.simulate_row_spread(3, 3, 500, random.Random(7))
        b = prob.simulate_row_spread(3, 3, 500, random.Random(7))
        assert a == b
