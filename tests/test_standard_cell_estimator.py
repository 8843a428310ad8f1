"""Tests for the standard-cell area estimator (Eq. 12 and Section 5)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EstimatorConfig
from repro.core.probability import (
    central_feedthrough_probability,
    tracks_for_net,
)
from repro.core.standard_cell import (
    choose_initial_rows,
    estimate_standard_cell,
    estimate_standard_cell_from_stats,
    sweep_rows,
)
from repro.errors import EstimationError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.stats import scan_module
from repro.units import round_up
from repro.workloads.generators import random_gate_module


def _stats(module, process):
    return scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=process.port_pitch,
    )


class TestEquation12:
    def test_area_is_width_times_height(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        assert estimate.area == pytest.approx(
            estimate.width * estimate.height
        )

    def test_height_decomposition(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        assert estimate.height == pytest.approx(
            3 * nmos.row_height + estimate.tracks * nmos.track_pitch
        )

    def test_width_decomposition(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        stats = _stats(small_gate_module, nmos)
        expected_cells = stats.average_width * stats.device_count / 3
        assert estimate.cell_width_per_row == pytest.approx(expected_cells)
        assert estimate.width == pytest.approx(
            expected_cells + estimate.feedthroughs * nmos.feedthrough_width
        )

    def test_track_count_from_histogram(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        stats = _stats(small_gate_module, nmos)
        expected = sum(
            count * tracks_for_net(components, 3)
            for components, count in stats.multi_component_nets
        )
        assert estimate.tracks == expected

    def test_feedthrough_expectation_two_component_model(
        self, small_gate_module, nmos
    ):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=4)
        )
        stats = _stats(small_gate_module, nmos)
        p = central_feedthrough_probability(4)
        assert estimate.feedthroughs == round_up(stats.routed_net_count * p)

    def test_no_feedthroughs_below_three_rows(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=2)
        )
        assert estimate.feedthroughs == 0

    def test_wiring_plus_cell_area(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        assert estimate.cell_area + estimate.wiring_area == pytest.approx(
            estimate.area
        )

    def test_empty_module_rejected(self, nmos):
        module = NetlistBuilder("empty").inputs("a").build(validate=False)
        with pytest.raises(EstimationError, match="empty"):
            estimate_standard_cell(module, nmos)

    def test_aspect_ratio_eq14(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        assert estimate.aspect_ratio == pytest.approx(
            estimate.width / estimate.height
        )


class TestTrackSharingFactor:
    def test_factor_scales_tracks(self, small_gate_module, nmos):
        full = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        half = estimate_standard_cell(
            small_gate_module,
            nmos,
            EstimatorConfig(rows=3, track_sharing_factor=0.5),
        )
        assert half.tracks == math.ceil(full.tracks * 0.5)
        assert half.area < full.area

    def test_factor_one_is_identity(self, small_gate_module, nmos):
        a = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        b = estimate_standard_cell(
            small_gate_module,
            nmos,
            EstimatorConfig(rows=3, track_sharing_factor=1.0),
        )
        assert a.area == b.area


class TestRowSpreadModes:
    def test_general_feedthrough_model_runs(self, small_gate_module, nmos):
        estimate = estimate_standard_cell(
            small_gate_module, nmos,
            EstimatorConfig(rows=5, feedthrough_model="general"),
        )
        assert estimate.feedthroughs >= 0


class TestChooseInitialRows:
    def test_section5_first_iteration(self, nmos):
        """n starts at ceil(sqrt(area) / (2 * row_height))."""
        module = random_gate_module("r", gates=60, inputs=4, outputs=2,
                                    seed=3)
        stats = _stats(module, nmos)
        rows = choose_initial_rows(stats, nmos)
        first = math.ceil(
            math.sqrt(stats.total_device_area) / (2 * nmos.row_height)
        )
        # Ports may force fewer rows, never more.
        assert 1 <= rows <= first

    def test_many_ports_force_fewer_rows(self, nmos):
        few = random_gate_module("few", gates=40, inputs=2, outputs=2, seed=1)
        stats_few = _stats(few, nmos)
        # Same circuit but pretend it has huge port demand.
        from dataclasses import replace

        stats_wide = replace(stats_few, total_port_width=2000.0)
        assert choose_initial_rows(stats_wide, nmos) <= choose_initial_rows(
            stats_few, nmos
        )

    def test_port_criterion_satisfied_or_single_row(self, nmos):
        module = random_gate_module("r", gates=30, inputs=12, outputs=12,
                                    seed=9)
        stats = _stats(module, nmos)
        rows = choose_initial_rows(stats, nmos)
        row_length = stats.total_device_area / (rows * nmos.row_height)
        assert rows == 1 or stats.total_port_width <= row_length

    def test_zero_area_rejected(self, nmos):
        from dataclasses import replace

        module = random_gate_module("r", gates=5, inputs=2, outputs=1, seed=0)
        stats = replace(_stats(module, nmos), total_device_area=0.0)
        with pytest.raises(EstimationError):
            choose_initial_rows(stats, nmos)

    def test_max_rows_respected(self, nmos):
        module = random_gate_module("r", gates=200, inputs=2, outputs=2,
                                    seed=4)
        stats = _stats(module, nmos)
        rows = choose_initial_rows(stats, nmos, EstimatorConfig(max_rows=3))
        assert rows <= 3

    def test_port_heavy_module_iterates_several_times(self, nmos):
        """A port-heavy module must walk the divisor loop, not stop at
        the first candidate (regression for the loop bookkeeping).

        With area 250000 and row_height 40 the candidate sequence is
        rows = 7, 5, 4, 3, 3, 2, ... (divisor i = 2, 3, 4, ...); a
        3000-lambda port demand first fits at rows = 2
        (row_length = 3125), five iterations in.
        """
        from dataclasses import replace

        module = random_gate_module("r", gates=10, inputs=2, outputs=1,
                                    seed=0)
        stats = replace(
            _stats(module, nmos),
            total_device_area=250000.0,
            total_port_width=3000.0,
        )
        assert choose_initial_rows(stats, nmos) == 2
        # A moderate port demand stops one iteration in (rows = 5,
        # row_length = 1250); an extreme one falls through to the
        # always-accepted single row.
        assert choose_initial_rows(
            stats=replace(stats, total_port_width=1000.0), process=nmos
        ) == 5
        assert choose_initial_rows(
            stats=replace(stats, total_port_width=10000.0), process=nmos
        ) == 1


class TestSweepRows:
    def test_rows_match_request(self, small_gate_module, nmos):
        estimates = sweep_rows(small_gate_module, nmos, (2, 4, 6))
        assert [e.rows for e in estimates] == [2, 4, 6]

    def test_consistent_with_direct_estimates(self, small_gate_module, nmos):
        sweep = sweep_rows(small_gate_module, nmos, (3,))
        direct = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        assert sweep[0].area == pytest.approx(direct.area)

    def test_large_row_counts_eventually_cheaper_than_two(self, nmos):
        """The paper's observation: more rows -> smaller estimate (the
        cell stack grows slower than the per-net track count)."""
        module = random_gate_module("r", gates=60, inputs=6, outputs=4,
                                    seed=5, locality=0.3)
        estimates = sweep_rows(module, nmos, (2, 8))
        assert estimates[-1].area < estimates[0].area


class TestFromStats:
    def test_matches_module_level_entry_point(self, small_gate_module, nmos):
        stats = _stats(small_gate_module, nmos)
        from_stats = estimate_standard_cell_from_stats(
            stats, nmos, EstimatorConfig(rows=3)
        )
        direct = estimate_standard_cell(
            small_gate_module, nmos, EstimatorConfig(rows=3)
        )
        assert from_stats == direct

    def test_auto_rows_when_config_rows_none(self, small_gate_module, nmos):
        stats = _stats(small_gate_module, nmos)
        estimate = estimate_standard_cell_from_stats(stats, nmos)
        assert estimate.rows == choose_initial_rows(stats, nmos)

    def test_empty_stats_rejected(self, nmos):
        from dataclasses import replace

        module = random_gate_module("r", gates=3, inputs=2, outputs=1, seed=0)
        stats = replace(_stats(module, nmos), device_count=0)
        with pytest.raises(EstimationError, match="empty"):
            estimate_standard_cell_from_stats(stats, nmos)
