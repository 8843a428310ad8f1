"""The whole-histogram channel-crossing grid kernel.

:func:`repro.perf.kernels.channel_crossing_grid` is the congestion
model's input: ``grid[k][j]`` is the probability that a net of the
``j``-th histogram size places a trunk in channel ``k``.  These tests
pin its edge cases and the bitwise mirror symmetry
``congestion_distribution`` relies on to halve its per-channel work.
"""

from __future__ import annotations

from repro.perf.kernels import channel_crossing_grid


class TestCongestionGrid:
    def test_single_component_nets_are_zero_rows(self):
        grid = channel_crossing_grid(((1, 9), (2, 1)), 3)
        assert all(grid[channel][0] == 0.0 for channel in range(4))
        assert any(grid[channel][1] > 0.0 for channel in range(4))

    def test_single_row_certain_crossing(self):
        grid = channel_crossing_grid(((4, 2),), 1)
        assert grid[0][0] == 0.0
        assert grid[1][0] == 1.0

    def test_empty_histogram_grid(self):
        assert channel_crossing_grid((), 4) == tuple(() for _ in range(5))

    def test_grid_mirror_symmetry(self):
        """The kernel orders the power subtraction so the float grid is
        bitwise symmetric under k <-> rows - k (interior channels)."""
        histogram = ((3, 1), (5, 1), (11, 1))
        for rows in (2, 3, 6, 9):
            grid = channel_crossing_grid(histogram, rows)
            for channel in range(1, rows):
                assert grid[channel] == grid[rows - channel]
