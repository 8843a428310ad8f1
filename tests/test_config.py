"""Tests for EstimatorConfig validation and copy helpers."""

import pytest

from repro.core.config import EstimatorConfig
from repro.errors import EstimationError


class TestValidation:
    def test_defaults_are_paper_behaviour(self):
        config = EstimatorConfig()
        assert config.rows is None
        assert config.feedthrough_model == "two-component"
        assert config.track_sharing_factor == 1.0
        assert config.net_span_mode == "span"
        assert config.device_area_mode == "exact"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 0},
            {"max_rows": 0},
            {"track_model": "bogus"},
            {"feedthrough_model": "bogus"},
            {"track_sharing_factor": 0.0},
            {"track_sharing_factor": 1.5},
            {"net_span_mode": "bogus"},
            {"device_area_mode": "bogus"},
            {"port_pitch_override": 0.0},
            {"max_aspect": 0.5},
            {"rows": 2.5},
            {"rows": True},
            {"rows": "3"},
            {"max_rows": float("inf")},
            {"max_rows": 8.0},
            {"port_pitch_override": float("nan")},
            {"port_pitch_override": float("inf")},
            {"congestion_margin": float("nan")},
            {"congestion_margin": float("inf")},
            {"max_aspect": float("nan")},
            {"max_aspect": float("inf")},
            {"track_sharing_factor": float("nan")},
            {"track_sharing_factor": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(EstimationError):
            EstimatorConfig(**kwargs)

    def test_valid_extremes_accepted(self):
        EstimatorConfig(track_sharing_factor=1e-9)
        EstimatorConfig(rows=1, max_rows=1)


class TestCopyHelpers:
    def test_with_rows(self):
        config = EstimatorConfig(track_sharing_factor=0.5)
        derived = config.with_rows(4)
        assert derived.rows == 4
        assert derived.track_sharing_factor == 0.5
        assert config.rows is None  # original untouched

    def test_with_changes(self):
        config = EstimatorConfig()
        derived = config.with_(device_area_mode="average", rows=2)
        assert derived.device_area_mode == "average"
        assert derived.rows == 2

    def test_with_validates(self):
        with pytest.raises(EstimationError):
            EstimatorConfig().with_(rows=-1)
