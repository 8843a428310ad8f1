"""Estimator configuration.

Every modelling choice the paper leaves implicit — and every deliberate
deviation documented in DESIGN.md §3 — is a field here, defaulting to
the paper's published behaviour.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import EstimationError
from repro.netlist.stats import DEFAULT_POWER_NETS

#: Net-span modes for the full-custom per-net area (Eq. 13):
#: "span" matches Table 1's footnote (two-component nets contribute no
#: wire area); "literal" implements the sentence of Section 4.2.
NET_SPAN_MODES = ("span", "literal")

#: Device-area modes for full-custom estimation: "exact" per-device
#: areas, "average" uses N * W_avg * h_avg (both columns of Table 1).
DEVICE_AREA_MODES = ("exact", "average")

FEEDTHROUGH_MODELS = ("two-component", "general")

#: Track models: "upper-bound" is the paper's one-net-per-track count
#: (optionally scaled by track_sharing_factor); "shared" is the
#: analytic expected-density model of repro.core.sharing, implementing
#: the paper's Section 7 future work.
TRACK_MODELS = ("upper-bound", "shared")


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for both estimators.

    Attributes
    ----------
    rows:
        Standard-cell row count.  ``None`` (default) runs the Section 5
        initial-row algorithm driven by the port-length criterion.
    max_rows:
        Safety bound for the row-selection loop.
    feedthrough_model:
        ``"two-component"`` uses Eq. 9's P = (n-1)^2/(2n^2) for every
        net (the paper's simplification); ``"general"`` evaluates Eq. 8
        per net size D.
    track_sharing_factor:
        Multiplier (0 < f <= 1) applied to the expected track count.
        1.0 reproduces the paper's "each routing track only contains
        one signal net" upper bound; the A1 ablation lowers it to model
        the track sharing the paper names as its overestimation cause.
    track_model:
        ``"upper-bound"`` (the paper) or ``"shared"`` — the analytic
        expected-density model of :mod:`repro.core.sharing`
        (Section 7 future work).  ``track_sharing_factor`` applies only
        to the upper-bound model.
    congestion_margin:
        Peak-over-mean channel density ratio for the shared model.
    net_span_mode / device_area_mode:
        Full-custom modelling choices, see module constants.
    port_pitch_override:
        Edge length per port in lambda; ``None`` uses the process value.
    power_nets:
        Net names excluded from routing statistics.
    max_aspect:
        The paper notes estimates are chosen "in the range from 1:1 to
        1:2"; the full-custom aspect algorithm widens beyond this only
        when ports demand it.
    """

    rows: Optional[int] = None
    max_rows: int = 64
    feedthrough_model: str = "two-component"
    track_sharing_factor: float = 1.0
    track_model: str = "upper-bound"
    congestion_margin: float = 1.25
    net_span_mode: str = "span"
    device_area_mode: str = "exact"
    port_pitch_override: Optional[float] = None
    power_nets: Tuple[str, ...] = DEFAULT_POWER_NETS
    max_aspect: float = 2.0

    def __post_init__(self) -> None:
        if self.rows is not None and type(self.rows) is not int:
            object.__setattr__(self, "rows", _integer("rows", self.rows))
        if type(self.max_rows) is not int:
            object.__setattr__(
                self, "max_rows", _integer("max_rows", self.max_rows)
            )
        _require_finite("track_sharing_factor", self.track_sharing_factor)
        _require_finite("congestion_margin", self.congestion_margin)
        _require_finite("max_aspect", self.max_aspect)
        if self.port_pitch_override is not None:
            _require_finite("port_pitch_override", self.port_pitch_override)
        if self.rows is not None and self.rows < 1:
            raise EstimationError(f"rows must be >= 1, got {self.rows}")
        if self.max_rows < 1:
            raise EstimationError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.feedthrough_model not in FEEDTHROUGH_MODELS:
            raise EstimationError(
                f"unknown feedthrough_model {self.feedthrough_model!r}"
            )
        if not 0.0 < self.track_sharing_factor <= 1.0:
            raise EstimationError(
                "track_sharing_factor must be in (0, 1], got "
                f"{self.track_sharing_factor}"
            )
        if self.track_model not in TRACK_MODELS:
            raise EstimationError(
                f"unknown track_model {self.track_model!r} "
                f"(expected one of {TRACK_MODELS})"
            )
        if self.congestion_margin < 1.0:
            raise EstimationError(
                f"congestion_margin must be >= 1, got "
                f"{self.congestion_margin}"
            )
        if self.net_span_mode not in NET_SPAN_MODES:
            raise EstimationError(
                f"unknown net_span_mode {self.net_span_mode!r}"
            )
        if self.device_area_mode not in DEVICE_AREA_MODES:
            raise EstimationError(
                f"unknown device_area_mode {self.device_area_mode!r}"
            )
        if self.port_pitch_override is not None and self.port_pitch_override <= 0:
            raise EstimationError(
                "port_pitch_override must be positive, got "
                f"{self.port_pitch_override}"
            )
        if self.max_aspect < 1.0:
            raise EstimationError(
                f"max_aspect must be >= 1, got {self.max_aspect}"
            )

    def with_rows(self, rows: Optional[int]) -> "EstimatorConfig":
        """Copy with a fixed row count (row-sweep studies)."""
        return replace(self, rows=rows)

    def with_(self, **changes) -> "EstimatorConfig":
        """General copy-with-changes helper."""
        return replace(self, **changes)


def _integer(name: str, value) -> int:
    """``value`` as a plain int; ``bool`` and non-integers are rejected."""
    if isinstance(value, bool):
        raise EstimationError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise EstimationError(
            f"{name} must be an integer, got {value!r}"
        ) from None


def _require_finite(name: str, value) -> None:
    """Reject ``bool``, non-numbers, NaN and infinities."""
    if type(value) is float or type(value) is int or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    ):
        if math.isfinite(value):
            return
    raise EstimationError(f"{name} must be a finite number, got {value!r}")
