"""Ablation experiments around the design choices DESIGN.md calls out.

* **A1 — track sharing.**  The paper blames its Table 2 overestimates
  on ignoring track sharing and lists a sharing correction as future
  work.  The ablation sweeps ``track_sharing_factor`` and reports how
  the overestimate shrinks, plus the empirically ideal factor (routed
  tracks / estimated tracks).
* **A3 — row sweep.**  "The area estimate decreased as the number of
  rows increased": the full estimate-vs-rows curve for each Table 2
  module.
* **Oracle-quality ablation.**  Table 2 against the modern (long
  anneal, unconstrained-routing) oracle instead of the 1988-grade one,
  quantifying how much the oracle's routing quality moves the
  overestimate band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import sweep_rows
from repro.layout.annealing import timberwolf_1988_schedule
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.perf.batch import estimate_batch
from repro.reporting import format_percent, render_table
from repro.technology.libraries import nmos_process
from repro.technology.process import ProcessDatabase
from repro.workloads.suites import table2_suite


@dataclass(frozen=True)
class SharingPoint:
    """Overestimate at one sharing configuration for one module."""

    module_name: str
    rows: int
    factor: float                # nan marks the analytic shared model
    est_area: float
    real_area: float
    ideal_factor: float
    label: str = ""

    @property
    def overestimate(self) -> float:
        return self.est_area / self.real_area - 1.0

    @property
    def is_analytic_model(self) -> bool:
        return self.factor != self.factor  # nan check


def run_track_sharing_ablation(
    factors: Sequence[float] = (1.0, 0.75, 0.5, 0.35, 0.25),
    process: Optional[ProcessDatabase] = None,
) -> List[SharingPoint]:
    """A1: sweep the sharing correction factor over the Table 2 suite.

    All (case x factor) estimates — plus the baseline and the Section 7
    analytic model — come from one :func:`estimate_batch` call; only
    the layout oracle runs serially per case.
    """
    process = process or nmos_process()
    schedule = timberwolf_1988_schedule()
    cases = table2_suite()
    # Per case: baseline, one config per factor, then the analytic model.
    batch = iter(estimate_batch(
        [case.module for case in cases],
        process,
        [
            [EstimatorConfig(rows=case.row_counts[0])]
            + [EstimatorConfig(rows=case.row_counts[0],
                               track_sharing_factor=factor)
               for factor in factors]
            + [EstimatorConfig(rows=case.row_counts[0],
                               track_model="shared")]
            for case in cases
        ],
        methodologies=("standard-cell",),
    ))
    points: List[SharingPoint] = []
    for case in cases:
        rows = case.row_counts[0]
        real = layout_standard_cell(
            case.module, process, rows=rows, seed=case.seed,
            schedule=schedule, constrained_routing=True,
        )
        base = next(batch).estimate
        ideal = real.tracks / base.tracks if base.tracks else 1.0
        for factor in factors:
            estimate = next(batch).estimate
            points.append(
                SharingPoint(
                    module_name=case.module.name,
                    rows=rows,
                    factor=factor,
                    est_area=estimate.area,
                    real_area=real.area,
                    ideal_factor=ideal,
                    label=f"{factor:.2f}",
                )
            )
        # The Section 7 analytic model, for comparison with the sweep.
        analytic = next(batch).estimate
        points.append(
            SharingPoint(
                module_name=case.module.name,
                rows=rows,
                factor=float("nan"),
                est_area=analytic.area,
                real_area=real.area,
                ideal_factor=ideal,
                label="analytic",
            )
        )
    return points


def format_track_sharing(points: List[SharingPoint]) -> str:
    headers = ("Module", "Rows", "Sharing factor", "Est area", "Real area",
               "Over", "Ideal factor")
    body = [
        (
            p.module_name,
            p.rows,
            p.label or f"{p.factor:.2f}",
            round(p.est_area),
            round(p.real_area),
            format_percent(p.overestimate),
            f"{p.ideal_factor:.2f}",
        )
        for p in points
    ]
    return render_table(
        headers, body,
        title="A1: track-sharing correction ablation (paper future work)",
    )


@dataclass(frozen=True)
class RowSweepPoint:
    module_name: str
    rows: int
    est_area: float
    est_tracks: int
    est_aspect: float


def run_row_sweep(
    row_range: Sequence[int] = tuple(range(2, 11)),
    process: Optional[ProcessDatabase] = None,
) -> List[RowSweepPoint]:
    """A3: estimate-vs-rows curves for the Table 2 modules."""
    process = process or nmos_process()
    points: List[RowSweepPoint] = []
    for case in table2_suite():
        for estimate in sweep_rows(case.module, process, tuple(row_range)):
            points.append(
                RowSweepPoint(
                    module_name=case.module.name,
                    rows=estimate.rows,
                    est_area=estimate.area,
                    est_tracks=estimate.tracks,
                    est_aspect=estimate.normalized_aspect,
                )
            )
    return points


def format_row_sweep(points: List[RowSweepPoint]) -> str:
    headers = ("Module", "Rows", "Est area", "Est tracks", "Aspect")
    body = [
        (
            p.module_name,
            p.rows,
            round(p.est_area),
            p.est_tracks,
            f"{p.est_aspect:.2f}",
        )
        for p in points
    ]
    return render_table(headers, body,
                        title="A3: estimated area vs row count")


@dataclass(frozen=True)
class OracleQualityPoint:
    module_name: str
    rows: int
    over_1988: float
    over_modern: float


def run_oracle_quality_ablation(
    process: Optional[ProcessDatabase] = None,
    seed: int = 0,
) -> List[OracleQualityPoint]:
    """Overestimate vs oracle quality (1988 schedule vs modern anneal)."""
    process = process or nmos_process()
    cases = table2_suite()
    batch = iter(estimate_batch(
        [case.module for case in cases],
        process,
        [[EstimatorConfig(rows=case.row_counts[0])] for case in cases],
        methodologies=("standard-cell",),
    ))
    points: List[OracleQualityPoint] = []
    for case in cases:
        rows = case.row_counts[0]
        estimate = next(batch).estimate
        real_1988 = layout_standard_cell(
            case.module, process, rows=rows, seed=case.seed,
            schedule=timberwolf_1988_schedule(), constrained_routing=True,
        )
        real_modern = layout_standard_cell(
            case.module, process, rows=rows, seed=case.seed,
            constrained_routing=False,
        )
        points.append(
            OracleQualityPoint(
                module_name=case.module.name,
                rows=rows,
                over_1988=estimate.area / real_1988.area - 1.0,
                over_modern=estimate.area / real_modern.area - 1.0,
            )
        )
    return points


def format_oracle_quality(points: List[OracleQualityPoint]) -> str:
    headers = ("Module", "Rows", "Over vs 1988 oracle", "Over vs modern oracle")
    body = [
        (
            p.module_name,
            p.rows,
            format_percent(p.over_1988),
            format_percent(p.over_modern),
        )
        for p in points
    ]
    table = render_table(
        headers, body,
        title="Oracle-quality ablation: better routing widens the "
              "estimator's overestimate",
    )
    return table
