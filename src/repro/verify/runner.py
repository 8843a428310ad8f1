"""The differential verification runner.

Orchestrates one ``mae verify`` sweep end to end, with a tracer span
per stage (``verify.corpus`` → ``verify.equivalence`` →
``verify.metamorphic`` → ``verify.envelope`` → ``verify.shrink``):

1. **Corpus** — draw seeded :class:`~repro.verify.corpus.CaseSpec`
   recipes and build their modules (standard-cell cases estimate
   against the CMOS process, full-custom against nMOS, matching the
   paper's Table 2 / Table 1 technologies).
2. **Equivalence** — every bit-identity claim from the perf PRs, per
   module plus the design-level portfolio determinism check.
3. **Metamorphic** — cross-input properties, including area
   monotonicity over grown random modules (prefix-aligned seeds keep
   the smaller module a strict sub-construction of the larger).
4. **Envelope** — estimator vs layout oracle, per-case relative error
   inside :class:`~repro.verify.envelope.EnvelopeBounds`.
5. **Shrink** — every failure is greedily minimised while it still
   reproduces and persisted as a replayable seed record.

The output is a :class:`VerifyReport` whose JSON form is the
``VERIFY_envelope.json`` artifact: per-stage drift gates, the
aggregate error distribution (Table 1/2 style), and the failure
records.  ``replay_records`` re-runs persisted failures.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import EstimatorConfig
from repro.errors import ReproError, VerificationError
from repro.layout.annealing import AnnealingSchedule
from repro.netlist.model import Module
from repro.obs.trace import current_tracer
from repro.technology.libraries import cmos_process, nmos_process
from repro.technology.process import ProcessDatabase
from repro.verify.checks import (
    CheckResult,
    check_area_monotone_in_devices,
    check_caches_identity,
    check_frontend_accuracy,
    check_incremental_equivalence,
    check_portfolio_determinism,
    check_serve_equivalence,
    check_plan_vs_direct,
    check_row_sweep_sanity,
    check_shared_within_upper_bound,
    check_sharing_factor_monotone,
    check_trace_identity,
    run_module_checks,
)
from repro.verify.congestion_envelope import (
    CongestionEnvelopeBounds,
    CongestionEnvelopePoint,
    measure_congestion_case,
    summarize_congestion,
)
from repro.verify.corpus import CaseSpec, draw_corpus
from repro.verify.envelope import (
    EnvelopeBounds,
    EnvelopePoint,
    measure_case,
    summarize,
    verification_schedule,
)
from repro.verify.records import SeedRecord, save_records
from repro.verify.shrink import shrink_module

#: Version of the VERIFY_envelope.json report shape.
REPORT_SCHEMA_VERSION = 1

#: Device-count increment for the grown twin in monotonicity checks.
GROWTH_STEP = 6


@dataclasses.dataclass(frozen=True)
class VerifyOptions:
    """Knobs for one verification sweep."""

    seeds: int = 25
    base_seed: int = 0
    bounds: EnvelopeBounds = dataclasses.field(
        default_factory=EnvelopeBounds
    )
    congestion_bounds: CongestionEnvelopeBounds = dataclasses.field(
        default_factory=CongestionEnvelopeBounds
    )
    schedule: Optional[AnnealingSchedule] = None
    check_envelope: bool = True
    shrink_budget: int = 120
    envelope_shrink_budget: int = 30
    #: When set, only these per-module check names run (the envelope
    #: still follows ``check_envelope``).  Lets CI gate one invariant —
    #: e.g. ``("incremental_equivalence",)`` — without paying for the
    #: whole sweep.
    checks: Optional[Tuple[str, ...]] = None

    def wants(self, name: str) -> bool:
        return self.checks is None or name in self.checks

    def wants_congestion(self) -> bool:
        """Whether the router-backed congestion stage runs.

        Explicit ``--check congestion_oracle`` always runs it (even
        under ``--skip-envelope`` — the CI smoke gate); otherwise it
        rides with the envelope stage, so plain ``--skip-envelope``
        skips every layout oracle as before.
        """
        if self.checks is not None:
            return "congestion_oracle" in self.checks
        return self.check_envelope

    def wants_frontend(self) -> bool:
        """Whether the frontend calibration gate runs.

        Explicit ``--check frontend_accuracy`` always runs it (the CI
        smoke gate works under ``--skip-envelope``); otherwise it
        rides with the envelope stage, since it compares against a
        committed accuracy artifact just like the layout oracles.
        """
        if self.checks is not None:
            return "frontend_accuracy" in self.checks
        return self.check_envelope


@dataclasses.dataclass
class VerifyReport:
    """Everything one sweep learned, serializable as the drift artifact."""

    seeds: int
    base_seed: int
    cases: List[dict]
    check_counts: Dict[str, Dict[str, int]]
    envelope_points: List[EnvelopePoint]
    envelope_summary: Dict[str, dict]
    congestion_points: List[CongestionEnvelopePoint]
    congestion_summary: Dict[str, object]
    failures: List[SeedRecord]
    gates: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.gates.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "passed": self.passed,
            "gates": dict(self.gates),
            "cases": list(self.cases),
            "checks": {
                name: dict(counts)
                for name, counts in sorted(self.check_counts.items())
            },
            "envelope": {
                "summary": self.envelope_summary,
                "points": [
                    point.to_dict() for point in self.envelope_points
                ],
            },
            "congestion": {
                "summary": self.congestion_summary,
                "points": [
                    point.to_dict() for point in self.congestion_points
                ],
            },
            "failures": [record.to_dict() for record in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path


#: Stage owning each check name (drives the report's drift gates).
CHECK_STAGES: Dict[str, str] = {
    "plan_vs_direct": "equivalence",
    "caches_identity": "equivalence",
    "trace_identity": "equivalence",
    "incremental_equivalence": "equivalence",
    "serve_equivalence": "equivalence",
    "portfolio_determinism": "equivalence",
    "shared_within_upper_bound": "metamorphic",
    "sharing_factor_monotone": "metamorphic",
    "row_sweep_sanity": "metamorphic",
    "area_monotone_in_devices": "metamorphic",
    "envelope": "envelope",
    "congestion_oracle": "envelope",
    "frontend_accuracy": "envelope",
}


def _processes() -> Dict[str, ProcessDatabase]:
    return {
        "standard-cell": cmos_process(),
        "full-custom": nmos_process(),
    }


def _grown_spec(spec: CaseSpec) -> Optional[CaseSpec]:
    """The same random recipe with more gates (prefix-aligned: each
    planning iteration consumes a fixed number of rng draws, so the
    smaller module is a sub-construction of the larger)."""
    if spec.family not in ("random", "random_nmos"):
        return None
    params = dict(spec.params)
    params["gates"] = int(params["gates"]) + GROWTH_STEP
    return CaseSpec.make(spec.family, spec.seed, params)


def _single_check(
    name: str,
    module: Module,
    process: ProcessDatabase,
    methodology: str,
) -> CheckResult:
    """Re-run one named per-module check (the shrink predicate core)."""
    if name == "plan_vs_direct":
        return check_plan_vs_direct(module, process)
    if name == "caches_identity":
        return check_caches_identity(module, process, methodology)
    if name == "trace_identity":
        return check_trace_identity(module, process, methodology)
    if name == "incremental_equivalence":
        return check_incremental_equivalence(module, process)
    if name == "serve_equivalence":
        return check_serve_equivalence(module, process)
    if name == "shared_within_upper_bound":
        return check_shared_within_upper_bound(module, process)
    if name == "sharing_factor_monotone":
        return check_sharing_factor_monotone(module, process)
    if name == "row_sweep_sanity":
        return check_row_sweep_sanity(module, process)
    raise VerificationError(f"no single-module form for check {name!r}")


def run_verify(options: Optional[VerifyOptions] = None) -> VerifyReport:
    """One full verification sweep; never raises on a failed invariant
    (the report's gates carry the verdict)."""
    options = options or VerifyOptions()
    tracer = current_tracer()
    processes = _processes()
    check_counts: Dict[str, Dict[str, int]] = {}
    #: (spec, module, check name, detail, shrink predicate or None)
    pending_failures: List[tuple] = []

    def note(spec: CaseSpec, module: Optional[Module],
             result: CheckResult,
             predicate: Optional[Callable[[Module], bool]]) -> None:
        counts = check_counts.setdefault(
            result.name, {"passed": 0, "failed": 0}
        )
        counts["passed" if result.passed else "failed"] += 1
        if not result.passed:
            pending_failures.append(
                (spec, module, result.name, result.detail, predicate)
            )

    # ------------------------------------------------------------------
    with tracer.span("verify.corpus") as span:
        specs = draw_corpus(options.seeds, options.base_seed)
        built: List[Tuple[CaseSpec, Module]] = [
            (spec, spec.build()) for spec in specs
        ]
        if tracer.enabled:
            span.set("cases", len(built))

    # ------------------------------------------------------------------
    with tracer.span("verify.equivalence") as span:
        for spec, module in built:
            process = processes[spec.methodology]
            for result in run_module_checks(
                module, process, spec.methodology
            ):
                if CHECK_STAGES[result.name] != "equivalence":
                    continue
                if not options.wants(result.name):
                    continue
                note(spec, module, result,
                     _predicate(result.name, process, spec.methodology))
        # Design-level: every hierarchical case races the portfolio
        # optimizer and must replay bit-identically (same seed, resume
        # from checkpoint, and the serial reference engine).  The check
        # relates a whole design, not one module, so record unshrunk.
        if options.wants("portfolio_determinism"):
            process = processes["standard-cell"]
            for spec, module in built:
                if spec.family != "hier":
                    continue
                note(spec, module,
                     check_portfolio_determinism(spec, process), None)
        if tracer.enabled:
            span.set("checks", sum(
                counts["passed"] + counts["failed"]
                for counts in check_counts.values()
            ))

    # ------------------------------------------------------------------
    with tracer.span("verify.metamorphic") as span:
        pairs = 0
        for spec, module in built:
            process = processes[spec.methodology]
            for result in run_module_checks(
                module, process, spec.methodology
            ):
                if CHECK_STAGES[result.name] != "metamorphic":
                    continue
                if not options.wants(result.name):
                    continue
                note(spec, module, result,
                     _predicate(result.name, process, spec.methodology))
            grown = _grown_spec(spec)
            if not options.wants("area_monotone_in_devices"):
                grown = None
            if grown is not None:
                pairs += 1
                result = check_area_monotone_in_devices(
                    module, grown.build(), process, spec.methodology
                )
                # Monotonicity relates two modules; shrinking one of
                # them breaks the relation, so record unshrunk.
                note(spec, module, result, None)
        if tracer.enabled:
            span.set("growth_pairs", pairs)

    # ------------------------------------------------------------------
    envelope_points: List[EnvelopePoint] = []
    if options.check_envelope:
        with tracer.span("verify.envelope") as span:
            schedule = options.schedule or verification_schedule()
            for spec, module in built:
                process = processes[spec.methodology]
                point = measure_case(
                    spec, module, process, options.bounds, schedule
                )
                envelope_points.append(point)
                result = CheckResult(
                    "envelope", point.within,
                    "" if point.within else (
                        f"relative error {point.error:+.3f} outside "
                        f"{options.bounds.range_for(spec.methodology)}"
                    ),
                )
                note(spec, module, result,
                     _envelope_predicate(spec, process, options.bounds,
                                         schedule))
            if tracer.enabled:
                span.set("points", len(envelope_points))

    # ------------------------------------------------------------------
    congestion_points: List[CongestionEnvelopePoint] = []
    if options.wants_congestion():
        with tracer.span("verify.congestion") as span:
            schedule = options.schedule or verification_schedule()
            process = processes["standard-cell"]
            for spec, module in built:
                if spec.methodology != "standard-cell":
                    continue
                point = measure_congestion_case(
                    spec, module, process, options.congestion_bounds,
                    schedule,
                )
                congestion_points.append(point)
                result = CheckResult(
                    "congestion_oracle", point.within,
                    "" if point.within else (
                        f"total error {point.total_error:+.3f} / shape "
                        f"error {point.shape_error:.3f} outside bounds "
                        f"{options.congestion_bounds.to_dict()}"
                    ),
                )
                note(spec, module, result,
                     _congestion_predicate(spec, process,
                                           options.congestion_bounds,
                                           schedule))
            if tracer.enabled:
                span.set("points", len(congestion_points))

    # ------------------------------------------------------------------
    if options.wants_frontend():
        with tracer.span("verify.frontend") as span:
            # Corpus-independent: the gate refits the committed golden
            # fixtures against the committed envelope artifact once per
            # sweep.  The record's spec points at the blif corpus
            # family so a failure still replays through seed records.
            result = check_frontend_accuracy()
            anchor = next(
                (spec for spec, _ in built if spec.family == "blif"),
                CaseSpec.make("blif", 0, {"fixture": 0}),
            )
            note(anchor, None, result, None)
            if tracer.enabled:
                span.set("passed", result.passed)

    # ------------------------------------------------------------------
    failures: List[SeedRecord] = []
    with tracer.span("verify.shrink") as span:
        for spec, module, name, detail, predicate in pending_failures:
            shrunk_devices = None
            shrunk_count = None
            if predicate is not None and module is not None:
                budget = (
                    options.envelope_shrink_budget
                    if name in ("envelope", "congestion_oracle")
                    else options.shrink_budget
                )
                try:
                    shrunk = shrink_module(module, predicate, budget)
                    shrunk_devices = tuple(
                        device.name for device in shrunk.module.devices
                    )
                    shrunk_count = shrunk.module.device_count
                except (ValueError, ReproError):
                    pass  # keep the unshrunk record
            failures.append(SeedRecord(
                spec=spec,
                check=name,
                stage=CHECK_STAGES[name],
                detail=detail,
                shrunk_devices=shrunk_devices,
                shrunk_device_count=shrunk_count,
            ))
        if tracer.enabled:
            span.set("failures", len(failures))

    gates = {
        stage: all(
            check_counts.get(name, {}).get("failed", 0) == 0
            for name, owner in CHECK_STAGES.items()
            if owner == stage
        )
        for stage in ("equivalence", "metamorphic", "envelope")
    }
    return VerifyReport(
        seeds=options.seeds,
        base_seed=options.base_seed,
        cases=[
            {
                "label": spec.label,
                "family": spec.family,
                "methodology": spec.methodology,
                "devices": module.device_count,
            }
            for spec, module in built
        ],
        check_counts=check_counts,
        envelope_points=envelope_points,
        envelope_summary=summarize(envelope_points, options.bounds),
        congestion_points=congestion_points,
        congestion_summary=summarize_congestion(
            congestion_points, options.congestion_bounds
        ),
        failures=failures,
        gates=gates,
    )


def _predicate(
    name: str,
    process: ProcessDatabase,
    methodology: str,
) -> Callable[[Module], bool]:
    """Shrink predicate: True while the named check still fails."""

    def failing(candidate: Module) -> bool:
        return not _single_check(name, candidate, process, methodology)

    return failing


def _envelope_predicate(
    spec: CaseSpec,
    process: ProcessDatabase,
    bounds: EnvelopeBounds,
    schedule: AnnealingSchedule,
) -> Callable[[Module], bool]:
    def failing(candidate: Module) -> bool:
        point = measure_case(spec, candidate, process, bounds, schedule)
        return not point.within

    return failing


def _congestion_predicate(
    spec: CaseSpec,
    process: ProcessDatabase,
    bounds: CongestionEnvelopeBounds,
    schedule: AnnealingSchedule,
) -> Callable[[Module], bool]:
    def failing(candidate: Module) -> bool:
        point = measure_congestion_case(
            spec, candidate, process, bounds, schedule
        )
        return not point.within

    return failing


def replay_records(
    records: Sequence[SeedRecord],
    bounds: Optional[EnvelopeBounds] = None,
    schedule: Optional[AnnealingSchedule] = None,
) -> List[Tuple[SeedRecord, CheckResult]]:
    """Rebuild each record's module and re-run its violated check.

    Returns (record, result) pairs; a result that *fails* means the
    failure still reproduces — which is what a replay is for.
    """
    bounds = bounds or EnvelopeBounds()
    schedule = schedule or verification_schedule()
    processes = _processes()
    outcomes: List[Tuple[SeedRecord, CheckResult]] = []
    for record in records:
        module = record.spec.build()
        process = processes[record.spec.methodology]
        if record.check == "envelope":
            point = measure_case(
                record.spec, module, process, bounds, schedule
            )
            result = CheckResult(
                "envelope", point.within,
                f"relative error {point.error:+.3f}",
            )
        elif record.check == "congestion_oracle":
            congestion = measure_congestion_case(
                record.spec, module, process, CongestionEnvelopeBounds(),
                schedule,
            )
            result = CheckResult(
                "congestion_oracle", congestion.within,
                f"total error {congestion.total_error:+.3f} / shape "
                f"error {congestion.shape_error:.3f}",
            )
        elif record.check == "portfolio_determinism":
            result = check_portfolio_determinism(record.spec, process)
        elif record.check == "frontend_accuracy":
            result = check_frontend_accuracy()
        elif record.check == "area_monotone_in_devices":
            grown = _grown_spec(record.spec)
            if grown is None:
                raise VerificationError(
                    f"record {record.spec.label}: no growth twin for "
                    "monotonicity replay"
                )
            result = check_area_monotone_in_devices(
                module, grown.build(), process, record.spec.methodology
            )
        else:
            result = _single_check(
                record.check, module, process, record.spec.methodology
            )
        outcomes.append((record, result))
    return outcomes
