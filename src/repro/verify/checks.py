"""Equivalence invariants and metamorphic properties.

Three perf-heavy PRs left the estimator with strong claims — compiled
plans are "bit-identical" to the direct path, caches "never change
results", tracing is "zero cost *and* zero effect" — that were each
enforced by a handful of hand-written tests.  This module turns every
claim into a reusable check over an arbitrary module, so the corpus
driver can assert them across the whole randomized design population.

Two kinds of checks:

* **Equivalence invariants** compare two computations that must agree
  *bit for bit* (exact ``==`` on every result field, floats included):
  plan vs direct, caches on vs :func:`caches_disabled`, trace-on vs
  trace-off, incremental vs rescan, and served vs direct.
* **Metamorphic properties** relate outputs across *related inputs*
  where no oracle exists: area is monotone in device count, the row
  sweep is not wildly non-convex, the shared track model never exceeds
  the paper's one-net-per-track upper bound, and lowering the sharing
  factor never increases area.

Every check returns a :class:`CheckResult`; nothing raises on a
failed invariant — the runner decides what to shrink and persist.
"""

from __future__ import annotations

import dataclasses
import os
import random
import tempfile
import zlib
from typing import Callable, List, Optional, Tuple

from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom
from repro.core.standard_cell import (
    estimate_standard_cell,
    estimate_standard_cell_from_stats,
)
from repro.incremental.editgen import random_mutation
from repro.incremental.engine import IncrementalEstimator
from repro.netlist.model import Module
from repro.netlist.stats import scan_module
from repro.obs.trace import Tracer, use_tracer
from repro.perf.kernels import caches_disabled
from repro.perf.plan import get_plan
from repro.technology.process import ProcessDatabase


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check on one module."""

    name: str
    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _fields(estimate) -> tuple:
    """Every result field, for exact (bit-identical) comparison."""
    return dataclasses.astuple(estimate)


def _mismatch(a, b) -> str:
    """Name the first differing field of two result dataclasses."""
    for field in dataclasses.fields(a):
        left = getattr(a, field.name)
        right = getattr(b, field.name)
        if left != right:
            return f"{field.name}: {left!r} != {right!r}"
    return "results differ"


def _estimate(module: Module, process: ProcessDatabase,
              methodology: str, config: Optional[EstimatorConfig] = None):
    if methodology == "standard-cell":
        return estimate_standard_cell(module, process, config)
    return estimate_full_custom(module, process, config)


def _scan(module: Module, process: ProcessDatabase,
          config: EstimatorConfig):
    return scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )


# ----------------------------------------------------------------------
# equivalence invariants
# ----------------------------------------------------------------------
def check_plan_vs_direct(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """A compiled :class:`~repro.perf.plan.EstimationPlan` evaluates
    bit-identically to the direct estimator facade."""
    config = config or EstimatorConfig()
    direct = estimate_standard_cell(module, process, config)
    stats = _scan(module, process, config)
    planned = get_plan(stats, process, config).evaluate(config.rows)
    if _fields(direct) == _fields(planned):
        return CheckResult("plan_vs_direct", True)
    return CheckResult(
        "plan_vs_direct", False,
        f"plan diverges from direct path ({_mismatch(direct, planned)})",
    )


def check_caches_identity(
    module: Module,
    process: ProcessDatabase,
    methodology: str = "standard-cell",
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """Warm kernel caches vs :func:`caches_disabled` recomputation."""
    warm = _estimate(module, process, methodology, config)
    with caches_disabled():
        cold = _estimate(module, process, methodology, config)
    if _fields(warm) == _fields(cold):
        return CheckResult("caches_identity", True)
    return CheckResult(
        "caches_identity", False,
        f"cache hit changed the result ({_mismatch(warm, cold)})",
    )


def check_trace_identity(
    module: Module,
    process: ProcessDatabase,
    methodology: str = "standard-cell",
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """Estimating under a collecting tracer is observation, not
    perturbation: results match the untraced path bit for bit."""
    untraced = _estimate(module, process, methodology, config)
    with use_tracer(Tracer()):
        traced = _estimate(module, process, methodology, config)
    if _fields(untraced) == _fields(traced):
        return CheckResult("trace_identity", True)
    return CheckResult(
        "trace_identity", False,
        f"tracing changed the result ({_mismatch(untraced, traced)})",
    )


def check_incremental_equivalence(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    steps: int = 12,
) -> CheckResult:
    """The incremental engine stays bit-identical to a from-scratch
    rescan under a deterministic random edit sequence.

    After every edit, both the maintained statistics snapshot and the
    estimate served through the version-checked plan cache must equal
    what a full rescan of the mutated netlist produces — field for
    field, floats compared exactly.  The seed derives from the module's
    name and size, so a failing case replays from its corpus spec.
    """
    config = config or EstimatorConfig()
    seed = zlib.crc32(module.name.encode("utf-8")) ^ module.device_count
    rng = random.Random(seed)
    engine = IncrementalEstimator(module, process, config)
    for step in range(steps):
        mutation = random_mutation(engine.module, rng, config.power_nets)
        engine.apply(mutation)
        fresh = engine.rescan()
        if engine.statistics() != fresh:
            return CheckResult(
                "incremental_equivalence", False,
                f"step {step} ({mutation.kind}): maintained statistics "
                "diverge from a rescan",
            )
        incremental = engine.estimate()
        direct = estimate_standard_cell_from_stats(fresh, process, config)
        if _fields(incremental) != _fields(direct):
            return CheckResult(
                "incremental_equivalence", False,
                f"step {step} ({mutation.kind}): "
                f"{_mismatch(incremental, direct)}",
            )
    return CheckResult("incremental_equivalence", True)


# ----------------------------------------------------------------------
# metamorphic properties
# ----------------------------------------------------------------------
def check_shared_within_upper_bound(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """The Section 7 shared-track model never exceeds the paper's
    one-net-per-track upper bound."""
    config = config or EstimatorConfig()
    upper = estimate_standard_cell(
        module, process, config.with_(track_model="upper-bound")
    )
    shared = estimate_standard_cell(
        module, process,
        config.with_(track_model="shared", rows=upper.rows),
    )
    if shared.tracks <= upper.tracks:
        return CheckResult("shared_within_upper_bound", True)
    return CheckResult(
        "shared_within_upper_bound", False,
        f"shared model used {shared.tracks} tracks, upper bound is "
        f"{upper.tracks}",
    )


def check_sharing_factor_monotone(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """Lowering ``track_sharing_factor`` (the A1 ablation) never
    increases area at a fixed row count."""
    config = config or EstimatorConfig()
    full = estimate_standard_cell(
        module, process, config.with_(track_sharing_factor=1.0)
    )
    reduced = estimate_standard_cell(
        module, process,
        config.with_(track_sharing_factor=0.6, rows=full.rows),
    )
    if reduced.area <= full.area:
        return CheckResult("sharing_factor_monotone", True)
    return CheckResult(
        "sharing_factor_monotone", False,
        f"factor 0.6 area {reduced.area:.1f} exceeds factor 1.0 area "
        f"{full.area:.1f}",
    )


def check_row_sweep_sanity(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    max_rows: int = 10,
    wiggle: float = 0.08,
) -> CheckResult:
    """The area-vs-rows curve is unimodal up to rounding wiggle.

    The paper observes "the area estimate decreased as the number of
    rows increased" over its small sweeps; with feed-through cost the
    curve can turn back up, and the ceil() on tracks and feed-throughs
    puts small steps on it, but it must not oscillate beyond that: up
    to the global minimum every rise is bounded by ``wiggle`` (relative),
    and after it every drop is.

    The sweep starts at three rows: below that no interior row exists,
    the feed-through count is identically zero, and the onset of
    feed-through cost at rows = 3 is a genuine (documented) step in the
    model, not an oscillation.
    """
    config = config or EstimatorConfig()
    limit = min(max_rows, module.device_count)
    first = min(3, limit)
    areas = [
        estimate_standard_cell(
            module, process, config.with_rows(rows)
        ).area
        for rows in range(first, limit + 1)
    ]
    pivot = areas.index(min(areas))
    for i in range(len(areas) - 1):
        if i < pivot and areas[i + 1] > areas[i] * (1.0 + wiggle):
            return CheckResult(
                "row_sweep_sanity", False,
                f"area rises {areas[i]:.1f} -> {areas[i + 1]:.1f} at rows "
                f"{first + i}->{first + i + 1}, before the minimum at rows "
                f"{first + pivot}: {[round(a, 1) for a in areas]}",
            )
        if i >= pivot and areas[i + 1] < areas[i] * (1.0 - wiggle):
            return CheckResult(
                "row_sweep_sanity", False,
                f"area drops {areas[i]:.1f} -> {areas[i + 1]:.1f} at rows "
                f"{first + i}->{first + i + 1}, after the minimum at rows "
                f"{first + pivot}: {[round(a, 1) for a in areas]}",
            )
    return CheckResult("row_sweep_sanity", True)


def check_area_monotone_in_devices(
    small: Module,
    large: Module,
    process: ProcessDatabase,
    methodology: str = "standard-cell",
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """A module that strictly contains another (same construction, more
    devices) never gets a smaller area estimate.

    For standard cells the comparison is pinned to a common row count —
    Eq. 12 trades rows against tracks, so comparing the Section 5 row
    choices of two different modules would mix two effects.
    """
    config = config or EstimatorConfig()
    if small.device_count >= large.device_count:
        return CheckResult(
            "area_monotone_in_devices", False,
            f"bad pair: {small.device_count} !< {large.device_count} devices",
        )
    if methodology == "standard-cell":
        rows = config.rows or min(4, small.device_count)
        pinned = config.with_rows(rows)
        area_small = estimate_standard_cell(small, process, pinned).area
        area_large = estimate_standard_cell(large, process, pinned).area
    else:
        area_small = estimate_full_custom(small, process, config).area
        area_large = estimate_full_custom(large, process, config).area
    if area_large >= area_small:
        return CheckResult("area_monotone_in_devices", True)
    return CheckResult(
        "area_monotone_in_devices", False,
        f"{large.device_count} devices estimate {area_large:.1f} below "
        f"{small.device_count}-device estimate {area_small:.1f}",
    )


def check_serve_equivalence(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    steps: int = 4,
) -> CheckResult:
    """Estimates served over live ``mae serve`` HTTP are bit-identical
    to direct calls.

    Spins an in-process server, ships the module as Verilog source
    (``POST /sessions`` — so the writer/parser round-trip is under
    test too), then compares every served estimate — the default-rows
    estimate, a multi-row request, and a re-estimate after each of
    ``steps`` seeded ECO edits — against
    :func:`~repro.core.standard_cell.estimate_standard_cell_from_stats`
    on a client-side mirror of the session's module.  Served payloads
    decode through :func:`repro.service.wire.estimate_from_jsonable`;
    comparison is exact on every field, floats included (JSON floats
    round-trip exactly).  The edit seed derives from the module, so a
    failing case replays from its corpus spec.
    """
    import json
    import urllib.request

    from repro.incremental.mutations import mutations_to_jsonable
    from repro.netlist.writers import write_verilog
    from repro.service.engine import EstimationEngine, ServiceConfig
    from repro.service.server import start_server
    from repro.service.wire import estimate_from_jsonable

    config = config or EstimatorConfig()
    name = "serve_equivalence"
    server = start_server(EstimationEngine(ServiceConfig()))
    # The session must estimate under *this* process instance, which
    # may not be a builtin tech: register it under a private name.
    server.processes["verify-process"] = process

    def post(path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            server.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def served_vs_direct(payload: dict, mirror: Module,
                         case_config: EstimatorConfig, label: str):
        served = estimate_from_jsonable(payload)
        direct = estimate_standard_cell_from_stats(
            _scan(mirror, process, case_config), process, case_config
        )
        if _fields(served) != _fields(direct):
            return CheckResult(
                name, False, f"{label}: {_mismatch(served, direct)}"
            )
        return None

    mirror = module.copy()
    probe_rows = (2, 3, 5)
    try:
        body = post("/sessions", {
            "source": write_verilog(module),
            "format": "verilog",
            "tech": "verify-process",
            "config": _config_jsonable(config),
        })
        session_id = body["session"]
        failure = served_vs_direct(
            post(f"/sessions/{session_id}/estimate", {})["estimate"],
            mirror, config, "initial estimate",
        )
        if failure is not None:
            return failure
        multi = post(
            f"/sessions/{session_id}/estimate", {"rows": list(probe_rows)}
        )["estimates"]
        for rows, payload in zip(probe_rows, multi):
            failure = served_vs_direct(
                payload, mirror, config.with_rows(rows), f"rows={rows}"
            )
            if failure is not None:
                return failure
        seed = zlib.crc32(module.name.encode("utf-8")) ^ (
            module.device_count << 1
        )
        rng = random.Random(seed)
        for step in range(steps):
            mutation = random_mutation(mirror, rng, config.power_nets)
            body = post(f"/sessions/{session_id}/edits", {
                "edits": mutations_to_jsonable([mutation]),
            })
            mutation.apply(mirror)
            failure = served_vs_direct(
                body["estimate"], mirror, config,
                f"after edit {step} ({mutation.kind})",
            )
            if failure is not None:
                return failure
    finally:
        server.stop(drain=True)
    return CheckResult(name, True)


def check_portfolio_determinism(
    spec,
    process: ProcessDatabase,
    steps: int = 40,
) -> CheckResult:
    """The portfolio optimizer is a pure function of (design, config).

    Spec-level (it needs the hierarchical *design*, not the flattened
    module): rebuilds the ``hier`` case's design from its recipe and
    asserts three identities over a short race — a same-seed rerun
    replays bit-identically, a resume from a mid-run checkpoint
    continues the identical trajectory to the identical winner, and
    the serial rescan engine walks the same path as the compiled hot
    path (trajectory hashes, winner, best cost, and best row
    assignment all compared exactly).
    """
    from repro.floorplan.portfolio import (
        PortfolioConfig,
        load_checkpoint,
        run_portfolio,
    )
    from repro.workloads.designs import generate_design

    name = "portfolio_determinism"
    design = generate_design(
        int(spec.param("modules")), seed=spec.seed, name=spec.label
    )
    config = PortfolioConfig(
        steps=steps, seed=spec.seed,
        checkpoint_every=max(1, steps // 2), spot_checks=2,
    )

    def signature(result):
        return (
            result.trajectory_hashes,
            result.winner,
            result.best_cost,
            result.best_rows,
        )

    first = run_portfolio(design, process, config)
    second = run_portfolio(design, process, config)
    if signature(first) != signature(second):
        return CheckResult(
            name, False,
            "same-seed reruns diverge: "
            f"{first.trajectory_hashes} != {second.trajectory_hashes}",
        )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "resume.json")
        run_portfolio(
            design, process, config,
            checkpoint_path=ckpt, stop_after=max(1, steps // 2),
        )
        resumed = run_portfolio(
            design, process, config, resume=load_checkpoint(ckpt)
        )
    if signature(resumed) != signature(first):
        return CheckResult(
            name, False,
            "resume-from-checkpoint diverges from the one-shot run: "
            f"{resumed.trajectory_hashes} != {first.trajectory_hashes}",
        )
    serial = run_portfolio(design, process, config, engine="serial")
    if signature(serial) != signature(first):
        return CheckResult(
            name, False,
            "serial and portfolio engines walk different trajectories: "
            f"{serial.trajectory_hashes} != {first.trajectory_hashes}",
        )
    weighted_config = dataclasses.replace(config, routability_weight=0.8)
    weighted = run_portfolio(design, process, weighted_config)
    weighted_serial = run_portfolio(
        design, process, weighted_config, engine="serial"
    )
    if signature(weighted) != signature(weighted_serial):
        return CheckResult(
            name, False,
            "routability-weighted runs diverge between engines: "
            f"{weighted.trajectory_hashes} != "
            f"{weighted_serial.trajectory_hashes}",
        )
    return CheckResult(name, True)


def _config_jsonable(config: EstimatorConfig) -> dict:
    """An :class:`EstimatorConfig` as the service's ``config`` wire
    object (the fields ``repro.service.server.CONFIG_FIELDS`` lists)."""
    from repro.service.server import CONFIG_FIELDS

    payload = {
        field: getattr(config, field) for field in CONFIG_FIELDS
    }
    payload["power_nets"] = list(payload["power_nets"])
    return payload


def check_frontend_accuracy(
    envelope_path: Optional[str] = None,
) -> CheckResult:
    """The committed frontend calibration still holds.

    Corpus-independent (it runs once per sweep, like the portfolio
    gate): refits the per-library correction factor over the committed
    golden BLIF/Liberty fixtures and compares against the committed
    ``VERIFY_frontend_envelope.json`` — the fixture set must match,
    the refitted factor must agree to float precision (the fit is
    deterministic arithmetic over committed inputs), and every
    refitted residual must sit inside the committed accuracy band.
    Any drift in parser, estimator, or fixtures fails the gate with
    the offending designs named; ``mae calibrate`` re-fits and
    rewrites the artifact when a change is intentional.
    """
    from repro.errors import FrontendError, VerificationError
    from repro.frontend.calibrate import (
        default_envelope_path,
        load_frontend_envelope,
        measure_frontend_envelope,
    )

    name = "frontend_accuracy"
    path = envelope_path or str(default_envelope_path())
    try:
        committed = load_frontend_envelope(path)
        fresh = measure_frontend_envelope(
            pdn_margin=committed["pdn_margin"],
            bounds=(committed["bounds"]["low"],
                    committed["bounds"]["high"]),
        )
    except (KeyError, FrontendError, VerificationError) as exc:
        return CheckResult(
            name, False,
            f"cannot evaluate the committed envelope: {exc} "
            "(run 'mae calibrate' to regenerate it)",
        )
    committed_designs = [case["design"] for case in committed["cases"]]
    fresh_designs = [case["design"] for case in fresh["cases"]]
    if committed_designs != fresh_designs:
        return CheckResult(
            name, False,
            f"fixture set drifted from the committed envelope: "
            f"committed {committed_designs}, on disk {fresh_designs}",
        )
    factor_drift = abs(fresh["factor"] - committed["factor"])
    if factor_drift > 1e-9 * max(1.0, abs(committed["factor"])):
        return CheckResult(
            name, False,
            f"refitted correction factor {fresh['factor']!r} drifted "
            f"from the committed {committed['factor']!r}",
        )
    violations = [
        f"{case['design']} (residual {case['residual']:+.4f})"
        for case in fresh["cases"] if not case["within"]
    ]
    if violations:
        bounds = committed["bounds"]
        return CheckResult(
            name, False,
            f"residual(s) outside the committed accuracy band "
            f"[{bounds['low']:+.4f}, {bounds['high']:+.4f}]: "
            + ", ".join(violations),
        )
    return CheckResult(name, True)


#: Per-module equivalence checks by methodology, for the runner.
EQUIVALENCE_CHECKS: Tuple[Tuple[str, str, Callable], ...] = (
    ("plan_vs_direct", "standard-cell", check_plan_vs_direct),
    ("caches_identity", "*", check_caches_identity),
    ("trace_identity", "*", check_trace_identity),
    ("incremental_equivalence", "standard-cell",
     check_incremental_equivalence),
    ("serve_equivalence", "standard-cell", check_serve_equivalence),
)

#: Per-module metamorphic checks (standard-cell only; the full-custom
#: estimator has no rows/tracks knobs to relate).
METAMORPHIC_CHECKS: Tuple[Tuple[str, Callable], ...] = (
    ("shared_within_upper_bound", check_shared_within_upper_bound),
    ("sharing_factor_monotone", check_sharing_factor_monotone),
    ("row_sweep_sanity", check_row_sweep_sanity),
)


def run_module_checks(
    module: Module,
    process: ProcessDatabase,
    methodology: str,
    config: Optional[EstimatorConfig] = None,
) -> List[CheckResult]:
    """All per-module checks that apply to ``methodology``."""
    results: List[CheckResult] = []
    for name, scope, check in EQUIVALENCE_CHECKS:
        if scope in ("*", methodology):
            if scope == "*":
                results.append(check(module, process, methodology, config))
            else:
                results.append(check(module, process, config))
    if methodology == "standard-cell":
        for _, check in METAMORPHIC_CHECKS:
            results.append(check(module, process, config))
    return results
