"""Batch front door for the estimators.

The floor-planning regime (PAPERS.md: running an area estimator inside
floorplan iteration over thousands of candidate configurations) calls
the per-module estimators in large, regular patterns:
(module x row-count x methodology).  Calling
:func:`~repro.core.standard_cell.estimate_standard_cell` once per
triple repeats two kinds of work — the schematic scan (once per call
instead of once per module) and the probability kernels (now shared
process-wide via :mod:`repro.perf.kernels`).

:func:`estimate_batch` removes both:

* each module is scanned **once** per distinct scan signature (port
  pitch override, power-net list) and the scan is reused across every
  row count and methodology;
* standard-cell tasks evaluate through compiled
  :class:`~repro.perf.plan.EstimationPlan` objects (one compilation per
  module per distinct config family, then one plan lookup per run of
  row counts).

The whole batch runs in the calling process and is bit-identical to
per-call estimation.  The sweep helpers (``sweep_rows``, Table 1/2
drivers, the ablations) all route through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom
from repro.core.results import FullCustomEstimate, StandardCellEstimate
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.netlist.stats import ModuleStatistics, scan_module
from repro.obs.trace import current_tracer
from repro.perf.plan import get_plan
from repro.technology.process import ProcessDatabase

#: Methodologies the batch executor understands.
BATCH_METHODOLOGIES = ("standard-cell", "full-custom")

Estimate = Union[StandardCellEstimate, FullCustomEstimate]


@dataclass(frozen=True)
class BatchTask:
    """One (module, methodology, config) estimation triple."""

    module_index: int
    module_name: str
    methodology: str
    config: EstimatorConfig


@dataclass(frozen=True)
class BatchResult:
    """A task together with its estimate."""

    task: BatchTask
    estimate: Estimate


def estimate_batch(
    modules: Sequence[Module],
    process: ProcessDatabase,
    configs: Union[
        EstimatorConfig,
        Sequence[EstimatorConfig],
        Sequence[Sequence[EstimatorConfig]],
    ],
    methodologies: Iterable[str] = ("standard-cell",),
) -> List[BatchResult]:
    """Estimate every (module x methodology x config) combination.

    Parameters
    ----------
    modules:
        The modules to estimate.  Each is scanned once per distinct
        scan signature, no matter how many configs it is estimated at.
    configs:
        A single :class:`EstimatorConfig` (applied to every module), a
        flat sequence of configs (cross product with every module), or
        a per-module sequence of config sequences (``len(configs) ==
        len(modules)`` — row-count sweeps where the tabulated counts
        differ per module).
    methodologies:
        Subset of ``("standard-cell", "full-custom")``.

    Returns
    -------
    One :class:`BatchResult` per triple, ordered by module, then
    methodology (in the order given), then config (in the order given).
    """
    methodologies = tuple(methodologies)
    if not methodologies:
        raise EstimationError("at least one methodology is required")
    unknown = set(methodologies) - set(BATCH_METHODOLOGIES)
    if unknown:
        raise EstimationError(
            f"unknown methodologies {sorted(unknown)}; expected a subset "
            f"of {BATCH_METHODOLOGIES}"
        )

    modules = list(modules)
    per_module_configs = _normalise_configs(modules, configs)
    tracer = current_tracer()

    with tracer.span("batch.estimate") as batch_span:
        results: List[BatchResult] = []
        for module_index, (module, module_configs) in enumerate(
            zip(modules, per_module_configs)
        ):
            cursor = iter(_run_group(
                module, process, methodologies, module_configs
            ))
            for methodology in methodologies:
                for config in module_configs:
                    results.append(
                        BatchResult(
                            task=BatchTask(
                                module_index=module_index,
                                module_name=module.name,
                                methodology=methodology,
                                config=config,
                            ),
                            estimate=next(cursor),
                        )
                    )
        if tracer.enabled:
            batch_span.set("groups", len(modules))
            batch_span.set("tasks", len(results))
            metrics = tracer.metrics
            metrics.incr("batch.calls")
            metrics.incr("batch.groups", len(modules))
            metrics.incr("batch.tasks", len(results))
    return results


def _run_group(module, process, methodologies, configs) -> List[Estimate]:
    """All (methodology x config) estimates for one module, in order.

    The schematic scan is shared across every config with the same scan
    signature, and kernel-cache entries are shared process-wide.
    """
    scans: dict = {}

    def stats_for(config: EstimatorConfig) -> ModuleStatistics:
        key = (config.port_pitch_override, config.power_nets)
        if key not in scans:
            tracer = current_tracer()
            with tracer.span("scan") as span:
                scans[key] = scan_module(
                    module,
                    device_width=process.device_width,
                    device_height=process.device_height,
                    port_width=config.port_pitch_override
                    or process.port_pitch,
                    power_nets=config.power_nets,
                )
                if tracer.enabled:
                    span.set("module", module.name)
                    tracer.metrics.incr("scan.modules")
        return scans[key]

    estimates: List[Estimate] = []
    for methodology in methodologies:
        if methodology != "standard-cell":
            for config in configs:
                estimates.append(
                    estimate_full_custom(
                        module, process, config, stats=stats_for(config)
                    )
                )
            continue
        # Compiled-plan path: one compilation per (stats, config
        # family), and consecutive configs that differ only in their
        # explicit row count — the row-sweep shape — share one plan
        # lookup and one plan.evaluate_rows() call.
        index = 0
        while index < len(configs):
            config = configs[index]
            plan = get_plan(stats_for(config), process, config)
            run = [config]
            if config.rows is not None:
                family = config.with_rows(None)
                while index + len(run) < len(configs):
                    nxt = configs[index + len(run)]
                    if nxt.rows is None or nxt.with_rows(None) != family:
                        break
                    run.append(nxt)
            if len(run) > 1:
                estimates.extend(
                    plan.evaluate_rows([c.rows for c in run])
                )
            else:
                estimates.append(plan.evaluate(config.rows))
            index += len(run)
    return estimates


def _normalise_configs(
    modules: Sequence[Module],
    configs,
) -> List[Tuple[EstimatorConfig, ...]]:
    """Expand the three accepted ``configs`` shapes to one tuple of
    configs per module."""
    if isinstance(configs, EstimatorConfig):
        return [(configs,) for _ in modules]
    configs = list(configs)
    if not configs:
        raise EstimationError("at least one config is required")
    if all(isinstance(c, EstimatorConfig) for c in configs):
        shared = tuple(configs)
        return [shared for _ in modules]
    # Per-module nesting: a sequence of config sequences.
    if len(configs) != len(modules):
        raise EstimationError(
            f"per-module configs: expected {len(modules)} groups, "
            f"got {len(configs)}"
        )
    per_module: List[Tuple[EstimatorConfig, ...]] = []
    for index, group in enumerate(configs):
        group = tuple(group)
        if not group or not all(
            isinstance(c, EstimatorConfig) for c in group
        ):
            raise EstimationError(
                f"per-module configs for module {index} must be a "
                "non-empty sequence of EstimatorConfig"
            )
        per_module.append(group)
    return per_module
