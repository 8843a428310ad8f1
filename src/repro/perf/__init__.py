"""Performance subsystem: shared kernels, plans, batch execution, benchmarks.

The paper sells the estimator on speed ("a modest amount of computer
time": < 1.5 CPU s full-custom, < 3 CPU s standard-cell per module on a
Sun 3/50), and the floor-planning use case — re-estimating every module
of a chip at every candidate row count on every floorplan iteration —
multiplies that per-call cost by thousands.  This package keeps the
estimators' *math* untouched while removing the repeated work:

* :mod:`repro.perf.kernels` — process-wide memoization of the pure
  combinatorial kernels (Eqs. 2-3 row-spread PMFs, Eq. 3 track counts,
  Eqs. 8-9 central feed-through probabilities) backed by one shared,
  incrementally-grown Stirling triangle of surjection counts, plus
  whole-histogram batch kernels, with hit/miss/bypass statistics for
  observability.  The caches live in memory only; nothing is persisted
  across processes, because recomputing a cold kernel beats loading it.
* :mod:`repro.perf.plan` — ``EstimationPlan``: the standard-cell
  estimator compiled once per module (frozen histogram arrays,
  pre-resolved process constants) and re-evaluated per row count,
  bit-identical to the direct path.
* :mod:`repro.perf.batch` — ``estimate_batch``: scan each module once
  and evaluate every (module x config x methodology) task through
  compiled plans, in process and bit-identical to the per-call
  estimators.
* :mod:`repro.perf.bench` — the perf-trajectory harness that times the
  Table 1/2 suites, a large synthetic sweep and the plan-vs-direct
  paths, and writes ``BENCH_batch_engine.json`` so every future PR's
  speedups (or regressions) land in a machine-readable trajectory.
"""

from repro.perf.kernels import (
    CacheStats,
    cache_enabled,
    caches_disabled,
    clear_kernel_caches,
    kernel_cache_stats,
    set_cache_enabled,
    surjection_triangle_stats,
)

#: Symbols re-exported lazily (PEP 562): repro.perf.batch and
#: repro.perf.plan import the estimators, which import
#: repro.perf.kernels — an eager import here would be circular.
_LAZY_EXPORTS = {
    "BatchResult": "batch",
    "BatchTask": "batch",
    "estimate_batch": "batch",
    "EstimationPlan": "plan",
    "compile_plan": "plan",
    "get_plan": "plan",
    "plan_cache_stats": "plan",
    "clear_plan_cache": "plan",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.perf.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BatchResult",
    "BatchTask",
    "CacheStats",
    "EstimationPlan",
    "cache_enabled",
    "caches_disabled",
    "clear_kernel_caches",
    "clear_plan_cache",
    "compile_plan",
    "estimate_batch",
    "get_plan",
    "kernel_cache_stats",
    "plan_cache_stats",
    "set_cache_enabled",
    "surjection_triangle_stats",
]
