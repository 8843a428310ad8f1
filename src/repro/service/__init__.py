"""Estimation-as-a-service: engine facade and ``mae serve`` HTTP layer.

This package turns the estimator into a long-lived multi-tenant
service.  :class:`~repro.service.engine.EstimationEngine` is the
transport-agnostic facade — sessions wrap live
:class:`~repro.incremental.IncrementalEstimator` instances, a bounded
request queue coalesces concurrent estimates into batched dispatches,
and one shared kernel-cache / Stirling-triangle / plan-cache stack
spans all sessions.  :class:`~repro.service.server.MAEServer` exposes
the facade over stdlib HTTP+JSON (``mae serve``);
:mod:`~repro.service.wire` defines the bit-exact estimate codec; and
:mod:`~repro.service.loadtest` drives a live server with verify-corpus
traffic for CI smoke and the bench serve phase.

See ``docs/SERVICE.md`` for the operator's guide and
``docs/ARCHITECTURE.md`` for the cache-sharing invariants the engine
enforces.
"""

from repro.service.engine import EstimationEngine, ServiceConfig, Session
from repro.service.server import MAEServer, ROUTES, start_server
from repro.service.wire import estimate_from_jsonable, estimate_to_jsonable

__all__ = [
    "EstimationEngine",
    "MAEServer",
    "ROUTES",
    "ServiceConfig",
    "Session",
    "estimate_from_jsonable",
    "estimate_to_jsonable",
    "start_server",
]
