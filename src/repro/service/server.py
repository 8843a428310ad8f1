"""``mae serve``: the stdlib HTTP+JSON front of the engine facade.

One :class:`MAEServer` wraps one :class:`~repro.service.engine
.EstimationEngine` behind ``http.server.ThreadingHTTPServer`` — no
third-party dependency, matching the package's zero-dependency runtime.
Handler threads do only cheap work (JSON codec, netlist parsing, edit
application under the session lock); every shared-cache estimate
evaluation rides the engine's single dispatcher thread, preserving the
concurrency invariant documented in ``docs/ARCHITECTURE.md``.

The route table below is the server's public contract;
``docs/SERVICE.md`` documents each endpoint with examples and
``tests/test_docs_consistency.py`` keeps the two in lockstep.

Status mapping (see :mod:`repro.errors`):

* 400 — malformed JSON, unparseable netlist, bad config/edits
* 404 — unknown route or unknown session
* 409 — session limit reached
* 429 — backpressure: the bounded request queue (or the in-flight
  request limiter) is full; retry with backoff
* 503 — the engine is draining for shutdown
* 504 — the per-request timeout expired before dispatch
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.core.config import EstimatorConfig
from repro.errors import (
    EstimationError,
    MutationError,
    NetlistError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    SessionError,
    TechnologyError,
)
from repro.incremental.mutations import mutations_from_jsonable
from repro.netlist import parse_spice, parse_verilog
from repro.obs.metrics import LatencyTracker
from repro.service.engine import EstimationEngine, ServiceConfig
from repro.service.wire import estimate_to_jsonable
from repro.technology.libraries import builtin_processes

#: The public endpoint contract: (method, path template, summary).
#: ``docs/SERVICE.md`` must list exactly these —
#: ``tests/test_docs_consistency.py`` enforces it.
ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("GET", "/health", "liveness probe"),
    ("GET", "/metrics", "repro.obs snapshot plus service/server sections"),
    ("POST", "/sessions", "create a session from a netlist source"),
    ("GET", "/sessions", "list open sessions"),
    ("GET", "/sessions/{id}", "describe one session"),
    ("DELETE", "/sessions/{id}", "close a session"),
    ("POST", "/sessions/{id}/estimate", "estimate the live module"),
    ("POST", "/sessions/{id}/edits", "apply ECO edits and re-estimate"),
    ("POST", "/estimate", "sessionless batch estimate"),
    ("POST", "/shutdown", "drain in-flight work and stop"),
)

#: EstimatorConfig fields settable over the wire (``config`` objects in
#: session-create and batch-estimate bodies).  ``power_nets`` arrives
#: as a JSON list and is tupled; everything else passes through to the
#: frozen dataclass, whose own validation rejects bad values.
CONFIG_FIELDS = (
    "rows", "max_rows", "feedthrough_model", "track_sharing_factor",
    "track_model", "congestion_margin", "net_span_mode",
    "device_area_mode", "port_pitch_override", "power_nets", "max_aspect",
)

#: The top-level fields ``POST /sessions`` reads; any other field is
#: rejected (400) rather than silently ignored.
SESSION_FIELDS = ("source", "format", "tech", "config", "name")

_PARSERS = {"verilog": parse_verilog, "spice": parse_spice}


class _HTTPServer(ThreadingHTTPServer):
    """Threaded server tuned for connection-per-request clients: a
    deep accept backlog absorbs the simultaneous-connect storm of many
    sessions (the stdlib default of 5 drops connections at ~20+
    concurrent clients), and daemon handler threads never block
    interpreter exit."""

    daemon_threads = True
    request_queue_size = 256


class _HTTPFail(Exception):
    """Internal: unwind a handler with a specific status + message."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


def config_from_jsonable(payload: object) -> EstimatorConfig:
    """Build an :class:`EstimatorConfig` from a request's ``config``
    object, rejecting unknown fields loudly (400)."""
    if payload is None:
        return EstimatorConfig()
    if not isinstance(payload, dict):
        raise _HTTPFail(400, "'config' must be a JSON object")
    unknown = set(payload) - set(CONFIG_FIELDS)
    if unknown:
        raise _HTTPFail(
            400, f"unknown config fields {sorted(unknown)} "
                 f"(settable: {', '.join(CONFIG_FIELDS)})"
        )
    fields = dict(payload)
    if "power_nets" in fields:
        nets = fields["power_nets"]
        if not isinstance(nets, list) or not all(
            isinstance(net, str) for net in nets
        ):
            raise _HTTPFail(400, "'power_nets' must be a list of strings")
        fields["power_nets"] = tuple(nets)
    try:
        return EstimatorConfig(**fields)
    except (EstimationError, TypeError) as exc:
        raise _HTTPFail(400, f"invalid config: {exc}") from exc


def _parse_module(body: dict, field_prefix: str = ""):
    """Parse the ``source``/``format`` pair of a request body."""
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise _HTTPFail(
            400, f"'{field_prefix}source' must be a non-empty string"
        )
    fmt = body.get("format", "verilog")
    parser = _PARSERS.get(fmt)
    if parser is None:
        raise _HTTPFail(
            400, f"unknown format {fmt!r} (supported: verilog, spice)"
        )
    return parser(source)


def _rows_spec(body: dict):
    """Normalize the ``rows`` field: null, int, or list of ints."""
    rows = body.get("rows")
    if rows is None or isinstance(rows, int) and not isinstance(rows, bool):
        return rows
    if isinstance(rows, list) and rows and all(
        isinstance(r, int) and not isinstance(r, bool) for r in rows
    ):
        return tuple(rows)
    raise _HTTPFail(
        400, "'rows' must be null, an integer, or a non-empty "
             "list of integers"
    )


class MAEServer:
    """One HTTP server bound to one engine.

    ``port=0`` binds an ephemeral port (tests, load tests); the bound
    address is available as :attr:`base_url` after construction.
    ``max_inflight`` bounds concurrently *handled* requests across all
    endpoints — the second backpressure layer in front of the engine's
    bounded queue (both answer 429).
    """

    def __init__(
        self,
        engine: Optional[EstimationEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 128,
    ) -> None:
        if max_inflight < 1:
            raise ServiceError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.engine = engine or EstimationEngine(ServiceConfig())
        #: One shared process database per tech name: sessions of the
        #: same technology share one instance, which keys them onto the
        #: same plans and lets multi-session drains batch together.
        self.processes = {
            name: factory() for name, factory in builtin_processes().items()
        }
        self.latency: Dict[str, LatencyTracker] = {}
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._inflight = threading.Semaphore(max_inflight)
        self._thread: Optional[threading.Thread] = None
        self._stopped = False
        self._done = threading.Event()
        handler = _make_handler(self)
        self._httpd = _HTTPServer((host, port), handler)
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has completed its drain."""
        return self._done.is_set()

    # ------------------------------------------------------------------
    def start(self) -> "MAEServer":
        """Serve on a background thread (tests, load tests)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="mae-serve", daemon=True,
        )
        self._thread.start()
        return self

    def run_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or
        Ctrl-C in the CLI handler) — the ``mae serve`` foreground."""
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting connections, drain the
        engine (serving every queued request), persist caches."""
        if self._stopped:
            return
        self._stopped = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self.engine.shutdown(drain=drain)
        if self._thread is not None and self._thread is not (
            threading.current_thread()
        ):
            self._thread.join(timeout=10.0)
        self._done.set()

    # ------------------------------------------------------------------
    def observe(self, endpoint: str, seconds: float, status: int) -> None:
        with self._lock:
            tracker = self.latency.get(endpoint)
            if tracker is None:
                tracker = self.latency[endpoint] = LatencyTracker()
            key = f"{endpoint}:{status}"
            self._counts[key] = self._counts.get(key, 0) + 1
        tracker.observe(seconds)

    def server_stats(self) -> dict:
        with self._lock:
            counts = dict(sorted(self._counts.items()))
            latency = {
                endpoint: tracker.summary()
                for endpoint, tracker in sorted(self.latency.items())
            }
        return {"responses": counts, "latency": latency}


def _make_handler(server: MAEServer):
    """The request-handler class, closed over its :class:`MAEServer`."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "mae-serve/1"
        protocol_version = "HTTP/1.1"

        # silence per-request stderr logging; metrics carry the signal
        def log_message(self, format, *args):  # noqa: A002
            pass

        def do_GET(self) -> None:
            self._route("GET")

        def do_POST(self) -> None:
            self._route("POST")

        def do_DELETE(self) -> None:
            self._route("DELETE")

        # --------------------------------------------------------------
        def _route(self, method: str) -> None:
            start = time.perf_counter()
            endpoint = "unmatched"
            status = 500
            if not server._inflight.acquire(blocking=False):
                self._reply(429, {"error": "server is at its in-flight "
                                           "request limit; retry"})
                server.observe("inflight-limit", 0.0, 429)
                return
            try:
                # Resolve the route before running its handler so error
                # responses are attributed to the endpoint they hit, not
                # lumped under "unmatched".
                endpoint, status, thunk = self._dispatch(method)
                self._reply(status, thunk())
            except _HTTPFail as exc:
                status = exc.status
                self._reply(exc.status, {"error": exc.message})
            except ReproError as exc:
                status, payload = _map_error(exc)
                self._reply(status, payload)
            except Exception as exc:  # never kill the handler thread
                status = 500
                self._reply(500, {"error": f"internal error: {exc}"})
            finally:
                server._inflight.release()
                server.observe(
                    endpoint, time.perf_counter() - start, status
                )

        def _dispatch(self, method: str) -> Tuple[str, int, object]:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["health"]:
                self._require(method, "GET", "/health")
                return "GET /health", 200, lambda: {
                    "status": "ok",
                    "accepting": server.engine.service_stats()["accepting"],
                }
            if parts == ["metrics"]:
                self._require(method, "GET", "/metrics")
                return "GET /metrics", 200, self._metrics
            if parts == ["sessions"]:
                if method == "POST":
                    return "POST /sessions", 201, self._create_session
                self._require(method, "GET", "/sessions")
                return "GET /sessions", 200, lambda: {
                    "sessions": server.engine.list_sessions()
                }
            if len(parts) == 2 and parts[0] == "sessions":
                session_id = parts[1]
                if method == "GET":
                    return "GET /sessions/{id}", 200, lambda: (
                        server.engine.session(session_id).info()
                    )
                self._require(method, "DELETE", "/sessions/{id}")
                return "DELETE /sessions/{id}", 200, lambda: {
                    "closed": server.engine.close_session(session_id)
                }
            if len(parts) == 3 and parts[0] == "sessions":
                session_id, action = parts[1], parts[2]
                if action == "estimate":
                    self._require(method, "POST",
                                  "/sessions/{id}/estimate")
                    return ("POST /sessions/{id}/estimate", 200,
                            lambda: self._estimate(session_id))
                if action == "edits":
                    self._require(method, "POST", "/sessions/{id}/edits")
                    return ("POST /sessions/{id}/edits", 200,
                            lambda: self._edits(session_id))
            if parts == ["estimate"]:
                self._require(method, "POST", "/estimate")
                return "POST /estimate", 200, self._batch_estimate
            if parts == ["shutdown"]:
                self._require(method, "POST", "/shutdown")
                return "POST /shutdown", 202, self._shutdown
            raise _HTTPFail(404, f"no route for {method} {self.path}")

        @staticmethod
        def _metrics() -> dict:
            payload = server.engine.metrics()
            payload["server"] = server.server_stats()
            return payload

        @staticmethod
        def _shutdown() -> dict:
            threading.Thread(
                target=server.stop, kwargs={"drain": True},
                name="mae-serve-shutdown", daemon=True,
            ).start()
            return {"status": "draining"}

        @staticmethod
        def _require(method: str, expected: str, route: str) -> None:
            if method != expected:
                raise _HTTPFail(
                    405, f"{route} only supports {expected}"
                )

        # --------------------------------------------------------------
        def _create_session(self) -> dict:
            body = self._json_body()
            unknown = set(body) - set(SESSION_FIELDS)
            if unknown:
                raise _HTTPFail(
                    400, f"unknown session fields {sorted(unknown)} "
                         f"(accepted: {', '.join(SESSION_FIELDS)})"
                )
            module = _parse_module(body)
            tech = body.get("tech", "nmos")
            process = server.processes.get(tech)
            if process is None:
                raise _HTTPFail(
                    400, f"unknown tech {tech!r} "
                         f"(available: {sorted(server.processes)})"
                )
            config = config_from_jsonable(body.get("config"))
            name = body.get("name")
            if name is not None and not isinstance(name, str):
                raise _HTTPFail(400, "'name' must be a string")
            session = server.engine.create_session(
                module, process, config, name=name
            )
            return session.info()

        def _estimate(self, session_id: str) -> dict:
            body = self._json_body(optional=True)
            rows = _rows_spec(body)
            version, result = server.engine.estimate(
                session_id, rows, timeout=_timeout(body)
            )
            return _estimate_payload(session_id, version, rows, result)

        def _edits(self, session_id: str) -> dict:
            body = self._json_body()
            document = body.get("edits")
            if document is None:
                raise _HTTPFail(
                    400, "'edits' must hold a mutations document "
                         "(the mae eco edits-file format)"
                )
            mutations = mutations_from_jsonable(document)
            rows = _rows_spec(body)
            want_estimate = body.get("estimate", True)
            if not isinstance(want_estimate, bool):
                raise _HTTPFail(400, "'estimate' must be a boolean")
            version, result = server.engine.apply_edits(
                session_id, mutations, rows,
                estimate=want_estimate, timeout=_timeout(body),
            )
            payload = {"applied": len(mutations)}
            if want_estimate:
                payload.update(
                    _estimate_payload(session_id, version, rows, result)
                )
            else:
                payload.update({"session": session_id, "version": version})
            return payload

        def _batch_estimate(self) -> dict:
            body = self._json_body()
            specs = body.get("modules")
            if not isinstance(specs, list) or not specs:
                raise _HTTPFail(
                    400, "'modules' must be a non-empty list of "
                         "{source, format} objects"
                )
            modules = []
            for index, spec in enumerate(specs):
                if not isinstance(spec, dict):
                    raise _HTTPFail(
                        400, f"modules[{index}] must be an object"
                    )
                modules.append(_parse_module(spec))
            tech = body.get("tech", "nmos")
            process = server.processes.get(tech)
            if process is None:
                raise _HTTPFail(
                    400, f"unknown tech {tech!r} "
                         f"(available: {sorted(server.processes)})"
                )
            methodology = body.get("methodology", "standard-cell")
            if methodology not in ("standard-cell", "full-custom"):
                raise _HTTPFail(
                    400, "'methodology' must be 'standard-cell' or "
                         "'full-custom'"
                )
            config = config_from_jsonable(body.get("config"))
            rows = _rows_spec(body)
            row_list = (
                list(rows) if isinstance(rows, tuple) else [rows]
            )
            configs = [
                config if r is None else config.with_rows(r)
                for r in row_list
            ]

            def job():
                from repro.perf.batch import estimate_batch

                return estimate_batch(
                    modules, process, configs,
                    methodologies=(methodology,),
                )

            results = server.engine.submit_job(job, timeout=_timeout(body))
            return {
                "count": len(results),
                "estimates": [
                    {
                        "module": result.task.module_name,
                        "methodology": result.task.methodology,
                        "estimate": estimate_to_jsonable(result.estimate),
                    }
                    for result in results
                ],
            }

        # --------------------------------------------------------------
        def _json_body(self, optional: bool = False) -> dict:
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                # The body's framing is unknown, so the connection
                # cannot be reused for another request.
                self.close_connection = True
                raise _HTTPFail(
                    400, f"invalid Content-Length {declared!r}"
                )
            if length == 0:
                if optional:
                    return {}
                raise _HTTPFail(400, "request body must be JSON")
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HTTPFail(
                    400, f"request body is not valid JSON: {exc}"
                ) from exc
            if not isinstance(body, dict):
                raise _HTTPFail(400, "request body must be a JSON object")
            return body

        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing to salvage

    return Handler


def _timeout(body: dict) -> Optional[float]:
    timeout = body.get("timeout")
    if timeout is None:
        return None
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) \
            or timeout <= 0:
        raise _HTTPFail(400, "'timeout' must be a positive number")
    return float(timeout)


def _estimate_payload(session_id, version, rows, result) -> dict:
    payload = {"session": session_id, "version": version}
    if isinstance(result, tuple):
        payload["estimates"] = [
            estimate_to_jsonable(estimate) for estimate in result
        ]
    else:
        payload["estimate"] = estimate_to_jsonable(result)
    return payload


def _map_error(exc: ReproError) -> Tuple[int, dict]:
    """ReproError subclass -> (status, body); the service contract."""
    if isinstance(exc, QueueFullError):
        return 429, {"error": str(exc)}
    if isinstance(exc, RequestTimeoutError):
        return 504, {"error": str(exc)}
    if isinstance(exc, ServiceClosedError):
        return 503, {"error": str(exc)}
    if isinstance(exc, SessionError):
        status = 409 if "limit" in str(exc) else 404
        return status, {"error": str(exc)}
    if isinstance(exc, (NetlistError, MutationError, EstimationError,
                        TechnologyError)):
        return 400, {"error": str(exc)}
    return 500, {"error": str(exc)}


def start_server(
    engine: Optional[EstimationEngine] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: int = 128,
) -> MAEServer:
    """Build and start a server on a background thread; returns it with
    :attr:`~MAEServer.base_url` ready.  The one-liner for tests, the
    load generator, and embedders."""
    return MAEServer(engine, host, port, max_inflight).start()
