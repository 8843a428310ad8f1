"""``serve`` repeat: floorplanner clients iterating against ``mae serve``.

The repeat spawns ``python -m repro.cli serve`` (the ``mae serve`` entry
point) on a free port with default flags, waits for ``/health``, opens
the sessions (that is set-up), then drives the pre-generated requests
through a pool of two client threads, each owning one persistent
keep-alive HTTP/1.1 connection (at most one thread per core):

* a closed-loop phase: both threads send back to back (``throughput``);
* the rate ladder: an open loop at each doubling rate, every request
  due at a fixed slot of the schedule and timed from that due time.  A
  step passes when its p95 from the due time is at most 100 ms, no
  request fails and the client-side backlog does not grow.  The ladder
  stops at the first step that does not pass.

Requests to one session are sent in schedule order (a thread waits for
the session's previous request to finish), so edits apply in the order
they were generated.  After shutdown every response is checked against a
client-side mirror of its session, as ``repro.service.loadtest`` does.

The client has no layer of its own to trace: traced and untraced repeats
do the same work, and the per-layer numbers come from the server's
``/metrics`` and the client's own timestamps.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import List, Optional, Tuple

from common import ROOT, child_env, nearest_rank, peak_rss_mb, scan

#: One client thread per core, at most two.
CLIENT_THREADS = min(2, os.cpu_count() or 1)
P95_LIMIT_S = 0.100
#: A step whose generator sent requests later than this (p95) after
#: they were due and a connection was free is invalid.
LATENESS_LIMIT_S = 0.010
HEALTH_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0
_HEADERS = {"Content-Type": "application/json"}
_ESTIMATE = "POST /sessions/{id}/estimate"
_ENDPOINTS = {"session_estimate": _ESTIMATE,
              "session_edits": "POST /sessions/{id}/edits",
              "batch_estimate": "POST /estimate",
              "create_session": "POST /sessions"}


@dataclasses.dataclass
class Request:
    entry: dict
    path: str
    body: bytes
    session: Optional[int]


@dataclasses.dataclass
class Outcome:
    due: float
    ready: float
    send: float
    end: float
    status: int
    data: bytes

    wrong: bool = False            # set when the answer fails its check

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and not self.wrong


class Connection:
    """One persistent keep-alive connection; a broken one is reopened
    for the next request, and the request that broke it fails."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=60)
        try:
            self._conn.request(method, path, body=body, headers=_HEADERS)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, repr(exc).encode()
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_healthy(port: int, server: subprocess.Popen) -> None:
    deadline = time.perf_counter() + HEALTH_TIMEOUT_S
    while time.perf_counter() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode} "
                               "before answering /health")
        probe = Connection(port)
        status, _ = probe.call("GET", "/health")
        probe.close()
        if status == 200:
            return
        time.sleep(0.02)
    raise RuntimeError("server did not answer /health in time")


def drive(connections: List[Connection], requests: List[Request],
          rate: Optional[float] = None) -> List[Outcome]:
    """Send ``requests`` through the pool; with ``rate``, request i is
    due at ``start + i / rate`` (open loop), otherwise as soon as a
    connection is free (closed loop)."""
    tickets, seen = [], {}
    for request in requests:
        tickets.append(seen.get(request.session, 0))
        seen[request.session] = tickets[-1] + 1
    turn = {session: 0 for session in seen}
    pending = deque(range(len(requests)))
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lock = threading.Condition()
    start = time.perf_counter() + 0.01

    def worker(connection: Connection) -> None:
        while True:
            with lock:
                if not pending:
                    return
                index = pending.popleft()
                session = requests[index].session
                while session is not None and turn[session] != tickets[index]:
                    lock.wait()
            ready = time.perf_counter()
            due = start + index / rate if rate else ready
            if due > ready:
                time.sleep(due - ready)
            request = requests[index]
            send = time.perf_counter()
            status, data = connection.call("POST", request.path,
                                           request.body)
            end = time.perf_counter()
            outcomes[index] = Outcome(due, max(due, ready), send, end,
                                      status, data)
            if session is not None:
                with lock:
                    turn[session] += 1
                    lock.notify_all()

    threads = [threading.Thread(target=worker, args=(connection,))
               for connection in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    return outcomes


def evaluate_step(rate: float, outcomes: List[Outcome]) -> dict:
    """Pass/fail and validity of one ladder step."""
    latencies = [o.end - o.due for o in outcomes]
    lateness = [o.send - o.ready for o in outcomes]
    # Backlog seen by each arrival: requests already due but unsent.
    backlog = [sum(1 for other in outcomes
                   if other is not o and other.due <= o.due < other.send)
               for o in outcomes]
    third = max(1, len(outcomes) // 3)
    first = sum(backlog[:third]) / third
    last = sum(backlog[-third:]) / third
    ok = sum(o.ok for o in outcomes)
    p95 = nearest_rank(latencies, 0.95)
    late = nearest_rank(lateness, 0.95)
    span = max(o.end for o in outcomes) - min(o.due for o in outcomes)
    step = {
        "rate": rate, "requests": len(outcomes), "ok": ok,
        "p50_ms": 1e3 * nearest_rank(latencies, 0.50), "p95_ms": 1e3 * p95,
        "lateness_p95_ms": 1e3 * late, "backlog_first": first,
        "backlog_last": last, "achieved_rps": ok / span,
        "valid": late <= LATENESS_LIMIT_S,
    }
    step["passed"] = (step["valid"] and p95 <= P95_LIMIT_S
                      and ok == len(outcomes) and last <= first + 1.0)
    return step


def _requests(entries, sessions, edits, batch_sources) -> List[Request]:
    from repro.incremental.mutations import mutations_to_jsonable

    built = []
    for entry in entries:
        kind = entry["kind"]
        if kind == "batch":
            body = {"modules": [{"source": batch_sources[entry["batch"]],
                                 "format": "verilog"}]}
            built.append(Request(entry, "/estimate",
                                 json.dumps(body).encode(), None))
            continue
        session = entry["session"]
        sid = sessions[session]
        if kind == "edit":
            body = {"edits": mutations_to_jsonable(
                [edits[session][entry["edit"]]])}
            path = f"/sessions/{sid}/edits"
        else:
            body = {} if entry["rows"] is None else {"rows": entry["rows"]}
            path = f"/sessions/{sid}/estimate"
        built.append(Request(entry, path, json.dumps(body).encode(), session))
    return built


def run(work: Path, manifest: dict, traced: bool) -> dict:
    from repro.incremental.mutations import load_mutations

    edits = [load_mutations(str(work / s["edits"]))
             for s in manifest["sessions"]]
    sources = [(work / s["source"]).read_text() for s in manifest["sessions"]]
    batch_sources = [(work / path).read_text() for path in manifest["batch"]]
    port = _free_port()
    log = open(work / f"server-{port}.log", "wb")
    start = time.perf_counter()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port)],
        cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
    )
    connections = [Connection(port) for _ in range(CLIENT_THREADS)]
    try:
        _wait_healthy(port, server)
        sessions = []
        for source in sources:
            status, data = connections[0].call(
                "POST", "/sessions",
                json.dumps({"source": source, "format": "verilog"}).encode())
            if status != 201:
                raise RuntimeError(
                    f"session create -> {status}: {data[:200]!r}")
            sessions.append(json.loads(data)["session"])
        setup_s = time.perf_counter() - start

        saturation = _requests(manifest["saturation"], sessions, edits,
                               batch_sources)
        phases = [(saturation, drive(connections, saturation))]
        steps = []
        max_rate = 0.0
        for step in manifest["ladder"]:
            requests = _requests(step["requests"], sessions, edits,
                                 batch_sources)
            outcomes = drive(connections, requests, rate=step["rate"])
            phases.append((requests, outcomes))
            steps.append(evaluate_step(step["rate"], outcomes))
            if not steps[-1]["passed"]:
                break
            max_rate = steps[-1]["achieved_rps"]

        for connection in connections:
            connection.close()
        probe = Connection(port)
        status, data = probe.call("GET", "/metrics")
        metrics = json.loads(data) if status == 200 else {}
        peak = peak_rss_mb(server.pid)
        status, _ = probe.call("POST", "/shutdown", b"{}")
        probe.close()
        try:
            code = server.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        clean = status == 202 and code == 0
    finally:
        for connection in connections:
            connection.close()
        if server.poll() is None:
            server.kill()
            server.wait()
        log.close()

    mismatches, checked = _verify(manifest, edits, batch_sources, phases)
    base = [(o.end - o.due, o.ok) for o in phases[1][1]]
    closed = phases[0][1]
    throughput = sum(o.ok for o in closed) / (
        max(o.end for o in closed) - min(o.send for o in closed))
    closed_loop = {"requests": len(closed), "throughput": throughput,
                   "p50_ms": 1e3 * nearest_rank(
                       [o.end - o.send for o in closed], 0.5)}
    if not clean:
        mismatches.append(f"server did not shut down cleanly "
                          f"(shutdown status {status}, exit code {code})")
    sent = [(r, o) for requests, outcomes in phases
            for r, o in zip(requests, outcomes)]
    failures = {}
    for _, outcome in sent:
        if not outcome.ok:
            key = ("wrong output" if outcome.wrong
                   else f"http {outcome.status}" if outcome.status
                   else "transport")
            failures[key] = failures.get(key, 0) + 1
    layers, counters = _server_layers(metrics, phases, steps)
    return {
        "setup_s": setup_s, "ops": base, "failures": failures,
        "attempted": len(sent), "mismatches": mismatches,
        "checked": checked, "peak_rss_mb": peak, "throughput": throughput,
        "max_rate_rps": max_rate, "steps": steps, "closed_loop": closed_loop,
        "op_s": sum(o.end - o.send for _, o in sent), "op_count": len(sent),
        "layers": layers, "counters": counters,
    }


def _server_layers(metrics: dict, phases, steps) -> Tuple[dict, dict]:
    """Server-side time per endpoint from ``/metrics`` and the client's
    own timestamps: the per-layer view of a served request."""
    sent = [(r, o) for requests, outcomes in phases
            for r, o in zip(requests, outcomes)]
    server = metrics.get("server", {}).get("latency", {})
    service = metrics.get("service", {})
    counts = service.get("requests", {})
    counters = {"server_" + name: server.get(endpoint, {}).get("p50_ms", 0.0)
                for name, endpoint in _ENDPOINTS.items()}
    counters["dispatch_ms"] = (service.get("latency", {})
                               .get("dispatch", {}).get("p50_ms", 0.0))
    submitted = counts.get("submitted", 0)
    counters["coalesced_share"] = (
        counts.get("coalesced_requests", 0) / submitted if submitted else 0.0
    )
    counters["rejected_share"] = (
        sum(1 for _, o in sent if o.status == 429) / len(sent)
    )
    # Transport: the client's send-to-answer p50 for session estimates
    # minus the server's handler p50, at the ladder's base rate (where
    # the end-to-end latency is measured) and in the closed loop.
    for label, (requests, outcomes) in (("closed_loop", phases[0]),
                                        ("base", phases[1])):
        client = [o.end - o.send for r, o in zip(requests, outcomes)
                  if r.entry["kind"] in ("estimate", "rows")]
        counters[f"client_{label}_ms"] = 1e3 * nearest_rank(client, 0.5)
        counters[f"transport_{label}_ms"] = (
            counters[f"client_{label}_ms"]
            - counters["server_session_estimate"])
    counters["generator_lateness_ms"] = max(
        step["lateness_p95_ms"] for step in steps)
    kernels = metrics.get("kernels", {}).values()
    plans = metrics.get("plans", {})
    hits, compiled = plans.get("hits", 0), plans.get("compilations", 0)
    counters.update({
        "kernel_hits": sum(k.get("hits", 0) for k in kernels),
        "kernel_misses": sum(k.get("misses", 0) for k in kernels),
        "triangle_cells": metrics.get("triangle", {}).get("cells", 0),
        "plan_hit_rate": hits / max(1, hits + compiled),
        "plan_entries": plans.get("entries", 0),
    })
    # Handler time (count x mean over the measured endpoints) is the
    # server layer; the rest of the client's send-to-answer time is
    # transport.
    handler_s = sum(
        server.get(endpoint, {}).get("count", 0)
        * server.get(endpoint, {}).get("mean_ms", 0.0) / 1e3
        for name, endpoint in _ENDPOINTS.items() if name != "create_session"
    )
    client_s = sum(o.end - o.send for _, o in sent)
    layers = {
        "service.server": {"count": len(sent), "self_s": handler_s},
        "service.transport": {"count": len(sent),
                              "self_s": client_s - handler_s},
    }
    return layers, counters


def _verify(manifest, edits, batch_sources, phases) -> Tuple[List[str], int]:
    """Check every answered request against a client-side mirror of its
    session at the version the server reported."""
    from repro.core.config import EstimatorConfig
    from repro.core.standard_cell import (
        estimate_standard_cell,
        estimate_standard_cell_from_stats,
    )
    from repro.errors import ReproError
    from repro.netlist import parse_verilog
    from repro.service.wire import estimate_from_jsonable
    from repro.technology import nmos_process
    from workload_inputs import eco_module

    process, config = nmos_process(), EstimatorConfig()
    mirrors = [eco_module(s["module"]) for s in manifest["sessions"]]
    versions = [0] * len(mirrors)
    scans: dict = {}
    batch_direct: dict = {}
    mismatches: List[str] = []
    checked = 0

    def direct(session: int, rows):
        key = (session, versions[session])
        if key not in scans:
            scans[key] = scan(mirrors[session], process, config)
        return estimate_standard_cell_from_stats(
            scans[key], process,
            config if rows is None else config.with_rows(rows))

    def same(payload, expected) -> bool:
        return (dataclasses.astuple(estimate_from_jsonable(payload))
                == dataclasses.astuple(expected))

    def check(entry: dict, body: dict) -> bool:
        kind = entry["kind"]
        if kind == "batch":
            index = entry["batch"]
            if index not in batch_direct:
                batch_direct[index] = estimate_standard_cell(
                    parse_verilog(batch_sources[index]), process, config)
            return same(body["estimates"][0]["estimate"], batch_direct[index])
        session = entry["session"]
        if kind == "edit":
            edits[session][entry["edit"]].apply(mirrors[session])
            versions[session] += 1
            good = same(body["estimate"], direct(session, None))
        elif kind == "rows":
            good = len(body["estimates"]) == len(entry["rows"]) and all(
                same(payload, direct(session, rows))
                for payload, rows in zip(body["estimates"], entry["rows"]))
        else:
            good = same(body["estimate"], direct(session, entry["rows"]))
        return good and body["version"] == versions[session]

    for requests, outcomes in phases:
        for request, outcome in zip(requests, outcomes):
            if not 200 <= outcome.status < 300:
                continue
            checked += 1
            problem = "served answer differs from the client-side mirror"
            try:
                good = check(request.entry, json.loads(outcome.data))
            except (KeyError, IndexError, TypeError, ValueError,
                    ReproError) as exc:
                good, problem = False, f"malformed served answer: {exc!r}"
            if not good:
                outcome.wrong = True
                mismatches.append(f"request {request.entry}: {problem}")
    return mismatches, checked
