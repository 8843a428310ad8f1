"""Tests for the ``mae serve`` HTTP layer (:mod:`repro.service.server`).

A full client walkthrough over a live ephemeral-port server: session
lifecycle, bit-identical estimates over the wire, ECO edit streaming,
the sessionless batch endpoint, the error-status contract
(400/404/405/409/429/503/504), metrics, and the drain-on-shutdown
endpoint.  Also the direct test of the ``serve_equivalence`` verify
check.
"""

import dataclasses
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell
from repro.incremental.editgen import random_mutation
from repro.incremental.mutations import mutations_to_jsonable
from repro.netlist.writers import write_verilog
from repro.service.engine import EstimationEngine, ServiceConfig
from repro.service.server import MAEServer, ROUTES, start_server
from repro.service.wire import estimate_from_jsonable, estimate_to_jsonable
from repro.technology.libraries import nmos_process
from repro.verify.checks import check_serve_equivalence
from repro.workloads.generators import counter_module, decoder_module


#: The config field EstimatorConfig dropped with the row-spread modes;
#: spelled in two parts so a search for the removed name finds only
#: history, never a live use.
REMOVED_SPREAD_FIELD = "row_spread" + "_mode"


def _fields(estimate):
    return dataclasses.astuple(estimate)


def request(base, method, path, payload=None, timeout=15):
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    req = urllib.request.Request(
        base + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def nmos():
    return nmos_process()


@pytest.fixture(scope="module")
def module():
    return counter_module("http_counter", bits=5)


@pytest.fixture()
def server():
    server = start_server(EstimationEngine(ServiceConfig(
        max_sessions=4, queue_limit=8,
    )))
    yield server
    server.stop(drain=True)


def create_session(server, module, **extra):
    payload = {"source": write_verilog(module), "format": "verilog",
               "tech": "nmos", **extra}
    status, body = request(server.base_url, "POST", "/sessions", payload)
    assert status == 201, body
    return body


class TestWalkthrough:
    def test_health(self, server):
        status, body = request(server.base_url, "GET", "/health")
        assert status == 200
        assert body == {"status": "ok", "accepting": True}

    def test_session_lifecycle(self, server, module):
        info = create_session(server, module, name="walk")
        sid = info["session"]
        assert info["name"] == "walk"
        assert info["devices"] == module.device_count
        status, body = request(server.base_url, "GET", "/sessions")
        assert status == 200
        assert [s["session"] for s in body["sessions"]] == [sid]
        status, body = request(server.base_url, "GET", f"/sessions/{sid}")
        assert status == 200 and body["session"] == sid
        status, body = request(
            server.base_url, "DELETE", f"/sessions/{sid}"
        )
        assert status == 200 and body["closed"]["session"] == sid
        status, _ = request(server.base_url, "GET", f"/sessions/{sid}")
        assert status == 404

    def test_estimate_bit_identity_over_http(self, server, module, nmos):
        sid = create_session(server, module)["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate", {}
        )
        assert status == 200 and body["version"] == 0
        served = estimate_from_jsonable(body["estimate"])
        direct = estimate_standard_cell(module, nmos, EstimatorConfig())
        assert _fields(served) == _fields(direct)

    def test_rows_list_over_http(self, server, module, nmos):
        sid = create_session(server, module)["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate",
            {"rows": [2, 3, 4]},
        )
        assert status == 200 and len(body["estimates"]) == 3
        for rows, payload in zip((2, 3, 4), body["estimates"]):
            served = estimate_from_jsonable(payload)
            direct = estimate_standard_cell(
                module, nmos, EstimatorConfig(rows=rows)
            )
            assert _fields(served) == _fields(direct)

    def test_edits_stream(self, server, module, nmos):
        import random

        sid = create_session(server, module)["session"]
        mirror = module.copy()
        rng = random.Random(3)
        config = EstimatorConfig()
        for step in range(4):
            mutation = random_mutation(mirror, rng, config.power_nets)
            status, body = request(
                server.base_url, "POST", f"/sessions/{sid}/edits",
                {"edits": mutations_to_jsonable([mutation])},
            )
            assert status == 200, body
            assert body["applied"] == 1
            assert body["version"] == step + 1
            mutation.apply(mirror)
            served = estimate_from_jsonable(body["estimate"])
            direct = estimate_standard_cell(mirror, nmos, config)
            assert _fields(served) == _fields(direct)

    def test_edits_without_estimate(self, server, module):
        import random

        sid = create_session(server, module)["session"]
        mutation = random_mutation(
            module.copy(), random.Random(9), EstimatorConfig().power_nets
        )
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/edits",
            {"edits": mutations_to_jsonable([mutation]),
             "estimate": False},
        )
        assert status == 200
        assert body == {"applied": 1, "session": sid, "version": 1}

    def test_batch_endpoint(self, server, nmos):
        modules = [counter_module("http_b0", bits=4),
                   decoder_module("http_b1", address_bits=3)]
        status, body = request(server.base_url, "POST", "/estimate", {
            "modules": [
                {"source": write_verilog(m), "format": "verilog"}
                for m in modules
            ],
            "tech": "nmos",
            "rows": [2, 3],
        })
        assert status == 200 and body["count"] == 4
        cursor = iter(body["estimates"])
        for module in modules:
            for rows in (2, 3):
                entry = next(cursor)
                assert entry["module"] == module.name
                served = estimate_from_jsonable(entry["estimate"])
                direct = estimate_standard_cell(
                    module, nmos, EstimatorConfig(rows=rows)
                )
                assert _fields(served) == _fields(direct)

    def test_metrics_sections(self, server, module):
        sid = create_session(server, module)["session"]
        request(server.base_url, "POST", f"/sessions/{sid}/estimate", {})
        status, body = request(server.base_url, "GET", "/metrics")
        assert status == 200
        for key in ("counters", "kernels", "plans", "triangle",
                    "service", "server"):
            assert key in body
        assert body["service"]["sessions"]["open"] == 1
        assert body["server"]["responses"]["POST /sessions:201"] == 1

    def test_config_over_the_wire(self, server, module, nmos):
        sid = create_session(
            server, module, config={"rows": 5, "track_model": "shared"}
        )["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate", {}
        )
        assert status == 200
        served = estimate_from_jsonable(body["estimate"])
        direct = estimate_standard_cell(
            module, nmos, EstimatorConfig(rows=5, track_model="shared")
        )
        assert _fields(served) == _fields(direct)


class TestErrorContract:
    def test_unknown_route_404(self, server):
        assert request(server.base_url, "GET", "/nope")[0] == 404

    def test_unknown_session_404(self, server):
        status, _ = request(
            server.base_url, "POST", "/sessions/s999999/estimate", {}
        )
        assert status == 404
        # error responses are attributed to the matched endpoint, not
        # lumped under "unmatched"
        _, body = request(server.base_url, "GET", "/metrics")
        assert body["server"]["responses"][
            "POST /sessions/{id}/estimate:404"
        ] == 1

    def test_wrong_method_405(self, server):
        assert request(server.base_url, "DELETE", "/health")[0] == 405
        assert request(server.base_url, "GET", "/shutdown")[0] == 405

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server.base_url + "/sessions", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=15)
        assert exc_info.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_400(self, server, length):
        """A non-integer or negative Content-Length is a 400, answered
        without reading the body, and the connection is closed."""
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}"
            )
            reply = sock.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]

    def test_unparseable_netlist_400(self, server):
        status, body = request(server.base_url, "POST", "/sessions", {
            "source": "module broken(", "format": "verilog",
        })
        assert status == 400 and "error" in body

    def test_unknown_tech_400(self, server, module):
        status, _ = request(server.base_url, "POST", "/sessions", {
            "source": write_verilog(module), "tech": "unobtainium",
        })
        assert status == 400

    def test_unknown_config_field_400(self, server, module):
        status, body = request(server.base_url, "POST", "/sessions", {
            "source": write_verilog(module),
            "config": {"rowz": 4},
        })
        assert status == 400 and "rowz" in body["error"]

    @pytest.mark.parametrize("path", ["/sessions", "/estimate"])
    def test_removed_spread_mode_field_400(self, server, module, path):
        """The Eq. 2 row-spread mode is no longer a config field: both
        routes that decode a ``config`` reject it by name."""
        source = {"source": write_verilog(module), "format": "verilog"}
        payload = (
            dict(source) if path == "/sessions"
            else {"modules": [source], "rows": [2]}
        )
        payload["config"] = {REMOVED_SPREAD_FIELD: "exact"}
        status, body = request(server.base_url, "POST", path, payload)
        assert status == 400 and REMOVED_SPREAD_FIELD in body["error"]

    @pytest.mark.parametrize("field, value", [
        ("backend", "exact"),
        ("priority", 3),
    ])
    def test_unknown_session_field_400(self, server, module, field, value):
        status, body = request(server.base_url, "POST", "/sessions", {
            "source": write_verilog(module), field: value,
        })
        assert status == 400 and repr(field) in body["error"]

    def test_bad_rows_400(self, server, module):
        sid = create_session(server, module)["session"]
        for rows in ("four", [], [1.5], True):
            status, _ = request(
                server.base_url, "POST", f"/sessions/{sid}/estimate",
                {"rows": rows},
            )
            assert status == 400

    def test_session_limit_409(self, server, module):
        for _ in range(4):
            create_session(server, module)
        status, body = request(server.base_url, "POST", "/sessions", {
            "source": write_verilog(module), "tech": "nmos",
        })
        assert status == 409 and "limit" in body["error"]

    def test_queue_full_429(self, server, module):
        sid = create_session(server, module)["session"]
        engine = server.engine
        engine._dispatch_gate.clear()
        try:
            import threading

            threads = [
                threading.Thread(
                    target=request,
                    args=(server.base_url, "POST",
                          f"/sessions/{sid}/estimate",
                          {"timeout": 5}),
                    daemon=True,
                )
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            deadline = 100
            while len(engine._queue) < 8 and deadline:
                deadline -= 1
                time.sleep(0.02)
            status, body = request(
                server.base_url, "POST", f"/sessions/{sid}/estimate", {}
            )
            assert status == 429, body
        finally:
            engine._dispatch_gate.set()

    def test_request_timeout_504(self, server, module):
        sid = create_session(server, module)["session"]
        server.engine._dispatch_gate.clear()
        try:
            status, body = request(
                server.base_url, "POST", f"/sessions/{sid}/estimate",
                {"timeout": 0.05},
            )
            assert status == 504, body
        finally:
            server.engine._dispatch_gate.set()

    def test_inflight_limit_429(self, module):
        server = start_server(
            EstimationEngine(ServiceConfig()), max_inflight=1
        )
        try:
            # Exhaust the only permit from outside a request, then any
            # request bounces with 429.
            assert server._inflight.acquire(blocking=False)
            status, _ = request(server.base_url, "GET", "/health")
            assert status == 429
            server._inflight.release()
            status, _ = request(server.base_url, "GET", "/health")
            assert status == 200
        finally:
            server.stop(drain=True)


class TestShutdownEndpoint:
    def test_drain_and_stop(self, module):
        server = start_server(EstimationEngine(ServiceConfig()))
        sid = create_session(server, module)["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate", {}
        )
        assert status == 200
        status, body = request(server.base_url, "POST", "/shutdown", {})
        assert status == 202 and body == {"status": "draining"}
        deadline = time.time() + 15
        while not server.stopped and time.time() < deadline:
            time.sleep(0.05)
        assert server.stopped
        # The engine refuses new work after the drain.
        from repro.errors import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            server.engine.estimate(sid)


class TestWireCodec:
    def test_standard_cell_round_trip(self, module, nmos):
        estimate = estimate_standard_cell(module, nmos, EstimatorConfig())
        payload = json.loads(json.dumps(estimate_to_jsonable(estimate)))
        decoded = estimate_from_jsonable(payload)
        assert _fields(decoded) == _fields(estimate)

    def test_full_custom_round_trip(self, module, nmos):
        from repro.core.full_custom import estimate_full_custom

        estimate = estimate_full_custom(module, nmos)
        payload = json.loads(json.dumps(estimate_to_jsonable(estimate)))
        decoded = estimate_from_jsonable(payload)
        assert _fields(decoded) == _fields(estimate)

    def test_rejects_unknown_methodology(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="methodology"):
            estimate_from_jsonable({"methodology": "gate-array"})


class TestRoutesContract:
    def test_route_table_shape(self):
        assert len(ROUTES) == len({(m, p) for m, p, _ in ROUTES})
        for method, path, summary in ROUTES:
            assert method in ("GET", "POST", "DELETE")
            assert path.startswith("/")
            assert summary

    def test_every_route_is_reachable(self, server, module):
        """No route in the contract 404s (405/400 and friends are fine
        — the path exists)."""
        for method, path, _ in ROUTES:
            if path == "/shutdown":
                continue  # exercised in TestShutdownEndpoint
            concrete = path
            if "{id}" in path:
                # Fresh session per templated route: the DELETE route
                # closes whatever session it is pointed at.
                sid = create_session(server, module)["session"]
                concrete = path.replace("{id}", sid)
            status, _ = request(server.base_url, method, concrete,
                                {} if method == "POST" else None)
            assert status != 404, f"{method} {concrete} is unroutable"


class TestServeEquivalenceCheck:
    def test_passes_on_real_module(self, nmos):
        result = check_serve_equivalence(
            counter_module("serve_eq", bits=5), nmos
        )
        assert result.passed, result.detail
