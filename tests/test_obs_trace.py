"""Trace integrity: span nesting, JSONL round-trips, null-tracer cost.

The observability layer (``repro.obs``) promises three things the
estimator pipeline leans on:

1. spans nest correctly — parents precede children, depths line up,
   and exiting spans out of order is an error, not silent corruption;
2. traces survive serialization — ``write_trace``/``read_trace`` is a
   lossless round-trip and ``validate_trace`` rejects malformed files;
3. the untraced path is free — the default :class:`NullTracer` hands
   out one shared no-op span and retains zero allocations, so the hot
   estimation loops pay nothing when nobody is watching.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.errors import ObservabilityError
from repro.obs.jsonl import (
    read_trace,
    trace_to_lines,
    validate_trace,
    write_trace,
)
from repro.obs.trace import (
    NULL_SPAN,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)


# ----------------------------------------------------------------------
# span nesting
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        records = tracer.records()
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["depth"] == 1
        assert by_name["sibling"]["parent"] == by_name["outer"]["id"]

    def test_records_are_in_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [r["name"] for r in tracer.records()] == ["a", "b", "c"]
        ids = [r["id"] for r in tracer.records()]
        assert ids == sorted(ids)

    def test_parents_always_precede_children(self):
        tracer = Tracer()
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("child"):
                    with tracer.span("grandchild"):
                        pass
        seen = set()
        for record in tracer.records():
            if record["parent"] is not None:
                assert record["parent"] in seen
            seen.add(record["id"])

    def test_durations_and_payload(self):
        tracer = Tracer()
        with tracer.span("timed", module="m1") as span:
            span.set("rows", 4)
            span.add("count", 2)
            span.add("count", 3)
        (record,) = tracer.records()
        assert record["duration_s"] >= 0.0
        assert record["start_s"] >= 0.0
        assert record["payload"] == {"module": "m1", "rows": 4, "count": 5}

    def test_out_of_order_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_records_with_open_span_raises(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        with pytest.raises(RuntimeError, match="open"):
            tracer.records()
        span.__exit__(None, None, None)
        assert len(tracer.records()) == 1

    def test_span_names_histogram(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert tracer.span_names() == {"a": 1, "b": 2}


# ----------------------------------------------------------------------
# the tracer stack
# ----------------------------------------------------------------------
class TestTracerStack:
    def test_default_is_null_tracer(self):
        assert isinstance(current_tracer(), NullTracer)
        assert current_tracer().enabled is False

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert isinstance(current_tracer(), NullTracer)

    def test_use_tracer_nests(self):
        first, second = Tracer(), Tracer()
        with use_tracer(first):
            with use_tracer(second):
                assert current_tracer() is second
            assert current_tracer() is first

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with use_tracer(tracer):
                raise ValueError("boom")
        assert isinstance(current_tracer(), NullTracer)


# ----------------------------------------------------------------------
# JSONL round-trip and validation
# ----------------------------------------------------------------------
class TestJsonl:
    def _sample_tracer(self):
        tracer = Tracer()
        with tracer.span("outer", module="m") as span:
            span.set("rows", 4)
            with tracer.span("inner"):
                tracer.metrics.incr("scan.modules")
        return tracer

    def test_round_trip(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        write_trace(tracer, path)
        data = read_trace(path)
        assert data["meta"]["span_count"] == 2
        assert [s["name"] for s in data["spans"]] == ["outer", "inner"]
        assert data["spans"][0]["payload"]["rows"] == 4
        assert data["metrics"]["counters"] == {"scan.modules": 1}
        assert "kernels" in data["metrics"]

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(self._sample_tracer(), path)
        lines = path.read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["meta", "span", "span", "metrics"]

    def test_lines_match_write(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        write_trace(tracer, path)

        def normalised(lines):
            objects = [json.loads(line) for line in lines]
            objects[0].pop("created_unix")  # stamped at serialization time
            return objects

        assert normalised(path.read_text().splitlines()) == normalised(
            trace_to_lines(tracer)
        )

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda lines: lines[1:], "meta"),
            (lambda lines: lines[:-1], "metrics"),
            (lambda lines: [lines[0], lines[2], lines[1], lines[3]],
             "parent"),
        ],
    )
    def test_validation_rejects_corruption(self, tmp_path, mutate, message):
        tracer = self._sample_tracer()
        lines = trace_to_lines(tracer)
        objects = [json.loads(line) for line in mutate(lines)]
        with pytest.raises(ObservabilityError, match=message):
            validate_trace(objects, source="test")

    def test_validation_rejects_bad_span_count(self):
        tracer = self._sample_tracer()
        objects = [json.loads(line) for line in trace_to_lines(tracer)]
        objects[0]["span_count"] = 99
        with pytest.raises(ObservabilityError, match="declares 99 spans"):
            validate_trace(objects, source="test")

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_trace(tmp_path / "missing.jsonl")


# ----------------------------------------------------------------------
# the null tracer is free
# ----------------------------------------------------------------------
class TestNullTracer:
    def test_shared_span_singleton(self):
        tracer = NullTracer()
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", module="m") is NULL_SPAN

    def test_null_span_api_is_noop(self):
        with NullTracer().span("x") as span:
            span.set("k", 1)
            span.add("k", 1)
        assert NullTracer().records() == []

    @staticmethod
    def _loop_delta(tracer, iterations):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(iterations):
                with tracer.span("scan"):
                    pass
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return after - before

    def test_zero_retained_allocations(self):
        """The untraced hot path must not accumulate memory.

        The retained delta must not grow with the iteration count —
        that is the zero-per-span-allocation claim.  A constant few
        bytes is the measurement holding its own ``before`` integer,
        not the tracer.
        """
        tracer = NullTracer()
        # Warm up interned objects before measuring.
        for _ in range(10):
            with tracer.span("scan"):
                pass
        small = self._loop_delta(tracer, 1_000)
        large = self._loop_delta(tracer, 100_000)
        assert large <= small
        assert small <= 64
