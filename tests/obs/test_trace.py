"""Tests for Span/Tracer/NullTracer, sinks, and trace-context propagation."""

import json
import threading
import time

import pytest

from repro.obs.chrome import (
    SIM_PID,
    WALL_PID,
    spans_to_trace_events,
    write_chrome_trace,
)
from repro.obs.trace import (
    NULL_TRACER,
    SPAN_SCHEMA_VERSION,
    InMemorySink,
    JournalSpanSink,
    NullTracer,
    Tracer,
    format_trace_context,
    parse_trace_context,
)
from repro.tracking.journal import EventJournal, read_events
from repro.utils.clock import SimulatedClock


class TestSpanNesting:
    def test_child_parents_to_innermost_open_span(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner"):
                    pass
        names = {s["name"]: s for s in sink.spans}
        assert names["outer"]["parent_id"] is None
        assert names["middle"]["parent_id"] == outer.span_id
        assert names["inner"]["parent_id"] == middle.span_id

    def test_finish_order_is_innermost_first(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s["name"] for s in sink.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        for span in sink.spans:
            if span["name"] in ("a", "b"):
                assert span["parent_id"] == root.span_id

    def test_child_interval_nests_inside_parent(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.spans
        assert inner["wall_start_s"] >= outer["wall_start_s"]
        assert (
            inner["wall_start_s"] + inner["wall_dur_s"]
            <= outer["wall_start_s"] + outer["wall_dur_s"]
        )

    def test_current_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None

    def test_threads_have_independent_stacks(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        done = threading.Event()

        def worker():
            with tracer.span("worker"):
                pass
            done.set()

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.is_set()
        by_name = {s["name"]: s for s in sink.spans}
        # the worker thread's stack was empty, so its span is a root
        assert by_name["worker"]["parent_id"] is None
        assert by_name["worker"]["thread"] != by_name["main"]["thread"]

    def test_span_ids_unique(self):
        tracer = Tracer()
        ids = set()
        for _ in range(100):
            with tracer.span("s") as span:
                ids.add(span.span_id)
        assert len(ids) == 100


class TestDualClock:
    def test_sim_duration_from_clock(self):
        sink = InMemorySink()
        clock = SimulatedClock()
        tracer = Tracer(clock=clock, sinks=[sink])
        clock.advance(5.0)
        with tracer.span("round"):
            clock.advance(42.0)
        span = sink.spans[0]
        assert span["sim_start_s"] == pytest.approx(5.0)
        assert span["sim_dur_s"] == pytest.approx(42.0)
        assert span["wall_dur_s"] >= 0.0

    def test_no_clock_means_zero_sim(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("s"):
            pass
        assert sink.spans[0]["sim_dur_s"] == 0.0


class TestAttributes:
    def test_open_attrs_and_set_attribute(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("s", layer="conv1") as span:
            span.set_attribute("cache_hit", True)
        assert sink.spans[0]["attrs"] == {"layer": "conv1", "cache_hit": True}

    def test_exception_records_error_attr_and_propagates(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        assert sink.spans[0]["attrs"]["error"] == "RuntimeError"

    def test_span_dict_is_json_serializable(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("s", n=3, ratio=0.5, tag="x"):
            pass
        json.dumps(sink.spans[0])


class TestManualSpans:
    def test_start_finish_with_explicit_parent(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        span = tracer.start_span("service/evaluate", parent_id="abc-1")
        payload = tracer.finish_span(span)
        assert payload["parent_id"] == "abc-1"
        assert sink.spans == [payload]

    def test_record_remote_rebases_into_parent_interval(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("request") as request_span:
            pass
        remote = tracer.record_remote(
            {
                "name": "service/evaluate_layer",
                "span_id": "srv-1",
                "wall_dur_s": 0.004,
                "attrs": {"status": 200},
            },
            request_span,
            client_elapsed_s=0.01,
        )
        assert remote["parent_id"] == request_span.span_id
        assert remote["trace_id"] == tracer.trace_id
        assert remote["attrs"]["remote"] is True
        assert remote["wall_dur_s"] == pytest.approx(0.004)
        # centered inside the client request interval
        assert remote["wall_start_s"] == pytest.approx(
            request_span.wall_start + 0.003
        )
        assert remote in sink.spans


class TestLeafSpans:
    def test_record_leaf_parents_to_open_span(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("mapping_search") as parent:
            wall_start = time.perf_counter()
            tracer.record_leaf(
                "engine_eval", wall_start, layer="conv1", cache_hit=False
            )
        leaf = sink.spans[0]
        assert leaf["name"] == "engine_eval"
        assert leaf["parent_id"] == parent.span_id
        assert leaf["trace_id"] == tracer.trace_id
        assert leaf["attrs"] == {"layer": "conv1", "cache_hit": False}
        assert leaf["wall_start_s"] == wall_start
        assert leaf["wall_dur_s"] >= 0.0
        # the leaf finished before its parent and started after it
        parent_dict = sink.spans[1]
        assert parent_dict["name"] == "mapping_search"
        assert leaf["wall_start_s"] >= parent_dict["wall_start_s"]

    def test_record_leaf_without_open_span_is_a_root(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        tracer.record_leaf("engine_eval", time.perf_counter())
        assert sink.spans[0]["parent_id"] is None

    def test_record_leaf_sim_duration(self):
        clock = SimulatedClock()
        sink = InMemorySink()
        tracer = Tracer(clock=clock, sinks=[sink])
        sim_start = clock.now_s
        wall_start = time.perf_counter()
        clock.advance(5.0)
        tracer.record_leaf("engine_eval", wall_start, sim_start)
        assert sink.spans[0]["sim_start_s"] == sim_start
        assert sink.spans[0]["sim_dur_s"] == pytest.approx(5.0)

    def test_null_tracer_record_leaf_is_noop(self):
        NULL_TRACER.record_leaf("engine_eval", 0.0, layer="conv1")


class TestNullTracer:
    def test_disabled_and_shared_span(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        first = NULL_TRACER.span("a", x=1)
        second = NULL_TRACER.span("b")
        assert first is second  # shared no-op instance

    def test_null_span_is_inert_context_manager(self):
        with NULL_TRACER.span("s") as span:
            span.set_attribute("ignored", 1)
        assert NULL_TRACER.finish_span(NULL_TRACER.start_span("x")) == {}

    def test_real_tracer_is_enabled(self):
        assert Tracer().enabled is True


class TestSinks:
    def test_journal_sink_writes_schema_versioned_span_events(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            tracer = Tracer(sinks=[JournalSpanSink(journal)])
            with tracer.span("iteration", iteration=0):
                pass
        events = read_events(path).of_type("span")
        assert len(events) == 1
        assert events[0]["span_schema"] == SPAN_SCHEMA_VERSION
        assert events[0]["name"] == "iteration"
        assert events[0]["attrs"] == {"iteration": 0}

    def test_multiple_sinks_all_fed(self, tmp_path):
        a, b = InMemorySink(), InMemorySink()
        tracer = Tracer(sinks=[a, b])
        with tracer.span("s"):
            pass
        assert a.spans == b.spans and len(a.spans) == 1


class TestChromeEvents:
    def test_sim_twin_emitted_on_sim_pid(self):
        span = {
            "name": "msh_round",
            "span_id": "x-1",
            "parent_id": None,
            "trace_id": "t",
            "wall_start_s": 1.0,
            "wall_dur_s": 0.5,
            "sim_start_s": 10.0,
            "sim_dur_s": 100.0,
            "thread": 7,
            "attrs": {"round": 0},
        }
        events = spans_to_trace_events([span])
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        wall = next(e for e in xs if e["pid"] == WALL_PID)
        sim = next(e for e in xs if e["pid"] == SIM_PID)
        assert wall["ts"] == pytest.approx(1.0e6)
        assert wall["dur"] == pytest.approx(0.5e6)
        assert sim["dur"] == pytest.approx(100.0e6)
        assert wall["args"]["round"] == 0

    def test_no_sim_twin_without_sim_time(self):
        span = {
            "name": "engine_eval",
            "span_id": "x-1",
            "wall_start_s": 0.0,
            "wall_dur_s": 0.1,
            "sim_dur_s": 0.0,
            "attrs": {},
        }
        xs = [e for e in spans_to_trace_events([span]) if e["ph"] == "X"]
        assert len(xs) == 1 and xs[0]["pid"] == WALL_PID

    def test_write_chrome_trace_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "dir" / "trace.json"
        write_chrome_trace([], out)
        document = json.loads(out.read_text())
        # metadata events only (the two process_name records)
        assert all(e["ph"] == "M" for e in document["traceEvents"])


class TestContextPropagation:
    def test_round_trip(self):
        tracer = Tracer(trace_id="deadbeef")
        with tracer.span("request") as span:
            header = format_trace_context(tracer, span)
            assert parse_trace_context(header) == ("deadbeef", span.span_id)

    @pytest.mark.parametrize(
        "header", [None, "", "nocolon", "a:b:c", ":x", "x:", ":"]
    )
    def test_garbage_rejected(self, header):
        assert parse_trace_context(header) is None
