"""End-to-end traced co-search runs: nesting, determinism, CLI surfaces."""

import json
from collections import Counter

import numpy as np
import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.errors import ConfigurationError
from repro.experiments.harness import run_method
from repro.hw.spatial import edge_design_space
from repro.obs.profile import build_profile, spans_from_journal
from repro.obs.trace import InMemorySink, Tracer
from repro.tracking.store import RunStore


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory, tiny_network):
    """One traced UNICO run shared by the assertions below."""
    runs_dir = tmp_path_factory.mktemp("runs")
    result = run_method(
        "unico",
        "edge",
        tiny_network,
        "smoke",
        seed=3,
        run_store=runs_dir,
        trace=True,
    )
    store = RunStore(runs_dir)
    run = store.get(result.extras["run_id"])
    return result, run


class TestTracedRun:
    def test_trace_file_written(self, traced_run):
        result, run = traced_run
        trace_path = run.dir / "trace.json"
        assert str(trace_path) == result.extras["trace_path"]
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]

    def test_expected_phases_present(self, traced_run):
        _, run = traced_run
        names = {s["name"] for s in spans_from_journal(run.journal_path)}
        assert {
            "run",
            "iteration",
            "mobo_sample",
            "msh_round",
            "mapping_search",
            "engine_eval_batch",
        } <= names

    def test_spans_nest_within_parents(self, traced_run):
        """Every child wall interval lies inside its parent's interval."""
        _, run = traced_run
        spans = spans_from_journal(run.journal_path)
        by_id = {s["span_id"]: s for s in spans}
        checked = 0
        for span in spans:
            parent = by_id.get(span.get("parent_id") or "")
            if parent is None:
                continue
            tolerance = 1e-6
            assert span["wall_start_s"] >= parent["wall_start_s"] - tolerance
            assert (
                span["wall_start_s"] + span["wall_dur_s"]
                <= parent["wall_start_s"] + parent["wall_dur_s"] + tolerance
            )
            checked += 1
        assert checked > 10

    def test_hierarchy_chain(self, traced_run):
        """An engine call's span walks up through the expected phases."""
        _, run = traced_run
        spans = spans_from_journal(run.journal_path)
        by_id = {s["span_id"]: s for s in spans}
        chains = set()
        for span in spans:
            if span["name"] != "engine_eval_batch":
                continue
            chain = []
            cursor = span
            while cursor is not None:
                chain.append(cursor["name"])
                cursor = by_id.get(cursor.get("parent_id") or "")
            chains.add(tuple(chain))
        assert (
            "engine_eval_batch",
            "mapping_search",
            "msh_round",
            "iteration",
            "run",
        ) in chains

    def test_dual_durations_recorded(self, traced_run):
        _, run = traced_run
        spans = spans_from_journal(run.journal_path)
        rounds = [s for s in spans if s["name"] == "msh_round"]
        assert rounds and all(s["sim_dur_s"] > 0.0 for s in rounds)
        assert all(s["wall_dur_s"] > 0.0 for s in rounds)

    def test_profile_accounts_within_5_percent(self, traced_run):
        """Acceptance criterion: phase wall-times sum within 5% of total."""
        _, run = traced_run
        profile = build_profile(spans_from_journal(run.journal_path))
        assert profile.total_wall_s > 0.0
        assert profile.accounted_wall_s == pytest.approx(
            profile.total_wall_s, rel=0.05
        )

    def test_single_trace_id(self, traced_run):
        result, run = traced_run
        spans = spans_from_journal(run.journal_path)
        trace_ids = {s["trace_id"] for s in spans}
        assert trace_ids == {result.extras["trace_id"]}


class TestTraceGuards:
    def test_trace_requires_run_store(self, tiny_network):
        with pytest.raises(ConfigurationError, match="run_store"):
            run_method(
                "unico", "edge", tiny_network, "smoke", seed=0, trace=True
            )


class TestDeterminism:
    def test_traced_run_bit_identical_to_untraced(self, tmp_path, tiny_network):
        """Tracing is observational: same seeds, same results."""
        untraced = run_method("unico", "edge", tiny_network, "smoke", seed=7)
        traced = run_method(
            "unico",
            "edge",
            tiny_network,
            "smoke",
            seed=7,
            run_store=tmp_path / "runs",
            trace=True,
        )
        plain = untraced.pareto.points
        observed = traced.pareto.points
        assert plain.shape == observed.shape
        np.testing.assert_array_equal(plain, observed)
        assert len(untraced.timeline) == len(traced.timeline)
        for a, b in zip(untraced.timeline, traced.timeline):
            assert a.time_s == b.time_s
            np.testing.assert_array_equal(a.ppa_vector, b.ppa_vector)
        assert untraced.total_engine_queries == traced.total_engine_queries


class _HeaderRecordingServer(PPAServiceServer):
    """A replica that keeps the headers of every request it routes."""

    def __init__(self, engine):
        super().__init__(engine)
        self.request_headers = []

    def _dispatch(self, route, request):
        self.request_headers.append(dict(request.headers))
        return super()._dispatch(route, request)


def _cosearch(network, engine, traced):
    """A small seed-0 UNICO co-search on ``engine``: (result, spans)."""
    unico = Unico(
        edge_design_space(),
        network,
        engine,
        UnicoConfig(batch_size=4, max_iterations=2, max_budget=24, eval_batch_size=8),
        power_cap_w=100.0,
        seed=0,
    )
    sink = InMemorySink()
    if traced:
        unico.set_tracer(Tracer(clock=unico.clock, sinks=[sink]))
    return unico.optimize(), sink.spans


def _remote_cosearch(network, traced):
    """The co-search through one fresh replica: (result, spans, the
    headers of every request the replica received)."""
    with _HeaderRecordingServer(MaestroEngine(network)) as server, RemotePPAEngine(
        network, server.url, area_fn=spatial_area_mm2
    ) as remote:
        result, spans = _cosearch(network, remote, traced)
    return result, spans, server.request_headers


class TestTracedRemoteRun:
    """A traced search through one replica traces its client side only."""

    def test_remote_spans_match_local_spans(self, tiny_network):
        _, local_spans = _cosearch(tiny_network, MaestroEngine(tiny_network), True)
        _, remote_spans, _ = _remote_cosearch(tiny_network, traced=True)
        local_names = Counter(s["name"] for s in local_spans)
        assert {"msh_round", "mapping_search", "engine_eval_batch"} <= set(
            local_names
        )
        assert Counter(s["name"] for s in remote_spans) == local_names

    def test_traced_remote_result_equals_untraced(self, tiny_network):
        untraced, _, _ = _remote_cosearch(tiny_network, traced=False)
        traced, _, _ = _remote_cosearch(tiny_network, traced=True)
        np.testing.assert_array_equal(untraced.pareto.points, traced.pareto.points)
        assert [(e.time_s, tuple(e.ppa_vector)) for e in untraced.timeline] == [
            (e.time_s, tuple(e.ppa_vector)) for e in traced.timeline
        ]
        assert untraced.total_engine_queries == traced.total_engine_queries

    def test_replica_receives_no_trace_header(self, tiny_network):
        _, _, headers = _remote_cosearch(tiny_network, traced=True)
        assert headers
        assert not any("x-repro-trace" in seen for seen in headers)
