"""End-to-end traced co-search runs: nesting, determinism, CLI surfaces."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import run_method
from repro.obs.profile import build_profile, spans_from_journal
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
