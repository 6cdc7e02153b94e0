"""Tests for profile aggregation: self-time identity, eval bubbling, rendering."""

import pytest

from repro.obs.profile import (
    build_profile,
    render_profile,
    spans_from_journal,
)
from repro.obs.trace import JournalSpanSink, Tracer
from repro.tracking.journal import EventJournal
from repro.utils.clock import SimulatedClock


def _span(name, span_id, parent_id, start, dur, sim=0.0, attrs=None):
    """Hand-built finished-span dict for synthetic trees."""
    return {
        "name": name,
        "trace_id": "t",
        "span_id": span_id,
        "parent_id": parent_id,
        "wall_start_s": start,
        "wall_dur_s": dur,
        "sim_start_s": 0.0,
        "sim_dur_s": sim,
        "thread": 1,
        "attrs": attrs or {},
    }


def synthetic_tree():
    """root(10s) -> search(6s) -> two one-item engine calls (2s each), plus fit(3s)."""
    return [
        _span("engine_eval_batch", "e1", "s1", 1.0, 2.0, attrs={"batch": 1}),
        _span("engine_eval_batch", "e2", "s1", 3.0, 2.0, attrs={"batch": 1}),
        _span("mapping_search", "s1", "r1", 0.5, 6.0, sim=60.0),
        _span("gp_fit", "g1", "r1", 6.5, 3.0),
        _span("run", "r1", None, 0.0, 10.0, sim=60.0),
    ]


class TestBuildProfile:
    def test_self_time_sums_to_root_duration(self):
        profile = build_profile(synthetic_tree())
        assert profile.total_wall_s == pytest.approx(10.0)
        assert profile.accounted_wall_s == pytest.approx(10.0)

    def test_self_time_per_phase(self):
        profile = build_profile(synthetic_tree())
        by_name = {p.name: p for p in profile.phases}
        assert by_name["run"].wall_self_s == pytest.approx(10.0 - 6.0 - 3.0)
        assert by_name["mapping_search"].wall_self_s == pytest.approx(6.0 - 4.0)
        assert by_name["engine_eval_batch"].wall_self_s == pytest.approx(4.0)
        assert by_name["gp_fit"].wall_self_s == pytest.approx(3.0)

    def test_evals_bubble_to_every_ancestor(self):
        profile = build_profile(synthetic_tree())
        by_name = {p.name: p for p in profile.phases}
        assert by_name["engine_eval_batch"].evals == 2
        assert by_name["mapping_search"].evals == 2
        assert by_name["run"].evals == 2
        assert by_name["gp_fit"].evals == 0

    def test_batch_span_counts_batch_evals(self):
        spans = [
            _span("engine_eval_batch", "b1", None, 0.0, 1.0,
                  attrs={"batch": 16}),
        ]
        profile = build_profile(spans)
        assert profile.phases[0].evals == 16
        assert profile.phases[0].evals_per_s == pytest.approx(16.0)

    def test_sim_totals_from_roots(self):
        profile = build_profile(synthetic_tree())
        assert profile.total_sim_s == pytest.approx(60.0)

    def test_orphan_spans_count_as_roots(self):
        spans = [_span("stray", "x1", "missing-parent", 0.0, 2.0)]
        profile = build_profile(spans)
        assert profile.total_wall_s == pytest.approx(2.0)
        assert profile.accounted_wall_s == pytest.approx(2.0)

    def test_top_n_slowest(self):
        profile = build_profile(synthetic_tree(), top_n=2)
        assert [s["span_id"] for s in profile.slowest] == ["r1", "s1"]

    def test_empty_spans(self):
        profile = build_profile([])
        assert profile.num_spans == 0
        assert profile.total_wall_s == 0.0
        assert profile.phases == []


class TestLiveTracerIdentity:
    def test_self_time_identity_holds_for_real_traces(self):
        """Sum of self times == root wall time, to float precision."""
        from repro.obs.trace import InMemorySink

        sink = InMemorySink()
        clock = SimulatedClock()
        tracer = Tracer(clock=clock, sinks=[sink])
        with tracer.span("run"):
            for i in range(3):
                with tracer.span("iteration", iteration=i):
                    with tracer.span("mapping_search"):
                        clock.advance(10.0)
                    with tracer.span("gp_fit"):
                        pass
        profile = build_profile(sink.spans)
        assert profile.accounted_wall_s == pytest.approx(
            profile.total_wall_s, rel=1e-9
        )
        assert profile.total_sim_s == pytest.approx(30.0)


class TestJournalLoading:
    def test_spans_from_journal_filters_span_events(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            journal.append("run_start", {"run_id": "r1"})
            tracer = Tracer(sinks=[JournalSpanSink(journal)])
            with tracer.span("iteration", iteration=0):
                pass
            journal.append("run_end", {"status": "completed"})
        spans = spans_from_journal(path)
        assert [s["name"] for s in spans] == ["iteration"]
        profile = build_profile(spans)
        assert profile.num_spans == 1


class TestRender:
    def test_render_contains_phases_total_and_slowest(self):
        text = render_profile(build_profile(synthetic_tree()))
        assert "phase" in text and "evals/s" in text
        assert "mapping_search" in text
        assert "total" in text
        assert "slowest spans:" in text
        assert "batch=1" in text

    def test_render_empty_profile(self):
        text = render_profile(build_profile([]))
        assert "total" in text


class TestZeroEngineEvalSpans:
    """Satellite: a run that traced phases but performed no PPA
    evaluations must render clean output (no NaN evals/s) and report
    ``total_evals == 0`` so the CLI can say so explicitly."""

    def spans(self):
        return [
            _span("gp_fit", "g1", "r1", 0.5, 3.0),
            _span("run", "r1", None, 0.0, 4.0),
        ]

    def test_total_evals_zero(self):
        profile = build_profile(self.spans())
        assert profile.total_evals == 0

    def test_total_evals_counts_engine_spans(self):
        profile = build_profile(synthetic_tree())
        assert profile.total_evals == 2

    def test_render_has_no_nan_and_dashes_rates(self):
        text = render_profile(build_profile(self.spans()))
        assert "nan" not in text.lower()
        assert "-" in text  # evals/s column shows a dash, not 0.0/NaN

    def test_zero_duration_profile_renders(self):
        # degenerate: spans exist but carry zero wall time
        profile = build_profile([_span("run", "r1", None, 0.0, 0.0)])
        text = render_profile(profile)
        assert "nan" not in text.lower()

    def test_cli_reports_no_spans_instead_of_rate(self, tmp_path, capsys):
        from repro.cli import main
        from repro.tracking import RunStore

        handle = RunStore(tmp_path).create_run(
            manifest={"status": "completed", "method": "unico"}
        )
        with EventJournal(handle.journal_path) as journal:
            journal.append("span", {
                "name": "gp_fit", "trace_id": "t", "span_id": "g1",
                "parent_id": None, "wall_start_s": 0.0, "wall_dur_s": 1.0,
                "sim_start_s": 0.0, "sim_dur_s": 0.0, "thread": 1,
                "attrs": {},
            })
        code = main([
            "runs", "profile", handle.run_id, "--runs-dir", str(tmp_path)
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "no engine-eval spans recorded" in out
        assert "nan" not in out.lower()
