"""Tracker integration + crash/resume equivalence (the acceptance bar).

The key property: a tracked run killed mid-search and resumed via
``resume_run`` reproduces the same Pareto front, timeline and
iteration-record sequence as the same-seed uninterrupted run, its journal
replays into the identical record sequence, and its ``search_health``
lines are the uninterrupted run's.
"""

import numpy as np
import pytest

from repro.core import Unico, UnicoConfig
from repro.costmodel import MaestroEngine
from repro.errors import TrackingError
from repro.experiments.harness import RunSpec, resume_run, run_method
from repro.tracking import (
    JournalTracker,
    NullTracker,
    RunStore,
    read_events,
    replay_iteration_records,
    verify_run,
)
from tests.tracking.journal_lines import (
    cut_before_last_state,
    journal_lines,
    line_type,
)

WORKLOAD = "mobilenet"
MANIFEST = RunSpec("unico", "edge", WORKLOAD, "smoke", seed=11).to_manifest()


def _fresh_unico(tiny_network, edge_space, tracker=None, max_iterations=2):
    engine = MaestroEngine(tiny_network)
    return Unico(
        edge_space,
        tiny_network,
        engine,
        UnicoConfig(batch_size=4, max_iterations=max_iterations, max_budget=16),
        power_cap_w=100.0,
        seed=5,
        tracker=tracker,
    )


class _KillAfter(JournalTracker):
    """Simulates a crash: journals normally, then dies mid-search."""

    def __init__(self, run, iterations, **kwargs):
        super().__init__(run, **kwargs)
        self._die_at = iterations

    def on_iteration_committed(self, optimizer):
        super().on_iteration_committed(optimizer)
        if optimizer.completed_iterations >= self._die_at:
            raise KeyboardInterrupt("simulated kill")


def _health_lines(path):
    return [
        line for line in journal_lines(path) if line_type(line) == "search_health"
    ]


def _timelines_equal(a, b):
    if len(a) != len(b):
        return False
    return all(
        x.time_s == pytest.approx(y.time_s)
        and x.feasible == y.feasible
        and np.allclose(x.ppa_vector, y.ppa_vector)
        for x, y in zip(a, b)
    )


class TestJournalTracker:
    def test_tracked_run_leaves_full_artifacts(
        self, tiny_network, edge_space, tmp_path
    ):
        store = RunStore(tmp_path / "runs")
        run = store.create_run(dict(MANIFEST))
        unico = _fresh_unico(
            tiny_network, edge_space, tracker=JournalTracker(run)
        )
        result = unico.optimize()
        assert run.status == "completed"
        # one durable file besides the manifest
        assert sorted(p.name for p in run.dir.iterdir()) == [
            "journal.jsonl", "manifest.json",
        ]
        scan = read_events(run.journal_path)
        assert len(scan.of_type("iteration_state")) == 2
        types = {e["type"] for e in scan.events}
        assert {
            "run_start",
            "iteration_start",
            "hw_sampled",
            "msh_round",
            "evaluation",
            "surrogate_update",
            "iteration_state",
            "iteration_end",
            "engine_snapshot",
            "run_end",
        } <= types
        # every sampled batch is journaled with decodable configs
        sampled = [e for e in scan.events if e["type"] == "hw_sampled"]
        assert sum(e["num_configs"] for e in sampled) == result.total_hw_evaluated
        for event in sampled:
            for payload in event["configs"]:
                edge_space.to_config(dict(payload))  # must not raise
        # replayed records match the in-memory ones exactly
        assert (
            replay_iteration_records(run.journal_path)
            == result.extras["iteration_records"]
        )

    def test_search_health_beacon_per_iteration(
        self, tiny_network, edge_space, tmp_path
    ):
        """A tracked run emits one ``search_health`` event per iteration
        with a monotone hypervolume series, so a flat window in the
        journal means no progress."""
        store = RunStore(tmp_path / "runs")
        run = store.create_run(dict(MANIFEST))
        unico = _fresh_unico(
            tiny_network, edge_space, tracker=JournalTracker(run),
            max_iterations=3,
        )
        unico.optimize()
        scan = read_events(run.journal_path)
        health = [e for e in scan.events if e["type"] == "search_health"]
        assert [e["iteration"] for e in health] == [0, 1, 2]
        hv = [e["hypervolume"] for e in health]
        assert all(b >= a for a, b in zip(hv, hv[1:]))  # frozen reference
        for event in health:
            assert event["pareto_size"] >= 1
            assert event["engine_queries"] > 0
            assert event["evaluations"] > 0
            assert event["time_s"] >= 0.0

    def test_untracked_run_emits_no_search_health(
        self, tiny_network, edge_space
    ):
        unico = _fresh_unico(tiny_network, edge_space, tracker=NullTracker())
        unico.optimize()  # must not raise, and pays no beacon cost
        assert not hasattr(unico, "_hv_reference")

    def test_evaluation_events_record_batch_membership(
        self, tiny_network, edge_space, tmp_path
    ):
        """UNICO stamps each evaluation with its HW batch; scalar callers
        (finish_candidate without batch args) keep the historical shape."""
        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        _fresh_unico(
            tiny_network, edge_space, tracker=JournalTracker(run)
        ).optimize()
        evals = [
            e for e in read_events(run.journal_path).events
            if e["type"] == "evaluation"
        ]
        assert evals
        for event in evals:
            assert event["batch_id"] >= 0
            assert event["batch_size"] >= 1
        # batch ids partition the evaluations into the two iterations
        assert {e["batch_id"] for e in evals} == {0, 1}

    def test_tracking_does_not_perturb_search(
        self, tiny_network, edge_space, tmp_path
    ):
        untracked = _fresh_unico(tiny_network, edge_space, tracker=NullTracker())
        plain = untracked.optimize()
        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        tracked = _fresh_unico(
            tiny_network, edge_space, tracker=JournalTracker(run)
        ).optimize()
        assert sorted(map(tuple, plain.pareto.points.tolist())) == sorted(
            map(tuple, tracked.pareto.points.tolist())
        )
        assert plain.total_time_s == pytest.approx(tracked.total_time_s)

    def test_checkpoint_every_zero_journals_only(
        self, tiny_network, edge_space, tmp_path
    ):
        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        tracker = JournalTracker(run, checkpoint_every=0)
        _fresh_unico(tiny_network, edge_space, tracker=tracker).optimize()
        scan = read_events(run.journal_path)
        assert len(scan.events) > 0
        assert scan.of_type("iteration_state") == []


class TestHarnessLifecycle:
    def test_tracked_baseline_reaches_terminal_status(self, tmp_path):
        """Baselines don't drive the tracker themselves; run_method must
        emit run_start/run_end so the manifest leaves 'created'."""
        store = RunStore(tmp_path / "runs")
        result = run_method(
            "random", "edge", WORKLOAD, "smoke", seed=3, run_store=store
        )
        run = store.get(result.extras["run_id"])
        assert run.status == "completed"
        types = [e["type"] for e in read_events(run.journal_path).events]
        assert types[0] == "run_start"
        assert types[-1] == "run_end"
        assert "evaluation" in types

    def test_tracker_and_run_store_together_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        with pytest.raises(ConfigurationError, match="not both"):
            run_method(
                "unico", "edge", WORKLOAD, "smoke", seed=11,
                tracker=JournalTracker(run),
                run_store=tmp_path / "runs",
            )

    def test_custom_preset_object_is_resumable(self, tmp_path):
        """A run tracked with an unregistered Preset object must resume
        from the manifest's persisted parameters, not a name lookup."""
        import dataclasses

        from repro.experiments.presets import get_preset

        custom = dataclasses.replace(get_preset("smoke"), name="custom-tiny")
        store = RunStore(tmp_path / "runs")
        result = run_method(
            "unico", "edge", WORKLOAD, custom, seed=11, run_store=store
        )
        run = store.get(result.extras["run_id"])
        manifest = run.read_manifest()
        assert manifest["preset"] == "custom-tiny"
        assert (
            manifest["preset_params"]["unico_iterations"]
            == custom.unico_iterations
        )
        # get_preset("custom-tiny") would raise; resume must not need it
        resumed = resume_run(run)
        assert resumed.extras["resumed_from_iteration"] == custom.unico_iterations
        assert sorted(map(tuple, resumed.pareto.points.tolist())) == sorted(
            map(tuple, result.pareto.points.tolist())
        )


class TestKillResumeEquivalence:
    def test_resume_matches_uninterrupted(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        straight = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11, run_store=store
        )
        straight_run = store.get(straight.extras["run_id"])

        run = store.create_run(dict(MANIFEST))
        with pytest.raises(KeyboardInterrupt):
            run_method(
                "unico", "edge", WORKLOAD, "smoke", seed=11,
                tracker=_KillAfter(run, iterations=1),
            )
        assert run.status == "failed"
        health = verify_run(run)
        assert health["journal_iterations"] == 1
        assert health["committed_iterations"] == 1

        resumed = resume_run(run)
        assert run.status == "completed"
        assert resumed.extras["resumed_from_iteration"] == 1
        assert resumed.total_hw_evaluated == straight.total_hw_evaluated
        assert sorted(map(tuple, resumed.pareto.points.tolist())) == sorted(
            map(tuple, straight.pareto.points.tolist())
        )
        assert _timelines_equal(resumed.timeline, straight.timeline)
        assert resumed.total_time_s == pytest.approx(straight.total_time_s)
        # journal replay = the uninterrupted iteration-record sequence
        assert (
            replay_iteration_records(run.journal_path)
            == straight.extras["iteration_records"]
        )
        # the beacon survives the kill: same counters, same frozen reference
        assert _health_lines(run.journal_path) == (
            _health_lines(straight_run.journal_path)
        )

    def test_resume_reexecutes_iteration_when_checkpoint_lags(self, tmp_path):
        """A kill between an iteration's lines and its state line leaves
        the journal one iteration ahead of its last state; the resume cuts
        the uncommitted lines away and runs the iteration again."""
        straight = run_method("unico", "edge", WORKLOAD, "smoke", seed=11)

        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11,
            tracker=JournalTracker(run),
        )
        cut_before_last_state(run.journal_path)
        assert verify_run(run)["journal_iterations"] == 2
        assert verify_run(run)["committed_iterations"] == 1

        resumed = resume_run(run)
        assert resumed.extras["resumed_from_iteration"] == 1
        assert sorted(map(tuple, resumed.pareto.points.tolist())) == sorted(
            map(tuple, straight.pareto.points.tolist())
        )
        replayed = replay_iteration_records(run.journal_path)
        assert replayed == straight.extras["iteration_records"]


class TestResumeRefusals:
    def test_resume_requires_checkpoint(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11,
            tracker=JournalTracker(run, checkpoint_every=0),
        )
        with pytest.raises(TrackingError, match="no checkpoint"):
            resume_run(run)

    def test_resume_refuses_a_run_kept_in_checkpoint_files(self, tmp_path):
        """A run directory from before the journal held the state has a
        ``checkpoints/`` directory and no state lines: refused, not
        migrated, and its journal is left as it was."""
        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11,
            tracker=JournalTracker(run),
        )
        (run.dir / "checkpoints").mkdir()
        before = run.journal_path.read_bytes()
        with pytest.raises(TrackingError, match="checkpoint files"):
            resume_run(run)
        assert run.journal_path.read_bytes() == before

    def test_resume_requires_manifest_keys(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run({"method": "unico"})
        run.journal_path.write_text("")
        with pytest.raises(TrackingError, match="manifest lacks"):
            resume_run(run)

    def test_resume_rejects_tampered_journal(self, tmp_path):
        """An iteration recorded twice is not a journal any resume wrote:
        replay, and so the resume, refuses it."""
        import json

        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11,
            tracker=JournalTracker(run),
        )
        events = read_events(run.journal_path).events
        end = next(e for e in events if e["type"] == "iteration_end")
        events.insert(events.index(end), dict(end))
        run.journal_path.write_text("".join(
            json.dumps(dict(event, seq=seq), sort_keys=True) + "\n"
            for seq, event in enumerate(events)
        ))
        with pytest.raises(TrackingError, match="recorded twice"):
            replay_iteration_records(run.journal_path)
        with pytest.raises(TrackingError, match="recorded twice"):
            resume_run(run)

    def test_verify_run_reports_truncation(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run(dict(MANIFEST))
        run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11,
            tracker=JournalTracker(run),
        )
        with open(run.journal_path, "ab") as handle:
            handle.write(b'{"seq": 999, "type": "part')
        assert verify_run(run)["truncated_tail"] is True
