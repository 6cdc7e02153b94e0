"""Journal schema growth: new event types coexist with old readers.

This PR added two event types (``engine_sample``, ``learned_model``) to
the whitelist without bumping ``JOURNAL_VERSION``.  The compatibility
contract: journals mixing old and new event types — including a
crash-truncated tail — replay, verify and resume exactly as before,
because every reader filters by type instead of assuming a fixed set.
"""

import json

import pytest

from repro.errors import TrackingError
from repro.experiments.harness import resume_run, run_method
from repro.tracking import (
    EVENT_TYPES,
    EventJournal,
    RunStore,
    read_events,
    replay_iteration_records,
    verify_run,
)
from tests.tracking.journal_lines import cut_before_last_state

WORKLOAD = "mobilenet"


class TestEventTypeWhitelist:
    def test_new_types_are_registered(self):
        assert "engine_sample" in EVENT_TYPES
        assert "learned_model" in EVENT_TYPES

    def test_journal_version_unchanged(self):
        from repro.tracking import JOURNAL_VERSION

        # additive growth must not bump the format version: old journals
        # and new journals are the same format
        assert JOURNAL_VERSION == 1

    def test_unknown_type_still_rejected(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.jsonl")
        with pytest.raises(TrackingError, match="unknown event type"):
            journal.append("engine_sample_v2", {})


class TestMixedJournalReplay:
    def _tracked_run(self, tmp_path, record_samples):
        result = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11,
            run_store=tmp_path / "runs",
            record_samples=record_samples,
            eval_batch_size=8,
        )
        return RunStore(tmp_path / "runs").get(result.extras["run_id"]), result

    def test_sample_events_do_not_change_replay(self, tmp_path):
        run_old, _ = self._tracked_run(tmp_path / "old", record_samples=False)
        run_new, _ = self._tracked_run(tmp_path / "new", record_samples=True)
        old_types = {e["type"] for e in read_events(run_old.journal_path).events}
        new_types = {e["type"] for e in read_events(run_new.journal_path).events}
        assert "engine_sample" not in old_types  # opt-in: old runs unchanged
        assert "engine_sample" in new_types
        # iteration replay sees through the interleaved sample events
        assert replay_iteration_records(
            run_new.journal_path
        ) == replay_iteration_records(run_old.journal_path)

    def test_verify_run_accepts_mixed_events(self, tmp_path):
        run, _ = self._tracked_run(tmp_path, record_samples=True)
        health = verify_run(run)
        assert health["truncated_tail"] is False
        assert health["journal_iterations"] == 2

    def test_verify_run_with_truncated_sample_tail(self, tmp_path):
        run, _ = self._tracked_run(tmp_path, record_samples=True)
        with open(run.journal_path, "ab") as handle:
            handle.write(b'{"seq": 99999, "type": "engine_sample", "samp')
        health = verify_run(run)
        assert health["truncated_tail"] is True

    def test_resume_over_mixed_events_with_truncated_tail(self, tmp_path):
        straight = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11, eval_batch_size=8
        )
        run, _ = self._tracked_run(tmp_path, record_samples=True)
        # simulate a crash: cut the journal before its last state line,
        # then tear it mid-way through an engine_sample line
        cut_before_last_state(run.journal_path)
        with open(run.journal_path, "ab") as handle:
            handle.write(b'{"seq": 99999, "type": "engine_sample", "samp')
        resumed = resume_run(run)
        assert sorted(map(tuple, resumed.pareto.points.tolist())) == sorted(
            map(tuple, straight.pareto.points.tolist())
        )
        # the damaged tail was truncated away and the journal is clean again
        assert read_events(run.journal_path).truncated_tail is False

    def test_learned_model_event_round_trips(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.jsonl")
        payload = {"model_path": "m.json", "feature_version": 1, "topk": 4}
        journal.append("learned_model", payload)
        journal.close()
        events = read_events(tmp_path / "journal.jsonl").of_type("learned_model")
        assert len(events) == 1
        assert {k: events[0][k] for k in payload} == payload
