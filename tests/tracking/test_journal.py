"""Tests for the crash-safe JSONL event journal."""

import json

import pytest

from repro.errors import TrackingError
import repro.tracking.journal as journal_module
from repro.tracking.journal import (
    EventJournal,
    read_bytes_from,
    read_events,
    read_events_from,
    read_tail_events,
    scan_bytes,
    verify_sequence,
)


def write_journal(path, count):
    with EventJournal(path) as journal:
        for i in range(count):
            journal.append("evaluation", {"iteration": i})


class TestAppendRead:
    def test_round_trip_preserves_order_and_seq(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            for i in range(5):
                seq = journal.append("iteration_start", {"iteration": i})
                assert seq == i
        scan = read_events(path)
        assert len(scan.events) == 5
        assert [e["seq"] for e in scan.events] == list(range(5))
        assert [e["iteration"] for e in scan.events] == list(range(5))
        assert scan.last_seq == 4
        assert not scan.truncated_tail
        verify_sequence(scan)

    def test_unknown_event_type_rejected(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        with pytest.raises(TrackingError):
            journal.append("made_up_event", {})

    def test_numpy_payloads_serialize(self, tmp_path):
        import numpy as np

        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            journal.append(
                "evaluation",
                {"objectives": np.array([1.5, 2.5]), "count": np.int64(3)},
            )
        event = read_events(path).events[0]
        assert event["objectives"] == [1.5, 2.5]
        assert event["count"] == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TrackingError):
            read_events(tmp_path / "nope.jsonl")


class TestCrashSafety:
    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            journal.append("run_start", {"a": 1})
            journal.append("iteration_start", {"iteration": 0})
        # simulate a kill mid-write: a partial line with no newline
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "type": "iterati')
        scan = read_events(path)
        assert len(scan.events) == 2
        assert scan.truncated_tail
        verify_sequence(scan)

    def test_corrupt_middle_line_stops_scan(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            json.dumps({"seq": 0, "type": "run_start"}),
            "{not json at all",
            json.dumps({"seq": 2, "type": "run_end"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        scan = read_events(path)
        assert len(scan.events) == 1
        assert scan.truncated_tail

    def test_append_is_one_complete_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            journal.append("run_start", {"x": "y"})
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    def test_fsync_mode_writes_identically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path, fsync=True) as journal:
            journal.append("run_start", {})
        assert len(read_events(path).events) == 1


class TestResumeSequencing:
    def test_open_resume_continues_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            journal.append("run_start", {})
            journal.append("iteration_start", {"iteration": 0})
        with EventJournal.open_resume(path) as journal:
            seq = journal.append("resume", {})
        assert seq == 2
        scan = read_events(path)
        verify_sequence(scan)
        assert scan.events[-1]["type"] == "resume"

    def test_open_resume_skips_truncated_tail_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            journal.append("run_start", {})
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 1, "type": "run_e')
        with EventJournal.open_resume(path) as journal:
            assert journal.append("resume", {}) == 1

    def test_open_resume_truncates_partial_tail_before_append(self, tmp_path):
        """Post-resume appends must not weld onto crash-partial bytes —
        the journal has to be fully readable again afterwards."""
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            journal.append("run_start", {})
            journal.append("iteration_start", {"iteration": 0})
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "type": "iterati')
        with EventJournal.open_resume(path) as journal:
            journal.append("resume", {})
            journal.append("iteration_start", {"iteration": 1})
        scan = read_events(path)
        assert not scan.truncated_tail
        assert [e["type"] for e in scan.events] == [
            "run_start",
            "iteration_start",
            "resume",
            "iteration_start",
        ]
        verify_sequence(scan)

    def test_open_resume_truncates_mid_file_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            journal.append("run_start", {})
        with open(path, "ab") as handle:
            handle.write(b"{garbage line\n")
            handle.write(
                b'{"seq": 99, "type": "run_end"}\n'
            )  # untrustworthy: follows corruption
        with EventJournal.open_resume(path) as journal:
            assert journal.append("resume", {}) == 1
        scan = read_events(path)
        assert not scan.truncated_tail
        assert [e["seq"] for e in scan.events] == [0, 1]
        verify_sequence(scan)

    def test_verify_sequence_rejects_gap(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"seq": 0, "type": "run_start"})
            + "\n"
            + json.dumps({"seq": 5, "type": "run_end"})
            + "\n"
        )
        with pytest.raises(TrackingError):
            verify_sequence(read_events(path))


class TestCursorReads:
    """read_events_from: the incremental (SSE/tail --follow) read path."""

    def test_offset_zero_matches_full_scan(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 4)
        full = read_events(path)
        partial = read_events_from(path, 0)
        assert partial.events == full.events
        assert partial.event_offsets == full.event_offsets
        assert partial.valid_bytes == full.valid_bytes

    def test_event_offsets_slice_back_to_exact_lines(self, tmp_path):
        """Each offset points just past its event's line — the property
        the hub's SSE byte-identity guarantee is built on."""
        path = tmp_path / "j.jsonl"
        write_journal(path, 5)
        raw = path.read_bytes()
        scan = read_events(path)
        previous = 0
        for event, end in zip(scan.events, scan.event_offsets):
            line = raw[previous:end]
            assert line.endswith(b"\n")
            assert json.loads(line) == event
            previous = end

    def test_resume_from_cursor_yields_exact_remainder(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 6)
        full = read_events(path)
        cursor = full.event_offsets[2]  # consumed the first three events
        rest = read_events_from(path, cursor)
        assert rest.start_offset == cursor
        assert rest.events == full.events[3:]
        assert rest.event_offsets == full.event_offsets[3:]
        assert rest.valid_bytes == full.valid_bytes

    def test_offset_at_eof_is_empty_not_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 2)
        scan = read_events_from(path, path.stat().st_size)
        assert scan.events == []
        assert scan.valid_bytes == path.stat().st_size
        assert not scan.truncated_tail

    def test_negative_offset_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 1)
        with pytest.raises(TrackingError):
            read_events_from(path, -1)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TrackingError):
            read_events_from(tmp_path / "nope.jsonl", 0)

    def test_sees_truncated_tail_past_cursor(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 2)
        cursor = read_events(path).valid_bytes
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "type": "evalua')
        scan = read_events_from(path, cursor)
        assert scan.events == []
        assert scan.truncated_tail
        assert scan.valid_bytes == cursor


class TestPublicScanner:
    """``scan_bytes`` + ``read_bytes_from``: what the hub's SSE pump builds
    on instead of a private import."""

    def test_exported(self):
        assert {"scan_bytes", "read_bytes_from"} <= set(journal_module.__all__)
        assert not hasattr(journal_module, "_scan_bytes")

    def test_raw_bytes_plus_scan_is_read_events_from(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 5)
        cursor = read_events(path).event_offsets[1]
        raw = read_bytes_from(path, cursor)
        assert raw == path.read_bytes()[cursor:]
        scan = scan_bytes(raw, cursor)
        expected = read_events_from(path, cursor)
        assert scan.events == expected.events
        assert scan.event_offsets == expected.event_offsets
        assert scan.valid_bytes == expected.valid_bytes

    def test_raw_read_past_eof_is_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 1)
        assert read_bytes_from(path, path.stat().st_size + 10) == b""

    def test_raw_read_rejects_bad_cursor_and_missing_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 1)
        with pytest.raises(TrackingError):
            read_bytes_from(path, -1)
        with pytest.raises(TrackingError):
            read_bytes_from(tmp_path / "nope.jsonl", 0)


class TestTailReads:
    """read_tail_events: bounded backward reads for ``repro runs tail``."""

    def test_returns_last_n_events(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 20)
        scan = read_tail_events(path, 5)
        assert [e["iteration"] for e in scan.events] == [15, 16, 17, 18, 19]
        assert scan.last_seq == 19

    def test_limit_beyond_length_returns_all(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 3)
        scan = read_tail_events(path, 100)
        assert len(scan.events) == 3

    def test_zero_limit_returns_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 3)
        assert read_tail_events(path, 0).events == []

    def test_small_window_widens_until_satisfied(self, tmp_path):
        """With a window smaller than one line the reader must double its
        way back instead of returning short."""
        path = tmp_path / "j.jsonl"
        write_journal(path, 50)
        scan = read_tail_events(path, 30, initial_window=1)
        assert [e["iteration"] for e in scan.events] == list(range(20, 50))

    def test_matches_full_scan_suffix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 40)
        full = read_events(path)
        tail = read_tail_events(path, 7, initial_window=256)
        assert tail.events == full.events[-7:]
        assert tail.event_offsets == full.event_offsets[-7:]

    def test_event_type_filter_applies_before_limit(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            for i in range(10):
                journal.append("evaluation", {"iteration": i})
                journal.append("pareto_update", {"pareto_size": i})
        scan = read_tail_events(path, 3, event_type="pareto_update",
                                initial_window=64)
        assert [e["pareto_size"] for e in scan.events] == [7, 8, 9]
        assert all(e["type"] == "pareto_update" for e in scan.events)

    def test_truncated_tail_still_reported(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 8)
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 8, "type": "evalua')
        scan = read_tail_events(path, 3)
        assert scan.truncated_tail
        assert [e["iteration"] for e in scan.events] == [5, 6, 7]

    def test_negative_limit_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, 1)
        with pytest.raises(TrackingError):
            read_tail_events(path, -1)


class TestConcurrency:
    def test_threaded_appends_interleave_whole_lines(self, tmp_path):
        import threading

        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)

        def writer(tag):
            for _ in range(50):
                journal.append("evaluation", {"tag": tag, "pad": "x" * 200})

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        scan = read_events(path)
        assert len(scan.events) == 200
        assert not scan.truncated_tail
        verify_sequence(scan)


class TestSchemaGrowth:
    """The ``span`` event type (added for repro.obs) must not disturb any
    journal consumer: replay, verification and resume are type-agnostic."""

    def test_span_event_round_trips(self, tmp_path):
        path = tmp_path / "j.jsonl"
        span = {
            "span_schema": 1,
            "name": "iteration",
            "trace_id": "t",
            "span_id": "abc-1",
            "parent_id": None,
            "wall_start_s": 1.0,
            "wall_dur_s": 0.5,
            "sim_start_s": 0.0,
            "sim_dur_s": 100.0,
            "thread": 1,
            "attrs": {"iteration": 0},
        }
        with EventJournal(path) as journal:
            journal.append("span", dict(span))
        event = read_events(path).of_type("span")[0]
        for key, value in span.items():
            assert event[key] == value

    def test_mixed_journal_replays_and_verifies(self, tmp_path):
        """A traced run's journal (spans interleaved with the decision
        events) still replays its iteration records and verify_runs."""
        from repro.experiments.harness import run_method
        from repro.tracking.store import RunStore
        from repro.tracking.tracker import replay_iteration_records, verify_run

        store = RunStore(tmp_path / "runs")
        result = run_method(
            "unico", "edge", "mobilenet", "smoke", seed=11,
            run_store=store, trace=True,
        )
        run = store.get(result.extras["run_id"])
        scan = read_events(run.journal_path)
        types = {e["type"] for e in scan.events}
        assert "span" in types and "iteration_end" in types
        verify_sequence(scan)
        health = verify_run(run)
        assert health["journal_iterations"] == 2
        assert (
            replay_iteration_records(run.journal_path)
            == result.extras["iteration_records"]
        )

    def test_mixed_journal_resumes(self, tmp_path):
        """Resume over a span-bearing journal: cut it before its last
        state line so it is ahead, then resume and match the straight run."""
        from repro.experiments.harness import resume_run, run_method
        from repro.tracking.store import RunStore
        from repro.tracking.tracker import replay_iteration_records
        from tests.tracking.journal_lines import cut_before_last_state

        straight = run_method("unico", "edge", "mobilenet", "smoke", seed=11)

        store = RunStore(tmp_path / "runs")
        result = run_method(
            "unico", "edge", "mobilenet", "smoke", seed=11,
            run_store=store, trace=True,
        )
        run = store.get(result.extras["run_id"])
        cut_before_last_state(run.journal_path)  # one iteration ahead

        resumed = resume_run(run)
        assert resumed.extras["resumed_from_iteration"] == 1
        assert sorted(
            map(tuple, resumed.pareto.points.tolist())
        ) == sorted(map(tuple, straight.pareto.points.tolist()))
        assert (
            replay_iteration_records(run.journal_path)
            == straight.extras["iteration_records"]
        )
