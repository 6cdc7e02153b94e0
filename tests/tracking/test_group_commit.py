"""Group commit: what ``EventJournal.append_many`` and ``append_framed``
guarantee and do not.

A group is N events with consecutive ``seq``, N whole lines, one
``os.write`` (one ``fsync`` when on) under one lock hold.  Lines are
atomic, groups are not: a crash inside a group keeps the whole lines
before the cut, and ``open_resume`` continues ``seq`` from there.
"""

import json
import os
import sys
import threading

import pytest

from repro.errors import TrackingError
from repro.tracking.journal import (
    AppendLog,
    EventJournal,
    read_events,
    verify_sequence,
)


def _group(tag, size):
    return [{"tag": tag, "member": i, "pad": "x" * 40} for i in range(size)]


def _frames(payloads, event_type="engine_sample"):
    """``(prefix, suffix)`` of each payload's line, cut at its ``seq``."""
    frames = []
    for payload in payloads:
        line = json.dumps(dict(payload, seq=-7, type=event_type), sort_keys=True)
        prefix, suffix = line.split("-7", 1)
        frames.append((prefix, suffix))
    return frames


class TestAppendMany:
    def test_group_is_consecutive_whole_lines_in_one_write(
        self, tmp_path, monkeypatch
    ):
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            assert journal.append("run_start", {}) == 0
            assert journal.append_many("engine_sample", _group("a", 5)) == 1
            assert journal.append("run_end", {}) == 6
        monkeypatch.undo()
        assert len(writes) == 3
        assert writes[1].count(b"\n") == 5 and writes[1].endswith(b"\n")
        assert path.read_bytes() == b"".join(writes)
        scan = read_events(path)
        verify_sequence(scan)
        assert [e["member"] for e in scan.of_type("engine_sample")] == list(range(5))

    def test_append_is_the_one_event_group(self, tmp_path):
        """Same bytes whether events go one by one or as groups."""
        events = _group("a", 4)
        with EventJournal(tmp_path / "single.jsonl") as journal:
            for payload in events:
                journal.append("evaluation", payload)
        with EventJournal(tmp_path / "grouped.jsonl") as journal:
            journal.append_many("evaluation", events[:1])
            journal.append_many("evaluation", events[1:])
        assert (tmp_path / "single.jsonl").read_bytes() == (
            tmp_path / "grouped.jsonl"
        ).read_bytes()

    def test_empty_group_writes_nothing_and_burns_no_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            assert journal.append_many("engine_sample", []) == 0
            assert not path.exists()
            assert journal.append("run_start", {}) == 0

    def test_unknown_type_rejected_before_any_write(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            with pytest.raises(TrackingError, match="unknown event type"):
                journal.append_many("made_up", _group("a", 2))
            assert not path.exists()

    def test_one_fsync_per_group_and_identical_bytes(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        for name, fsync in (("plain.jsonl", False), ("synced.jsonl", True)):
            with EventJournal(tmp_path / name, fsync=fsync) as journal:
                journal.append("run_start", {})
                journal.append_many("engine_sample", _group("a", 7))
                journal.append_many("engine_sample", _group("b", 3))
        assert len(synced) == 3  # one per call of the fsync journal, none before
        assert (tmp_path / "plain.jsonl").read_bytes() == (
            tmp_path / "synced.jsonl"
        ).read_bytes()


class TestAppendFramed:
    def test_same_bytes_as_append_many_in_one_write(self, tmp_path, monkeypatch):
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        with EventJournal(tmp_path / "framed.jsonl") as journal:
            assert journal.append("run_start", {}) == 0
            assert journal.append_framed(_frames(_group("a", 5))) == 1
            assert journal.append_framed(_frames(_group("b", 1))) == 6
            assert journal.append("run_end", {}) == 7
        monkeypatch.undo()
        assert len(writes) == 4
        assert writes[1].count(b"\n") == 5 and writes[1].endswith(b"\n")
        with EventJournal(tmp_path / "many.jsonl") as journal:
            journal.append("run_start", {})
            journal.append_many("engine_sample", _group("a", 5))
            journal.append_many("engine_sample", _group("b", 1))
            journal.append("run_end", {})
        assert b"".join(writes) == (tmp_path / "framed.jsonl").read_bytes() == (
            tmp_path / "many.jsonl"
        ).read_bytes()

    def test_empty_frames_write_nothing_and_burn_no_seq(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(os, "write", lambda fd, data: writes.append(data))
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        assert journal.append_framed([]) == 0
        assert journal.append_framed(iter(())) == 0
        assert writes == [] and not path.exists()
        monkeypatch.undo()
        assert journal.append("run_start", {}) == 0
        journal.close()

    def test_one_fsync_per_group(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        with EventJournal(tmp_path / "j.jsonl", fsync=True) as journal:
            journal.append_framed(_frames(_group("a", 7)))
            journal.append_framed(_frames(_group("b", 3)))
        assert len(synced) == 2


class TestTornGroup:
    def test_cut_at_every_byte_of_the_last_group(self, tmp_path):
        """Readers see the whole lines before the cut; resume continues there
        — for a group of ``append_many`` and one of ``append_framed``."""
        for name, write_group in (
            ("many", lambda journal, group: journal.append_many("engine_sample", group)),
            ("framed", lambda journal, group: journal.append_framed(_frames(group))),
        ):
            _cut_every_byte(tmp_path / name, write_group)


def _cut_every_byte(directory, write_group):
    directory.mkdir()
    source = directory / "whole.jsonl"
    with EventJournal(source) as journal:
        journal.append("run_start", {"a": 1})
        journal.append("iteration_start", {"iteration": 0})
        group_seq = write_group(journal, _group("g", 4))
    raw = source.read_bytes()
    group_start = read_events(source).event_offsets[group_seq - 1]
    assert group_start < len(raw)
    torn = directory / "torn.jsonl"
    for cut in range(group_start, len(raw) + 1):
        kept = raw[:cut]
        whole_lines = kept.count(b"\n")
        clean_bytes = kept.rfind(b"\n") + 1
        torn.write_bytes(kept)

        scan = read_events(torn)
        assert len(scan.events) == whole_lines, cut
        assert scan.valid_bytes == clean_bytes, cut
        assert scan.truncated_tail == (cut != clean_bytes), cut
        verify_sequence(scan)

        with EventJournal.open_resume(torn) as journal:
            assert journal.append("resume", {}) == whole_lines, cut
        after = torn.read_bytes()
        assert after.startswith(raw[:clean_bytes]), cut
        resumed = read_events(torn)
        assert not resumed.truncated_tail, cut
        assert len(resumed.events) == whole_lines + 1, cut
        verify_sequence(resumed)


class TestAppendLog:
    def test_offset_is_the_file_size_without_a_stat(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path)
        assert log.write(b'{"a": 1}\n') == 9 == path.stat().st_size
        assert log.write(b'{"a": 2}\n{"a": 3}\n') == 27 == path.stat().st_size
        log.close()
        reopened = AppendLog(path)
        assert reopened.write(b'{"a": 4}\n') == 36 == path.stat().st_size
        reopened.close()

    def test_first_write_cuts_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": 2')
        log = AppendLog(path)
        assert log.write(b'{"a": 3}\n') == 18
        log.close()
        assert path.read_bytes() == b'{"a": 1}\n{"a": 3}\n'

    def test_open_reports_what_the_file_held(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"
        fresh = AppendLog(path)
        assert fresh.open().events == []  # creates the directory and the file
        fresh.write(b'{"seq": 0}\n{"seq": 1}\n')
        fresh.close()
        scan = AppendLog(path).open()
        assert scan.last_seq == 1 and not scan.truncated_tail


class TestThreadedGroups:
    def test_groups_stay_contiguous_under_concurrent_writers(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        writers, groups_each = 4, 40
        sizes = [1, 2, 5, 9]

        def writer(tag):
            for group in range(groups_each):
                journal.append_many(
                    "engine_sample",
                    [
                        {"tag": tag, "group": group, "member": member}
                        for member in range(sizes[(tag + group) % len(sizes)])
                    ],
                )

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        journal.close()

        scan = read_events(path)
        assert not scan.truncated_tail
        verify_sequence(scan)  # file order is seq order
        runs = []  # maximal runs of one (tag, group) in file order
        for event in scan.events:
            key = (event["tag"], event["group"])
            if runs and runs[-1][0] == key:
                runs[-1][1].append(event["member"])
            else:
                runs.append((key, [event["member"]]))
        assert len(runs) == writers * groups_each  # no group was split
        for (tag, group), members in runs:
            assert members == list(range(sizes[(tag + group) % len(sizes)]))
        for tag in range(writers):  # each writer's groups in its own order
            assert [g for (t, g), _m in runs if t == tag] == list(range(groups_each))

    def test_framed_groups_mixed_with_appends_keep_seq_contiguous(self, tmp_path):
        """Four threads, each cycling ``append``, ``append_many`` and
        ``append_framed``: file order is ``seq`` order, no group is split."""
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        writers, groups_each = 4, 30

        def writer(tag):
            for group in range(groups_each):
                payloads = [
                    {"tag": tag, "group": group, "member": member}
                    for member in range(1 + (tag + group) % 4)
                ]
                kind = group % 3
                if kind == 0:
                    journal.append("engine_sample", payloads[0])
                    payloads[1:] = []
                elif kind == 1:
                    journal.append_many("engine_sample", payloads)
                else:
                    journal.append_framed(_frames(payloads))
                sizes[tag, group] = len(payloads)

        sizes = {}
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        journal.close()

        scan = read_events(path)
        assert not scan.truncated_tail
        verify_sequence(scan)
        runs = []
        for event in scan.events:
            key = (event["tag"], event["group"])
            if runs and runs[-1][0] == key:
                runs[-1][1].append(event["member"])
            else:
                runs.append((key, [event["member"]]))
        assert len(runs) == writers * groups_each
        for key, members in runs:
            assert members == list(range(sizes[key]))


def test_journal_lines_do_not_depend_on_the_write_path(tmp_path):
    """The encoder is the module's one ``JSONEncoder``: what ``json.dumps(
    record, sort_keys=True, default=to_jsonable)`` wrote before it."""
    import numpy as np

    from repro.utils.records import to_jsonable

    payload = {
        "objectives": np.array([1.5, float("inf")]),
        "count": np.int64(3),
        "mapping": (4, 8, ("n", "m", "k"), "mn"),
        "nested": {"b": 1, "a": [None, True]},
    }
    path = tmp_path / "j.jsonl"
    with EventJournal(path) as journal:
        journal.append("evaluation", payload)
    record = dict(payload, seq=0, type="evaluation")
    expected = json.dumps(record, sort_keys=True, default=to_jsonable) + "\n"
    assert path.read_text() == expected
