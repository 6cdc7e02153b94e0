"""Tests for the SSE framing/parsing layer over the JSONL journal."""

import json

import pytest

from repro.hub.sse import format_sse_comment, format_sse_event, parse_sse_lines
from repro.tracking.journal import EventJournal, journal_events_since, read_events


def wire_to_lines(wire: bytes):
    """Decode wire bytes the way an SSE client iterates them."""
    return wire.decode("utf-8").split("\n")


class TestFraming:
    def test_full_frame(self):
        wire = format_sse_event('{"seq": 0}', event_id=27, event="run_start")
        assert wire == b'id: 27\nevent: run_start\ndata: {"seq": 0}\n\n'

    def test_data_only_frame(self):
        assert format_sse_event("x") == b"data: x\n\n"

    def test_newline_in_data_rejected(self):
        with pytest.raises(ValueError):
            format_sse_event("two\nlines")
        with pytest.raises(ValueError):
            format_sse_event("cr\rline")

    def test_comment_frame(self):
        assert format_sse_comment() == b": keepalive\n\n"
        assert format_sse_comment("hub draining") == b": hub draining\n\n"


class TestParser:
    def test_round_trip(self):
        wire = format_sse_event('{"seq": 1}', event_id=42, event="evaluation")
        (event,) = parse_sse_lines(wire_to_lines(wire))
        assert event.data == '{"seq": 1}'
        assert event.event_id == "42"
        assert event.event == "evaluation"

    def test_comments_dropped(self):
        wire = format_sse_comment() + format_sse_event("x", event_id=1)
        events = list(parse_sse_lines(wire_to_lines(wire)))
        assert [e.data for e in events] == ["x"]

    def test_multiple_events_in_order(self):
        wire = b"".join(
            format_sse_event(f"payload-{i}", event_id=i) for i in range(5)
        )
        events = list(parse_sse_lines(wire_to_lines(wire)))
        assert [e.data for e in events] == [f"payload-{i}" for i in range(5)]
        assert [e.event_id for e in events] == [str(i) for i in range(5)]

    def test_unterminated_final_event_not_dispatched(self):
        """A stream cut before the dispatching blank line must not leak a
        half-received event — mirrors the journal's partial-line rule."""
        wire = format_sse_event("complete", event_id=1)
        wire += b"id: 2\ndata: partial"  # no blank line
        events = list(parse_sse_lines(wire_to_lines(wire)))
        assert [e.data for e in events] == ["complete"]

    def test_unknown_fields_ignored(self):
        lines = ["retry: 1000", "data: x", ""]
        (event,) = parse_sse_lines(lines)
        assert event.data == "x"

    def test_crlf_line_endings(self):
        """The EventSource spec admits CRLF; a client splitting on \\n
        alone hands the parser lines with a trailing \\r — including the
        dispatching blank line, which must still dispatch."""
        wire = b'id: 7\r\nevent: evaluation\r\ndata: {"seq": 7}\r\n\r\n'
        (event,) = parse_sse_lines(wire.decode().split("\n"))
        assert event.data == '{"seq": 7}'
        assert event.event_id == "7"
        assert event.event == "evaluation"

    def test_crlf_strips_exactly_one_cr(self):
        # a literal \r at the end of the payload survives CRLF stripping
        (event,) = parse_sse_lines(["data: x\r\r", ""])
        assert event.data == "x\r"

    def test_multi_data_lines_joined_with_newline(self):
        lines = ["id: 3", "data: first", "data: second", "data:", ""]
        (event,) = parse_sse_lines(lines)
        assert event.data == "first\nsecond\n"
        assert event.event_id == "3"

    def test_multi_data_crlf_mix(self):
        wire = b"data: a\r\ndata: b\n\r\n"
        (event,) = parse_sse_lines(wire.decode().split("\n"))
        assert event.data == "a\nb"


class TestJournalEventsSince:
    def make_journal(self, tmp_path, count=4):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            for i in range(count):
                journal.append("evaluation", {"iteration": i})
        return path

    def test_frames_are_verbatim_journal_lines(self, tmp_path):
        path = self.make_journal(tmp_path)
        frames, scan = journal_events_since(path, 0)
        raw = path.read_bytes()
        assert (
            b"\n".join(line for line, _end, _ev in frames) + b"\n" == raw
        )
        assert scan.valid_bytes == len(raw)
        for line, _end, event in frames:
            assert json.loads(line) == event

    def test_offsets_resume_exactly(self, tmp_path):
        path = self.make_journal(tmp_path, count=6)
        frames, _scan = journal_events_since(path, 0)
        cursor = frames[1][1]  # offset just past the second event
        rest, _ = journal_events_since(path, cursor)
        assert [ev["iteration"] for _l, _e, ev in rest] == [2, 3, 4, 5]

    def test_partial_line_not_streamed(self, tmp_path):
        path = self.make_journal(tmp_path, count=2)
        complete = read_events(path).valid_bytes
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "type": "evalu')
        frames, scan = journal_events_since(path, complete)
        assert frames == []
        assert scan.valid_bytes == complete
        assert scan.truncated_tail
