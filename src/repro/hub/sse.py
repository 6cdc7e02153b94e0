"""Server-Sent Events over the crash-safe JSONL journal.

The journal is already an event stream — one JSON object per atomically
appended line — so SSE maps onto it without an intermediate broker:

* the ``data:`` payload of each SSE event is the journal line **verbatim**
  (JSON never contains a raw newline, so one ``data:`` line per event
  suffices and the byte-identity guarantee is structural, not re-serialized);
* the ``id:`` of each SSE event is the **byte offset just past the
  event's line** in the journal file.  A reconnecting client sends that
  offset back as ``Last-Event-ID`` and the server seeks straight to it —
  no scan, no sequence-number bookkeeping, and the id doubles as the
  cursor of :func:`repro.tracking.journal.follow_journal`, which reads
  the journal for both the hub and ``repro runs tail --follow``;
* the ``event:`` field carries the journal event's ``type`` so clients
  can route without parsing the JSON.

Truncation tolerance is inherited from the journal reader: a partial
line mid-write is simply not streamed yet — the cursor stops at the last
complete line and the next poll picks up whatever the writer finished.

:func:`parse_sse_lines` is the matching incremental client-side parser
(field parsing per the WHATWG EventSource algorithm, restricted to the
fields this server emits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

__all__ = [
    "SSEEvent",
    "format_sse_event",
    "format_sse_comment",
    "parse_sse_lines",
]


@dataclass
class SSEEvent:
    """One parsed Server-Sent Event."""

    data: str
    #: the journal byte-offset cursor (``id:`` field), if the event had one
    event_id: Optional[str] = None
    #: the ``event:`` field (journal event type, or a control event such
    #: as ``end_of_stream``)
    event: Optional[str] = None


def format_sse_event(
    data: str, event_id: Optional[int] = None, event: Optional[str] = None
) -> bytes:
    """Wire framing of one SSE event (``id`` / ``event`` / ``data`` / blank).

    ``data`` must be newline-free — journal lines are single-line JSON by
    construction, and a stray newline would silently split the payload
    into two ``data:`` fields.
    """
    if "\n" in data or "\r" in data:
        raise ValueError("SSE data payload must be a single line")
    lines: List[str] = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    lines.append(f"data: {data}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def format_sse_comment(text: str = "keepalive") -> bytes:
    """An SSE comment frame — clients ignore it; proxies see live bytes."""
    return f": {text}\n\n".encode("utf-8")


def parse_sse_lines(lines: Iterable[str]) -> Iterator[SSEEvent]:
    """Incrementally parse decoded SSE lines into :class:`SSEEvent` objects.

    ``lines`` yields text lines *without* their trailing newline (e.g.
    from iterating a ``TextIOWrapper``).  Comment lines are dropped; an
    event is dispatched at each blank line, per the EventSource
    processing model.  A final unterminated event (stream cut before its
    blank line) is deliberately not dispatched — mirroring the journal's
    own partial-line semantics.
    """
    data: List[str] = []
    event_id: Optional[str] = None
    event_type: Optional[str] = None
    for line in lines:
        # the EventSource spec admits CRLF line endings; a caller that
        # split on "\n" alone hands us lines with a trailing "\r" — strip
        # exactly one so a CRLF blank line still dispatches the event
        if line.endswith("\r"):
            line = line[:-1]
        if line == "":
            if data:
                yield SSEEvent(
                    data="\n".join(data), event_id=event_id, event=event_type
                )
            data = []
            event_id = None
            event_type = None
            continue
        if line.startswith(":"):
            continue  # comment / keepalive
        field, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if field == "data":
            data.append(value)
        elif field == "id":
            event_id = value
        elif field == "event":
            event_type = value
        # unknown fields are ignored, per spec
