"""Append-only, crash-safe JSONL event journal for tracked search runs.

A search that spans days of simulated MAESTRO / cycle-accurate time is an
experiment whose *trajectory* matters as much as its final front: which
hardware was sampled, which MSH candidates were promoted on TV vs AUC,
which batch members the UUL rule admitted into the surrogate, when the
Pareto front grew.  The journal records those decisions as typed events,
one JSON object per line:

    {"seq": 17, "type": "iteration_end", "time_s": 1234.5, ...payload}

Crash safety comes from two properties:

* **Atomic line appends** — every event is serialized to one complete
  line, and the lines of one :meth:`EventJournal.append` /
  :meth:`EventJournal.append_many` / :meth:`EventJournal.append_framed`
  call reach the file in a single
  ``os.write`` on an ``O_APPEND`` descriptor (:class:`AppendLog`, the one
  write path of this journal), so concurrent
  writers interleave whole calls and a crash can only tear the final
  line written, never corrupt earlier ones.  Lines are atomic; a *group*
  is not — a torn group keeps the whole lines before the cut.
* **Tolerant reads** — :func:`read_events` stops at the first malformed
  or unterminated line and reports it as a truncated tail instead of
  failing, so a journal cut mid-write is still fully usable up to the
  last complete event.

``fsync=True`` additionally flushes each call's lines to stable storage
before returning (one ``fsync`` per call, however many lines it carried)
— the right trade for cycle-accurate runs where one event per 2-10
simulated minutes is cheap insurance.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import TrackingError
from repro.utils.records import to_jsonable

#: The journal's own format version, stamped on every ``run_start`` event.
JOURNAL_VERSION = 1

#: Event types emitted by :class:`~repro.tracking.tracker.JournalTracker`,
#: plus ``span``, written by
#: :class:`~repro.obs.trace.JournalSpanSink` and carrying its own
#: ``span_schema`` version so the span payload can grow independently of
#: :data:`JOURNAL_VERSION`.  Readers are type-agnostic (forward-compat):
#: replay/resume tooling filters by the types it understands.
EVENT_TYPES = (
    "run_start",
    "resume",
    "iteration_start",
    "hw_sampled",
    "msh_round",
    "surrogate_update",
    "evaluation",
    "pareto_update",
    "engine_snapshot",
    "iteration_end",
    "run_end",
    "span",
    # additive (journal version unchanged): per-candidate engine samples
    # for learned-model training, and the learned-model provenance stamp
    # of a screened run.  Replay/resume of journals without them — and of
    # journals with them, by older readers — is unaffected because all
    # consumers filter by type.
    "engine_sample",
    "learned_model",
    # additive: per-iteration search-health beacon (hypervolume, front
    # size, screening escalations).  Same forward-compat argument as above.
    "search_health",
    # the optimizer's state at the end of a committed iteration, the
    # iteration's last line: what a resume folds (repro.core.checkpoint)
    "iteration_state",
)

#: the text an ``iteration_state`` line carries: a string value escapes
#: its quotes, so only a ``type`` key can write it
_STATE_MARKER = b'"type": "iteration_state"'

#: the bytes a tail read takes from the journal's end first (doubled until
#: it holds enough events)
TAIL_WINDOW = 65536


@dataclass
class JournalScan:
    """Outcome of reading a journal file from disk."""

    events: List[Dict] = field(default_factory=list)
    #: bytes of a trailing partial/corrupt line (crash artifact), if any
    truncated_tail: bool = False
    last_seq: int = -1
    #: byte offset just past the last complete, parseable line — the safe
    #: truncation point when reopening a crash-damaged journal for append
    valid_bytes: int = 0
    #: byte offset the scan started at (0 for a full scan; the cursor for
    #: :func:`read_events_from`)
    start_offset: int = 0
    #: absolute byte offset just past each event's line, parallel to
    #: :attr:`events` — the SSE cursor ids of :mod:`repro.hub.sse`
    event_offsets: List[int] = field(default_factory=list)

    def of_type(self, event_type: str) -> List[Dict]:
        return [e for e in self.events if e.get("type") == event_type]


class AppendLog:
    """Whole-line appends to one file: the write side of :class:`EventJournal`.

    The file is opened lazily with ``O_APPEND | O_CREAT``; a file that
    already holds bytes is scanned once and cut back to the end of its last
    complete line first, so the next write cannot weld onto a crash-partial
    tail.  Each :meth:`write` is one ``os.write`` (checked
    for a short write, followed by ``fsync`` when asked).  Not thread-safe:
    the owner serialises writers under its own lock.
    """

    def __init__(self, path: Union[str, pathlib.Path], fsync: bool = False):
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._fd: Optional[int] = None
        #: byte offset just past the last write — the size the file had
        #: when it was opened plus every byte written since
        self.offset = 0

    def open(self, scan: Optional[JournalScan] = None) -> JournalScan:
        """Open for appending; returns the scan of what the file keeps
        (``scan``, when the caller read the file already)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if scan is None:
            scan = read_events(self.path) if self.path.exists() else JournalScan()
        if scan.truncated_tail:
            os.truncate(str(self.path), scan.valid_bytes)
        self._fd = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.offset = scan.valid_bytes
        return scan

    def write(self, data: bytes) -> int:
        """Append ``data`` (whole lines); returns the byte offset past it."""
        if self._fd is None:
            self.open()
        written = os.write(self._fd, data)
        self.offset += written
        if written != len(data):  # pragma: no cover - disk-full path
            raise TrackingError(
                f"short write to {self.path} ({written}/{len(data)} bytes)"
            )
        if self.fsync:
            os.fsync(self._fd)
        return self.offset

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


#: the journal's one line encoder (NumPy scalars/arrays and everything
#: repr-able fall back to :func:`~repro.utils.records.to_jsonable`)
_ENCODER = json.JSONEncoder(sort_keys=True, default=to_jsonable)

#: the encoder's C core, made once with the encoder's own settings:
#: ``_ENCODER.encode`` builds one per call, which costs more than encoding
#: a small value.  No cycle check — a journal value is a tree.
_C_ENCODE = c_make_encoder and c_make_encoder(
    None,
    _ENCODER.default,
    encode_basestring_ascii,
    _ENCODER.indent,
    _ENCODER.key_separator,
    _ENCODER.item_separator,
    _ENCODER.sort_keys,
    _ENCODER.skipkeys,
    _ENCODER.allow_nan,
)


def encode_value(value) -> str:
    """``value``'s JSON text exactly as the journal's encoder writes it
    inside a line — the pieces of a line rendered without a payload dict."""
    if _C_ENCODE is None:  # pragma: no cover - Python without _json
        return _ENCODER.encode(value)
    return "".join(_C_ENCODE(value, 0))


class EventJournal:
    """Writer for one run's ``journal.jsonl``.

    Sequence numbers are monotonically increasing per journal; a resumed
    run continues from the last complete event's ``seq`` (see
    :meth:`open_resume`).  The writer is thread-safe — a traced run
    through a sharded ``RemotePPAEngine`` journals its request spans from
    the engine's ``max_inflight`` fan-out threads.
    """

    def __init__(self, path: Union[str, pathlib.Path], fsync: bool = False):
        self.path = pathlib.Path(path)
        self._next_seq = 0
        self._lock = threading.Lock()
        self._log = AppendLog(self.path, fsync=fsync)

    @classmethod
    def open_resume(
        cls,
        path: Union[str, pathlib.Path],
        fsync: bool = False,
        scan: Optional[JournalScan] = None,
    ) -> "EventJournal":
        """Open an existing journal, continuing its sequence numbering.

        If the journal carries crash damage (a partial final line, or
        corruption that :func:`read_events` would stop at), the file is
        first truncated back to the end of its last complete line —
        otherwise the next ``O_APPEND`` write would weld onto the partial
        bytes and form one malformed line, poisoning every later event.
        A ``scan`` the caller cut shorter (a resume keeps the journal up
        to its last ``iteration_state``) is where the file is cut instead.
        """
        journal = cls(path, fsync=fsync)
        journal._next_seq = journal._log.open(scan).last_seq + 1
        return journal

    # ------------------------------------------------------------------ write
    def append_many(
        self, event_type: str, payloads: Iterable[Optional[Dict]]
    ) -> int:
        """Write one event per payload as one group; returns the first ``seq``.

        The group's events take consecutive sequence numbers, each is its
        own whole line, and all lines reach the file in one ``os.write``
        (one ``fsync`` when on) under one lock hold — so concurrent
        writers interleave whole groups and file order is ``seq`` order.
        """
        if event_type not in EVENT_TYPES:
            raise TrackingError(
                f"unknown event type {event_type!r}; use one of {EVENT_TYPES}"
            )
        with self._lock:
            first = self._next_seq
            lines = []
            for payload in payloads:
                record = {"type": event_type}
                if payload:
                    record.update(payload)
                record["seq"] = first + len(lines)
                lines.append(_ENCODER.encode(record))
            if lines:
                self._log.write(("\n".join(lines) + "\n").encode("utf-8"))
                self._next_seq = first + len(lines)
            return first

    def append_framed(self, frames: Iterable[Tuple[str, str]]) -> int:
        """Write pre-rendered lines as one group; returns the first ``seq``.

        Each frame is one line's JSON text cut where its ``seq`` value goes,
        ``(prefix, suffix)``: the line is ``prefix + str(seq) + suffix``,
        and the caller owns it being what :meth:`append_many` would write
        (sorted keys, ``type`` included).  Numbering, the one write and the
        one lock hold are :meth:`append_many`'s.
        """
        with self._lock:
            first = seq = self._next_seq
            lines = []
            for prefix, suffix in frames:
                lines.append(f"{prefix}{seq}{suffix}\n")
                seq += 1
            if lines:
                self._log.write("".join(lines).encode("utf-8"))
                self._next_seq = seq
            return first

    def append(self, event_type: str, payload: Optional[Dict] = None) -> int:
        """Write one event atomically; returns its sequence number."""
        return self.append_many(event_type, (payload,))

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- read
def scan_bytes(raw: bytes, base_offset: int) -> JournalScan:
    """Parse journal bytes that start at ``base_offset`` on a line boundary.

    The one scanner under every reader of a line-appended JSONL file —
    :func:`read_events`, :func:`read_events_from`, :func:`read_tail_events`
    and the hub's SSE pump: stops at the first malformed
    or unterminated line and reports it as a truncated tail.
    """
    scan = JournalScan(start_offset=base_offset, valid_bytes=base_offset)
    if not raw:
        return scan
    lines = raw.split(b"\n")
    # a journal written exclusively via atomic line appends ends with "\n";
    # anything after the final newline is a partial (crashed) write
    complete, tail = lines[:-1], lines[-1]
    if tail:
        scan.truncated_tail = True
    for line in complete:
        if not line.strip():
            scan.valid_bytes += len(line) + 1
            continue
        try:
            event = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # corruption mid-file: everything after it is untrustworthy
            scan.truncated_tail = True
            break
        scan.events.append(event)
        scan.valid_bytes += len(line) + 1
        scan.event_offsets.append(scan.valid_bytes)
    if scan.events:
        scan.last_seq = int(scan.events[-1].get("seq", len(scan.events) - 1))
    return scan


def read_bytes_from(path: Union[str, pathlib.Path], offset: int) -> bytes:
    """Raw journal bytes from a byte-offset cursor to the current end of file.

    An ``offset`` at or past the end yields ``b""`` (nothing new yet) — it
    is NOT an error, because a reader's cursor may race an in-flight
    append.  Raises :class:`TrackingError` for a missing file.
    """
    if offset < 0:
        raise TrackingError(f"journal offset must be >= 0, got {offset}")
    path = pathlib.Path(path)
    if not path.exists():
        raise TrackingError(f"journal {path} does not exist")
    with open(path, "rb") as handle:
        handle.seek(offset)
        return handle.read()


def read_events_from(
    path: Union[str, pathlib.Path], offset: int
) -> JournalScan:
    """Read a journal from a byte-offset cursor (an event-line boundary).

    The incremental read behind live tailing: a caller that consumed a
    scan up to ``scan.valid_bytes`` passes that offset back to receive
    only the events appended since.  Corruption confined to the tail is
    expected after a kill and is reported through
    :attr:`JournalScan.truncated_tail`; only a missing file raises.
    """
    return scan_bytes(read_bytes_from(path, offset), offset)


def read_events(path: Union[str, pathlib.Path]) -> JournalScan:
    """Read a whole journal, tolerating a crash-truncated final line."""
    return read_events_from(path, 0)


def journal_events_since(
    path: Union[str, pathlib.Path], offset: int
) -> Tuple[List[Tuple[bytes, int, Dict]], JournalScan]:
    """Complete journal events past ``offset`` as ``(raw_line, end, event)``.

    ``raw_line`` is the exact bytes of the journal line (no trailing
    newline) — an SSE ``data:`` payload; ``end`` is the byte offset just
    past the line — an SSE ``id:``.  The returned scan carries
    ``valid_bytes`` (the next cursor) and ``truncated_tail`` exactly as
    :func:`read_events_from` would.
    """
    raw = read_bytes_from(path, offset)
    scan = scan_bytes(raw, offset)
    frames: List[Tuple[bytes, int, Dict]] = []
    previous = offset
    for event, end in zip(scan.events, scan.event_offsets):
        # strip() tolerates blank filler lines the scanner skipped over;
        # journal lines themselves are single-line JSON objects
        line = raw[previous - offset : end - offset - 1].strip()
        frames.append((line, end, event))
        previous = end
    return frames, scan


def follow_journal(
    path: pathlib.Path, cursor: int, finished: Callable[[], bool], poll_s: float
) -> Iterator[List[Tuple[bytes, int, Dict]]]:
    """A live run's journal past ``cursor``: one list of
    :func:`journal_events_since` frames per poll, empty when the poll
    found nothing (a file not written yet is empty too).

    Ends once ``finished()`` — the run's status is terminal — held on an
    earlier poll and a later poll drains nothing: every event written
    before the status flipped is out by then, even one appended between
    a poll and the status read after it.  Sleeps ``poll_s`` after a poll
    that drained nothing.
    """
    finished_before = False
    while True:
        frames: List[Tuple[bytes, int, Dict]] = []
        if path.exists():
            frames, scan = journal_events_since(path, cursor)
            cursor = scan.valid_bytes
        if finished_before and not frames:
            return
        yield frames
        finished_before = finished()
        if not frames:
            time.sleep(poll_s)


def read_tail_events(
    path: Union[str, pathlib.Path],
    limit: int,
    event_type: Optional[str] = None,
) -> JournalScan:
    """Bounded tail read: the last ``limit`` events without an O(file) scan.

    Reads a window of bytes from the end of the journal (doubling it until
    ``limit`` matching events are found or the window covers the whole
    file), so tailing a multi-gigabyte journal costs a few chunk reads
    instead of parsing every line.  ``event_type`` filters before the
    limit is applied, matching ``repro runs tail --type``.

    The returned scan's :attr:`JournalScan.events` hold only the final
    ``limit`` matching events (sequence numbers are therefore not
    contiguous from 0); :attr:`JournalScan.truncated_tail` reports a
    partial/corrupt final line exactly like a full scan would.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise TrackingError(f"journal {path} does not exist")
    if limit < 0:
        raise TrackingError(f"tail limit must be >= 0, got {limit}")
    size = path.stat().st_size
    window = TAIL_WINDOW
    while True:
        start = max(0, size - window)
        raw = read_bytes_from(path, start)
        if start > 0:
            newline = raw.find(b"\n")
            if newline < 0:
                # no complete line inside the window: widen and retry
                window *= 2
                continue
            start += newline + 1
            raw = raw[newline + 1:]
        scan = scan_bytes(raw, start)
        if event_type is None:
            keep = list(range(len(scan.events)))
        else:
            keep = [
                i for i, e in enumerate(scan.events)
                if e.get("type") == event_type
            ]
        if len(keep) >= limit or start == 0:
            keep = keep[-limit:] if limit else []
            scan.events = [scan.events[i] for i in keep]
            scan.event_offsets = [scan.event_offsets[i] for i in keep]
            scan.last_seq = (
                int(scan.events[-1].get("seq", -1)) if scan.events else -1
            )
            return scan
        window *= 2


def last_state_end(raw: bytes, cut: Optional[int] = None) -> int:
    """Byte offset just past the last complete ``iteration_state`` line.

    ``raw`` is a journal from its first byte, read up to ``cut`` (default:
    all of it); a line counts when its newline lies before the cut.  0 when
    there is none.  This is where a resume cuts a journal back to: what
    follows is the uncommitted part of an iteration, re-run from the state.
    """
    end = len(raw) if cut is None else cut
    while True:
        at = raw.rfind(_STATE_MARKER, 0, end)
        if at < 0:
            return 0
        newline = raw.find(b"\n", at, end)
        if newline >= 0:
            return newline + 1
        end = at  # the marker's line is the partial one the cut tore


def verify_sequence(scan: JournalScan) -> None:
    """Assert the scan's events carry contiguous sequence numbers from 0."""
    for expected, event in enumerate(scan.events):
        seq = event.get("seq")
        if seq != expected:
            raise TrackingError(
                f"journal sequence broken at position {expected}: "
                f"expected seq {expected}, found {seq!r}"
            )


__all__ = [
    "EVENT_TYPES",
    "JOURNAL_VERSION",
    "AppendLog",
    "EventJournal",
    "JournalScan",
    "encode_value",
    "follow_journal",
    "journal_events_since",
    "last_state_end",
    "read_bytes_from",
    "read_events",
    "read_events_from",
    "read_tail_events",
    "scan_bytes",
    "verify_sequence",
]
