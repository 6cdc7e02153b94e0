"""Experiment tracking: persistent run store, event journal, resume.

A tracked co-search leaves two durable artifacts in ``runs/<run-id>/``: a
``manifest.json`` identity card and an append-only ``journal.jsonl`` of
typed search events.  Each committed iteration ends with an
``iteration_state`` line, the optimizer's state, so the journal alone
makes a multi-day run inspectable (``repro runs show/tail/compare``),
comparable after the fact, and resumable after a crash (``repro runs
resume``).

This package is a bottom layer: it imports only ``repro.errors``,
``repro.utils`` and ``repro.version``.  Everything that knows how a run is
*built* — :class:`~repro.experiments.harness.RunSpec`, ``launch``,
``resume_run`` — lives above it in :mod:`repro.experiments.harness`, and
what a state line holds lives in :mod:`repro.core.checkpoint`.

* :class:`EventJournal` — crash-safe JSONL appends, tolerant reads,
* :class:`RunStore` / :class:`RunHandle` — run-directory ownership,
* :class:`Tracker` / :class:`JournalTracker` — the hook interface
  threaded through ``Unico.optimize()`` and the experiment harness,
* :func:`committed_journal` — the journal up to its last state line,
  where a resume cuts it back to; :func:`verify_run` /
  :func:`replay_iteration_records` read a run back.
"""

from repro.tracking.journal import (
    EVENT_TYPES,
    JOURNAL_VERSION,
    EventJournal,
    JournalScan,
    read_events,
    read_events_from,
    read_tail_events,
    verify_sequence,
)
from repro.tracking.store import RUN_STATUSES, RunHandle, RunStore
from repro.tracking.tracker import (
    JournalSampleSink,
    JournalTracker,
    NullTracker,
    Tracker,
    committed_iterations,
    committed_journal,
    replay_iteration_records,
    verify_run,
)

__all__ = [
    "EVENT_TYPES",
    "JOURNAL_VERSION",
    "RUN_STATUSES",
    "EventJournal",
    "JournalScan",
    "JournalSampleSink",
    "JournalTracker",
    "NullTracker",
    "RunHandle",
    "RunStore",
    "Tracker",
    "committed_iterations",
    "committed_journal",
    "read_events",
    "read_events_from",
    "read_tail_events",
    "replay_iteration_records",
    "verify_run",
    "verify_sequence",
]
