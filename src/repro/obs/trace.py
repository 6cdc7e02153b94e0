"""Hierarchical span tracing with dual wall/simulated timestamps.

UNICO's cost structure is intrinsically nested — MOBO iterations wrap MSH
rounds, which wrap anytime mapping searches, which wrap hundreds of
thousands of PPA queries — but flat counters cannot say *where* a
40-minute run spent its time.  This module provides the time-attribution
layer:

* :class:`Span` — one timed region with a name, typed attributes, and
  **dual timestamps**: real wall time (``time.perf_counter``) and the
  :class:`~repro.utils.clock.SimulatedClock` search cost, so a trace can
  answer both "where did the process burn CPU" and "where did the
  modeled search budget go".
* :class:`Tracer` — opens spans, maintains a thread-local context stack
  (children automatically parent to the innermost open span on the same
  thread), and fans finished spans out to pluggable :class:`SpanSink`\\ s.
* :class:`NullTracer` — the default everywhere; untraced hot paths pay a
  single ``tracer.enabled`` attribute check and nothing else.

Spans stay in the process that recorded them: a search through a
:class:`~repro.costmodel.service.RemotePPAEngine` traces its client-side
phases, and the replica's requests carry no trace context.

Tracing is observational by construction: spans never touch any RNG and
never read search state, so a traced run's results are bit-identical to
an untraced run with the same seeds.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional

#: Version stamped on every ``span`` journal event so future span schema
#: growth stays detectable by older readers.
SPAN_SCHEMA_VERSION = 1

# bound once: span enter/exit sit on the engine-evaluation hot path, where
# a traced run's overhead budget is single-digit microseconds per span
_perf_counter = time.perf_counter


class SpanSink:
    """Receiver of finished spans (as plain JSON-able dicts)."""

    def record(self, span: Dict) -> None:
        """Accept one finished span; must not mutate it."""


class InMemorySink(SpanSink):
    """Collects finished spans in a list — tests and ad-hoc profiling."""

    def __init__(self):
        self.spans: List[Dict] = []
        # hot path: bind record straight to list.append (one C call per
        # span instead of a Python frame)
        self.record = self.spans.append


class JournalSpanSink(SpanSink):
    """Appends finished spans into an :class:`~repro.tracking.journal.EventJournal`.

    Each span becomes one schema-versioned ``span`` event, so traces ride
    the same crash-safe, append-only artifact as the search's decision
    events and replay/resume tooling sees them as ordinary events.
    """

    def __init__(self, journal):
        self.journal = journal

    def record(self, span: Dict) -> None:
        """Write the span as a ``span`` journal event."""
        event = {"span_schema": SPAN_SCHEMA_VERSION}
        event.update(span)
        self.journal.append("span", event)


class Span:
    """One timed region; used as a context manager via :meth:`Tracer.span`.

    ``wall_*`` fields are ``time.perf_counter`` seconds (monotonic, so
    child intervals nest exactly inside their parents); ``sim_*`` fields
    are :class:`~repro.utils.clock.SimulatedClock` seconds when the
    tracer owns a clock, else 0.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "attrs",
        "wall_start", "wall_dur", "sim_start", "sim_dur",
        "thread", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.wall_start = 0.0
        self.wall_dur = 0.0
        self.sim_start = 0.0
        self.sim_dur = 0.0
        self.thread = threading.get_ident()
        self._tracer = tracer

    def set_attribute(self, key: str, value) -> None:
        """Attach one typed attribute (JSON-able value) to the span."""
        self.attrs[key] = value

    def to_dict(self) -> Dict:
        """JSON-able view of the finished span (the sink wire format)."""
        return {
            "name": self.name,
            "trace_id": self._tracer.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_start_s": self.wall_start,
            "wall_dur_s": self.wall_dur,
            "sim_start_s": self.sim_start,
            "sim_dur_s": self.sim_dur,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    # enter/exit inline the tracer's push/pop/emit steps: the extra method
    # dispatch is measurable at engine-evaluation frequency
    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._stack().append(self)
        clock = tracer.clock
        if clock is not None:
            self.sim_start = clock.now_s
        self.wall_start = _perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.wall_dur = _perf_counter() - self.wall_start
        tracer = self._tracer
        clock = tracer.clock
        if clock is not None:
            self.sim_dur = clock.now_s - self.sim_start
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misuse guard (out-of-order finish)
            try:
                stack.remove(self)
            except ValueError:
                pass
        span_dict = self.to_dict()
        for sink in tracer.sinks:
            sink.record(span_dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """Do-nothing span: the shared return value of :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_attribute(self, key: str, value) -> None:
        """Discard the attribute (tracing is disabled)."""


_NULL_SPAN = _NullSpan()


class Tracer:
    """Opens spans, tracks the per-thread context stack, feeds sinks.

    Parameters
    ----------
    clock:
        Optional :class:`~repro.utils.clock.SimulatedClock`; when given,
        every span also records the simulated seconds elapsed in its body.
    sinks:
        :class:`SpanSink` instances receiving every finished span.

    Every span carries the tracer's random hex ``trace_id``.
    """

    enabled = True

    def __init__(self, clock=None, sinks=()):
        self.clock = clock
        self.sinks: List[SpanSink] = list(sinks)
        self.trace_id = os.urandom(8).hex()
        # span ids must stay unique across the processes that append to one
        # journal (a run and its resume), hence the random per-tracer prefix
        self._id_prefix = os.urandom(3).hex()
        self._counter = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------ spans
    def _next_span_id(self) -> str:
        return f"{self._id_prefix}-{next(self._counter):x}"

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span(self, name: str, **attrs) -> Span:
        """Open a child span of the current thread's innermost span.

        Use as a context manager::

            with tracer.span("iteration", iteration=3) as span:
                ...
                span.set_attribute("pareto_size", 7)
        """
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        return Span(self, name, self._next_span_id(), parent_id, attrs)

    def record_leaf(
        self, name: str, wall_start: float, sim_start: float = 0.0, **attrs
    ) -> None:
        """Record an already-finished leaf span in one call.

        For work that cannot hold a :class:`Span` open on the context
        stack — the interleaved ``mapping_search`` spans of a lockstep MSH
        round.  Leaf spans never parent children, so the caller reads
        ``_perf_counter()`` (and ``tracer.clock.now_s`` when sim time
        matters) before the work and hands both here afterwards; the span
        dict is built and emitted directly.
        """
        wall_end = _perf_counter()
        stack = self._stack()
        clock = self.clock
        span_dict = {
            "name": name,
            "trace_id": self.trace_id,
            "span_id": f"{self._id_prefix}-{next(self._counter):x}",
            "parent_id": stack[-1].span_id if stack else None,
            "wall_start_s": wall_start,
            "wall_dur_s": wall_end - wall_start,
            "sim_start_s": sim_start,
            "sim_dur_s": (clock.now_s - sim_start) if clock is not None else 0.0,
            "thread": threading.get_ident(),
            "attrs": attrs,
        }
        for sink in self.sinks:
            sink.record(span_dict)


class NullTracer(Tracer):
    """The default tracer: observes nothing, costs one attribute check.

    ``span()`` hands back a shared do-nothing context manager, so even
    call sites that skip the ``tracer.enabled`` guard stay cheap.
    """

    enabled = False

    def __init__(self):
        super().__init__(clock=None, sinks=())
        self.trace_id = "0"

    def span(self, name: str, **attrs) -> _NullSpan:  # type: ignore[override]
        """Return the shared no-op span."""
        return _NULL_SPAN

    def record_leaf(
        self, name: str, wall_start: float, sim_start: float = 0.0, **attrs
    ) -> None:
        """No-op (tracing is disabled)."""


#: Shared disabled tracer — the default value of every ``tracer`` attribute.
NULL_TRACER = NullTracer()


__all__ = [
    "NULL_TRACER",
    "SPAN_SCHEMA_VERSION",
    "InMemorySink",
    "JournalSpanSink",
    "NullTracer",
    "Span",
    "SpanSink",
    "Tracer",
]
