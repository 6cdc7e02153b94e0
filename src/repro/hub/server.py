"""The hub's HTTP control plane: run lifecycle, live SSE, fleet metrics.

One :class:`HubServer` fronts a :class:`~repro.tracking.store.RunStore` (via a
:class:`~repro.hub.scheduler.RunScheduler`) and, optionally, a replica
fleet (via one :class:`~repro.hub.aggregate.FleetAggregator`, so one
connection pool per replica):

========================  ====================================================
``GET  /health``          liveness + run/queue counts
``GET  /runs``            run list (condensed manifests) + scheduler state
``POST /runs``            submit a run spec (or ``{"resume": "<run-id>"}``)
``GET  /runs/<id>``       full manifest
``POST /runs/<id>/cancel``cancel queued/running run
``GET  /runs/<id>/events``live journal stream (Server-Sent Events)
``GET  /metrics``         the hub's own registry (``?format=prom`` for text)
``GET  /fleet/metrics``   aggregated fleet exposition (Prometheus text)
========================  ====================================================

``/fleet/metrics`` scrapes every replica when it is asked, and carries an
``up{replica="..."}`` sample (1 or 0) for each; ``repro fleet top --hub``
polls it.  The hub keeps no metrics history of its own.

The SSE endpoint implements exact-resume: every event's ``id:`` is the
byte offset just past its journal line, a reconnecting client sends
``Last-Event-ID: <offset>`` (or ``?after=<offset>``), and the server
seeks straight to that cursor — the stream across any number of
disconnects is byte-identical to a single post-hoc
:func:`~repro.tracking.journal.read_events` scan.  Streams end with an
``event: end_of_stream`` frame once the run's manifest reaches a
terminal status and the journal is fully drained (or when the server
itself starts draining), so clients can tell completion from a dropped
connection.

The rows above are this module's route table; the exchange, admission
and drain, request counting and signal handlers are the shared serving
core's (:mod:`repro.utils.httpcore`).  Open SSE streams notice the drain
flag at their next poll and close themselves, so ``stop()`` never
deadlocks on a live stream.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Callable, Dict, List, Optional, Union

from repro.errors import ConfigurationError, TrackingError
from repro.hub.aggregate import FleetAggregator
from repro.hub.scheduler import TERMINAL_STATUSES, RunScheduler
from repro.hub.sse import format_sse_comment, format_sse_event
from repro.tracking.journal import follow_journal
from repro.tracking.store import RunStore
from repro.utils.httpcore import (
    DRAIN_TIMEOUT_S,
    HttpServer,
    Reply,
    Request,
    Route,
    stream_reply,
    text_reply,
)
from repro.utils.metrics import MetricsRegistry

__all__ = ["HubServer"]

#: Version of the hub's JSON responses; bumped on shape changes.
HUB_SCHEMA_VERSION = 1

#: an idle SSE stream sends a keep-alive comment this often (seconds)
SSE_KEEPALIVE_S = 15.0

#: manifest keys surfaced by ``GET /runs`` (the condensed listing)
_LIST_KEYS = (
    "status", "method", "scenario", "workload", "preset", "seed",
    "created_at", "submitted_via", "resumable", "interrupted",
)


def _int(name: str, raw: str) -> int:
    """``raw`` as a byte cursor; a value that is not one is a 400."""
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"bad {name} {raw!r}") from None


class HubServer(HttpServer):
    """Serve the control plane on localhost; use as a context manager."""

    def __init__(
        self,
        store: Union[RunStore, str, pathlib.Path],
        replica_urls: Optional[List[str]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sse_poll_interval_s: float = 0.05,
        reconcile_on_start: bool = True,
    ):
        # what a raised exception answers with: an unknown run (or an
        # absent fleet) is a 404 to a reader, a 409 to a lifecycle command
        get = ((TrackingError, 404), (ConfigurationError, 400))
        post = ((ConfigurationError, 400), (TrackingError, 409))
        super().__init__(
            host,
            port,
            {
                ("GET", "/health"): Route(self._get_health, get, True),
                ("GET", "/metrics"): Route(self._get_metrics, get, True),
                ("GET", "/runs"): Route(self._get_runs, get, True),
                ("POST", "/runs"): Route(self._post_run, post),
                ("GET", "/runs/<id>"): Route(self._get_run, get, True),
                ("POST", "/runs/<id>/cancel"): Route(self._post_cancel, post),
                ("GET", "/runs/<id>/events"): Route(self._stream_events, get),
                ("GET", "/fleet/metrics"): Route(self._get_fleet_metrics, get, True),
            },
            MetricsRegistry(),
            prefix="hub",
            draining_error="hub draining",
        )
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.scheduler = RunScheduler(self.store, metrics=self.metrics)
        self.aggregator: Optional[FleetAggregator] = (
            FleetAggregator(replica_urls, metrics=self.metrics)
            if replica_urls
            else None
        )
        self.sse_poll_interval_s = sse_poll_interval_s
        self.reconcile_on_start = reconcile_on_start

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "HubServer":
        if self.reconcile_on_start:
            self.scheduler.reconcile()
        self.scheduler.start()
        return super().start()

    def stop(self) -> None:
        """Drain requests (SSE streams self-close), stop scheduler + listener."""
        self.begin_drain()
        self.drain(timeout_s=DRAIN_TIMEOUT_S)
        self.scheduler.stop()
        if self.aggregator is not None:
            self.aggregator.close()
        super().stop(drain_timeout_s=0.0)

    # -- endpoints --------------------------------------------------------------
    def _get_health(self, request: Request) -> Dict:
        state = self.scheduler.state()
        return {
            "status": "ok",
            "schema_version": HUB_SCHEMA_VERSION,
            "runs": len(self.store.list_runs()),
            "queued": len(state["queued"]),
            "running": state["running"],
            "fleet_replicas": (
                len(self.aggregator.replica_names) if self.aggregator else 0
            ),
        }

    def _get_metrics(self, request: Request):
        return self.metrics_reply(request, schema_version=HUB_SCHEMA_VERSION)

    def _get_runs(self, request: Request) -> Dict:
        rows = []
        for run in sorted(self.store.list_runs(), key=lambda r: r.run_id):
            try:
                manifest = run.read_manifest()
            except TrackingError:
                manifest = {"status": "corrupt-manifest"}
            row = {"run_id": run.run_id}
            for key in _LIST_KEYS:
                if key in manifest:
                    row[key] = manifest[key]
            rows.append(row)
        return {"runs": rows, "scheduler": self.scheduler.state()}

    def _get_run(self, request: Request) -> Dict:
        return self.store.get(request.params["id"]).read_manifest()

    def _post_run(self, request: Request) -> Dict:
        spec = request.json()
        if "resume" in spec:
            run_id = self.scheduler.submit_resume(str(spec["resume"]))
        else:
            run_id = self.scheduler.submit(spec)
        return {"run_id": run_id, "status": "queued"}

    def _post_cancel(self, request: Request) -> Dict:
        run_id = request.params["id"]
        return {"run_id": run_id, "status": self.scheduler.cancel(run_id)}

    def _fleet(self) -> FleetAggregator:
        if self.aggregator is None:
            raise TrackingError("hub has no fleet configured")
        return self.aggregator

    def _get_fleet_metrics(self, request: Request) -> Reply:
        fleet = self._fleet()
        return text_reply(200, fleet.merge(fleet.scrape()))

    # -- SSE ----------------------------------------------------------------------
    @staticmethod
    def _resume_cursor(request: Request) -> Optional[int]:
        """The byte cursor a stream resumes from (``Last-Event-ID`` header
        or ``?after=``, the larger); ``None`` for a stream from the start."""
        after = request.query.get("after")
        cursor = _int("after=", after[-1]) if after else None
        last_id = request.headers.get("last-event-id")
        if last_id is not None:
            cursor = max(cursor or 0, _int("Last-Event-ID", last_id))
        return cursor

    def _stream_events(self, request: Request) -> Reply:
        run = self.store.get(request.params["id"])
        cursor = self._resume_cursor(request)
        self.metrics.counter("hub_sse_streams_total").inc()
        if cursor is not None:
            self.metrics.counter("hub_sse_resumes_total").inc()

        def status() -> Optional[str]:
            try:
                return run.read_manifest().get("status")
            except TrackingError:
                return None

        return stream_reply(
            lambda write: self._pump_journal(
                write, run.journal_path, cursor or 0, status
            )
        )

    def _pump_journal(
        self,
        write: Callable[[bytes], object],
        journal: pathlib.Path,
        cursor: int,
        status: Callable[[], Optional[str]],
    ) -> None:
        """Stream a journal's lines past ``cursor`` as SSE frames.

        Ends with an ``end_of_stream`` frame once
        :func:`~repro.tracking.journal.follow_journal` ends (the run is
        terminal and its journal drained), or with a comment frame when
        the hub drains — so clients can tell completion and shutdown from
        a dropped connection.
        """
        last_activity = time.monotonic()
        for lines in follow_journal(
            journal,
            cursor,
            lambda: status() in TERMINAL_STATUSES,
            self.sse_poll_interval_s,
        ):
            if lines:
                write(
                    b"".join(
                        format_sse_event(
                            line.decode("utf-8"),
                            event_id=end,
                            event=str(event.get("type", "event")),
                        )
                        for line, end, event in lines
                    )
                )
                self.metrics.counter("hub_sse_events_total").inc(len(lines))
                last_activity = time.monotonic()
            if self.draining:
                write(format_sse_comment("hub draining"))
                return
            if not lines and time.monotonic() - last_activity >= SSE_KEEPALIVE_S:
                write(format_sse_comment())
                last_activity = time.monotonic()
        write(
            format_sse_event(
                json.dumps({"status": status()}, sort_keys=True),
                event="end_of_stream",
            )
        )
