"""The hub's HTTP control plane: run lifecycle, live SSE, fleet metrics.

One :class:`HubServer` fronts a :class:`~repro.tracking.RunStore` (via a
:class:`~repro.hub.scheduler.RunScheduler`) and, optionally, a replica
fleet (via a :class:`~repro.hub.aggregate.FleetAggregator`):

========================  ====================================================
``GET  /health``          liveness + run/queue counts
``GET  /runs``            run list (condensed manifests) + scheduler state
``POST /runs``            submit a run spec (or ``{"resume": "<run-id>"}``)
``GET  /runs/<id>``       full manifest
``POST /runs/<id>/cancel``cancel queued/running run
``GET  /runs/<id>/events``live journal stream (Server-Sent Events)
``GET  /metrics``         the hub's own registry (``?format=prom`` for text)
``GET  /fleet/metrics``   aggregated fleet exposition (Prometheus text)
``GET  /fleet/status``    structured fleet health (JSON, for ``--watch``)
``GET  /alerts``          active/ historical SLO alerts + rules (telemetry)
``GET  /alerts/events``   live alert-transition stream (Server-Sent Events)
``GET  /obs/targets``     telemetry store targets
``GET  /obs/query``       windowed query over one series (rate/quantile/...)
``GET  /obs/export``      raw samples of one target past a byte cursor
========================  ====================================================

The ``/alerts*`` and ``/obs/*`` rows exist only when the hub was started
with ``telemetry=True`` — a :class:`~repro.hub.telemetry.TelemetryPipeline`
scraping the fleet on an interval into a
:class:`~repro.obs.timeseries.MetricsStore` under the run store
(``<runs>/obs/`` by default) and evaluating SLO rules each tick.

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

Graceful shutdown mirrors :class:`~repro.costmodel.service.PPAServiceServer`:
draining answers new requests with a fast 503 while in-flight ones
finish; open SSE streams notice the drain flag at their next poll and
close themselves so ``stop()`` never deadlocks on a live stream.
"""

from __future__ import annotations

import json
import pathlib
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError, TrackingError
from repro.hub.aggregate import FleetAggregator
from repro.hub.scheduler import TERMINAL_STATUSES, RunScheduler
from repro.hub.sse import (
    format_sse_comment,
    format_sse_event,
    journal_events_since,
)
from repro.hub.telemetry import TelemetryPipeline
from repro.obs.alerts import Rule
from repro.obs.prom import render_prometheus
from repro.tracking.store import RunStore
from repro.utils.metrics import MetricsRegistry

__all__ = ["HubServer"]

#: Version of the hub's JSON responses; bumped on shape changes.
HUB_SCHEMA_VERSION = 1

#: manifest keys surfaced by ``GET /runs`` (the condensed listing)
_LIST_KEYS = (
    "status", "method", "scenario", "workload", "preset", "seed",
    "created_at", "submitted_via", "resumable", "interrupted",
)


class HubServer:
    """Serve the control plane on localhost; use as a context manager."""

    def __init__(
        self,
        store: Union[RunStore, str, pathlib.Path],
        replica_urls: Optional[List[str]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        sse_poll_interval_s: float = 0.05,
        sse_keepalive_s: float = 15.0,
        reconcile_on_start: bool = True,
        telemetry: bool = False,
        scrape_interval_s: float = 2.0,
        obs_dir: Optional[Union[str, pathlib.Path]] = None,
        alert_rules: Optional[List[Rule]] = None,
    ):
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scheduler = RunScheduler(self.store, metrics=self.metrics)
        self.aggregator = (
            FleetAggregator(replica_urls, metrics=self.metrics)
            if replica_urls
            else None
        )
        self.telemetry: Optional[TelemetryPipeline] = None
        if telemetry:
            self.telemetry = TelemetryPipeline(
                replica_urls=replica_urls,
                store=(
                    pathlib.Path(obs_dir)
                    if obs_dir is not None
                    else self.store.root / "obs"
                ),
                rules=alert_rules,
                interval_s=scrape_interval_s,
                metrics=self.metrics,
                hub_sampler=self._sample_scheduler,
                run_source=self._running_run_journals,
            )
        self.sse_poll_interval_s = sse_poll_interval_s
        self.sse_keepalive_s = sse_keepalive_s
        self.reconcile_on_start = reconcile_on_start
        self._draining = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._httpd = ThreadingHTTPServer((host, port), self._make_handler())
        self._thread: Optional[threading.Thread] = None

    # -- telemetry taps ----------------------------------------------------------
    def _sample_scheduler(self) -> Dict[str, float]:
        """The hub's own per-tick gauges for the telemetry ``hub`` target."""
        state = self.scheduler.state()
        return {
            "hub_queue_depth": float(len(state["queued"])),
            "hub_running": 1.0 if state["running"] else 0.0,
        }

    def _running_run_journals(self):
        """``(run_id, journal_path)`` of the currently running run, if any."""
        run_id = self.scheduler.state()["running"]
        if not run_id:
            return []
        try:
            return [(run_id, self.store.get(run_id).journal_path)]
        except TrackingError:
            return []

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "HubServer":
        if self.reconcile_on_start:
            self.scheduler.reconcile()
        self.scheduler.start()
        if self.telemetry is not None:
            self.telemetry.start()
        # shutdown() waits out one poll of the accept loop (stdlib
        # default 0.5 s), so every stop and test teardown costs one poll
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        with self._inflight_cv:
            self._draining = True

    def drain(self, timeout_s: float = 5.0) -> bool:
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout_s
            )

    def stop(self, drain_timeout_s: float = 5.0) -> None:
        """Drain requests (SSE streams self-close), stop scheduler + listener."""
        self.begin_drain()
        self.drain(timeout_s=drain_timeout_s)
        self.scheduler.stop()
        if self.telemetry is not None:
            self.telemetry.stop()
        if self.aggregator is not None:
            self.aggregator.close()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def install_signal_handlers(
        self,
        drain_timeout_s: float = 5.0,
        on_stopped: Optional[Callable[[], None]] = None,
    ) -> None:
        """SIGTERM/SIGINT → graceful drain + shutdown (must run on main thread)."""

        def _handle(signum, frame):  # noqa: ARG001 - signal handler signature
            self.begin_drain()

            def _shutdown() -> None:
                self.stop(drain_timeout_s=drain_timeout_s)
                if on_stopped is not None:
                    on_stopped()

            threading.Thread(target=_shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def __enter__(self) -> "HubServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- handler ----------------------------------------------------------------
    def _make_handler(self):
        server = self
        metrics = self.metrics

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body flush as separate small writes; with Nagle
            # on, the second write waits ~40ms for the client's delayed
            # ACK of the first on every keep-alive exchange
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # silence request logging
                pass

            def _begin_request(self) -> bool:
                with server._inflight_cv:
                    if server._draining:
                        return False
                    server._inflight += 1
                    return True

            def _end_request(self) -> None:
                with server._inflight_cv:
                    server._inflight -= 1
                    server._inflight_cv.notify_all()

            def _reject_draining(self) -> None:
                length = int(self.headers.get("Content-Length", 0))
                if length:
                    self.rfile.read(length)
                self._reply(503, {"error": "hub draining"})

            def _count(self, path: str, status: int) -> None:
                metrics.counter(f"hub_requests_total[{path}]").inc()
                if status >= 400:
                    metrics.counter("hub_errors_total").inc()

            def _reply(self, status: int, payload: Dict) -> None:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                # count before the body leaves the socket: once the client
                # has the reply it may immediately scrape /metrics, and the
                # request that produced the reply must already be there
                self._count(urlsplit(self.path).path, status)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _reply_text(self, status: int, text: str) -> None:
                body = text.encode("utf-8")
                self._count(urlsplit(self.path).path, status)
                self.send_response(status)
                self.send_header("Content-Type", "text/plain; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            # ---------------------------------------------------------- routing
            def do_GET(self):
                if not self._begin_request():
                    self._reject_draining()
                    return
                try:
                    self._route_get()
                finally:
                    self._end_request()

            def do_POST(self):
                if not self._begin_request():
                    self._reject_draining()
                    return
                try:
                    self._route_post()
                finally:
                    self._end_request()

            def _route_get(self):
                parsed = urlsplit(self.path)
                query = parse_qs(parsed.query)
                parts = [p for p in parsed.path.split("/") if p]
                start = time.perf_counter()
                try:
                    if parsed.path == "/health":
                        self._get_health()
                    elif parsed.path == "/metrics":
                        self._get_metrics(query)
                    elif parsed.path == "/runs":
                        self._get_runs()
                    elif parsed.path == "/fleet/metrics":
                        self._get_fleet_metrics()
                    elif parsed.path == "/fleet/status":
                        self._get_fleet_status()
                    elif parsed.path == "/alerts":
                        self._get_alerts()
                    elif parsed.path == "/alerts/events":
                        self._stream_alerts(query)
                        return  # SSE does its own accounting/timing
                    elif parsed.path == "/obs/targets":
                        self._get_obs_targets()
                    elif parsed.path == "/obs/query":
                        self._get_obs_query(query)
                    elif parsed.path == "/obs/export":
                        self._get_obs_export(query)
                    elif len(parts) == 2 and parts[0] == "runs":
                        self._get_run(parts[1])
                    elif (
                        len(parts) == 3
                        and parts[0] == "runs"
                        and parts[2] == "events"
                    ):
                        self._stream_events(parts[1], query)
                        return  # SSE does its own accounting/timing
                    else:
                        self._reply(404, {"error": f"unknown path {self.path}"})
                except TrackingError as error:
                    self._reply(404, {"error": str(error)})
                except Exception as error:  # always answer with JSON
                    self._reply(
                        500,
                        {"error": f"internal error: "
                                  f"{type(error).__name__}: {error}"},
                    )
                finally:
                    metrics.histogram("hub_request_seconds").observe(
                        time.perf_counter() - start
                    )

            def _route_post(self):
                parsed = urlsplit(self.path)
                parts = [p for p in parsed.path.split("/") if p]
                length = int(self.headers.get("Content-Length", 0))
                try:
                    request = (
                        json.loads(self.rfile.read(length)) if length else {}
                    )
                except json.JSONDecodeError:
                    self._reply(400, {"error": "invalid JSON"})
                    return
                try:
                    if parsed.path == "/runs":
                        self._post_run(request)
                    elif (
                        len(parts) == 3
                        and parts[0] == "runs"
                        and parts[2] == "cancel"
                    ):
                        self._post_cancel(parts[1])
                    else:
                        self._reply(404, {"error": f"unknown path {self.path}"})
                except ConfigurationError as error:
                    self._reply(400, {"error": str(error)})
                except TrackingError as error:
                    self._reply(409, {"error": str(error)})
                except Exception as error:
                    self._reply(
                        500,
                        {"error": f"internal error: "
                                  f"{type(error).__name__}: {error}"},
                    )

            # -------------------------------------------------------- endpoints
            def _get_health(self):
                state = server.scheduler.state()
                self._reply(
                    200,
                    {
                        "status": "ok",
                        "schema_version": HUB_SCHEMA_VERSION,
                        "runs": len(server.store.list_runs()),
                        "queued": len(state["queued"]),
                        "running": state["running"],
                        "fleet_replicas": (
                            len(server.aggregator.replica_names)
                            if server.aggregator is not None
                            else 0
                        ),
                    },
                )

            def _get_metrics(self, query):
                wants = query.get("format", ["json"])
                if wants and wants[-1] == "prom":
                    self._reply_text(
                        200, render_prometheus(metrics.snapshot())
                    )
                    return
                self._reply(
                    200,
                    {
                        "schema_version": HUB_SCHEMA_VERSION,
                        "metrics": metrics.snapshot(),
                    },
                )

            def _get_runs(self):
                rows = []
                for run in sorted(
                    server.store.list_runs(), key=lambda r: r.run_id
                ):
                    try:
                        manifest = run.read_manifest()
                    except TrackingError:
                        manifest = {"status": "corrupt-manifest"}
                    row = {"run_id": run.run_id}
                    for key in _LIST_KEYS:
                        if key in manifest:
                            row[key] = manifest[key]
                    rows.append(row)
                self._reply(
                    200,
                    {"runs": rows, "scheduler": server.scheduler.state()},
                )

            def _get_run(self, run_id: str):
                run = server.store.get(run_id)
                self._reply(200, run.read_manifest())

            def _post_run(self, request: Dict):
                if "resume" in request:
                    run_id = server.scheduler.submit_resume(
                        str(request["resume"])
                    )
                else:
                    run_id = server.scheduler.submit(request)
                self._reply(200, {"run_id": run_id, "status": "queued"})

            def _post_cancel(self, run_id: str):
                status = server.scheduler.cancel(run_id)
                self._reply(200, {"run_id": run_id, "status": status})

            def _get_fleet_metrics(self):
                if server.aggregator is None:
                    self._reply(404, {"error": "hub has no fleet configured"})
                    return
                scrapes = server.aggregator.scrape()
                self._reply_text(200, server.aggregator.merge(scrapes))

            def _get_fleet_status(self):
                if server.aggregator is None:
                    self._reply(404, {"error": "hub has no fleet configured"})
                    return
                status = server.aggregator.status()
                status["schema_version"] = HUB_SCHEMA_VERSION
                self._reply(200, status)

            # -------------------------------------------------------- telemetry
            def _telemetry_or_404(self):
                if server.telemetry is None:
                    self._reply(
                        404,
                        {"error": "hub has no telemetry pipeline "
                                  "(start with telemetry enabled)"},
                    )
                    return None
                return server.telemetry

            def _get_alerts(self):
                pipeline = self._telemetry_or_404()
                if pipeline is None:
                    return
                payload = pipeline.status()
                payload["schema_version"] = HUB_SCHEMA_VERSION
                self._reply(200, payload)

            def _get_obs_targets(self):
                pipeline = self._telemetry_or_404()
                if pipeline is None:
                    return
                self._reply(
                    200,
                    {
                        "schema_version": HUB_SCHEMA_VERSION,
                        "targets": pipeline.store.targets(),
                    },
                )

            def _get_obs_query(self, query: Dict):
                pipeline = self._telemetry_or_404()
                if pipeline is None:
                    return
                target = query.get("target", [None])[-1]
                series = query.get("series", [None])[-1]
                if not target or not series:
                    self._reply(
                        400, {"error": "query needs target= and series="}
                    )
                    return
                fn = query.get("fn", ["last"])[-1]
                try:
                    window_s = float(query.get("window_s", ["60"])[-1])
                    q_raw = query.get("q", [None])[-1]
                    q = float(q_raw) if q_raw is not None else None
                except ValueError:
                    self._reply(400, {"error": "bad window_s= or q="})
                    return
                try:
                    value = pipeline.store.query(
                        target, series, fn=fn, window_s=window_s, q=q
                    )
                except TrackingError as error:
                    # a bad fn / window is the caller's mistake, not a
                    # missing resource — don't let the outer 404 eat it
                    self._reply(400, {"error": str(error)})
                    return
                self._reply(
                    200,
                    {
                        "schema_version": HUB_SCHEMA_VERSION,
                        "target": target,
                        "series": series,
                        "fn": fn,
                        "window_s": window_s,
                        "value": value,
                    },
                )

            def _get_obs_export(self, query: Dict):
                pipeline = self._telemetry_or_404()
                if pipeline is None:
                    return
                target = query.get("target", [None])[-1]
                if not target:
                    self._reply(400, {"error": "export needs target="})
                    return
                try:
                    after = int(query.get("after", ["0"])[-1])
                except ValueError:
                    self._reply(400, {"error": "bad after= cursor"})
                    return
                samples, scan = pipeline.store.read_from(target, after)
                self._reply(
                    200,
                    {
                        "schema_version": HUB_SCHEMA_VERSION,
                        "target": target,
                        "samples": [
                            {"t": t, "s": series} for t, series in samples
                        ],
                        "cursor": scan.valid_bytes,
                        "truncated_tail": scan.truncated_tail,
                    },
                )

            def _stream_alerts(self, query: Dict):
                pipeline = self._telemetry_or_404()
                if pipeline is None:
                    return
                journal = pipeline.alerts_journal_path
                if journal is None:
                    self._reply(
                        404,
                        {"error": "telemetry store is memory-only; "
                                  "no alert journal to stream"},
                    )
                    return
                cursor = 0
                last_id = self.headers.get("Last-Event-ID")
                after = query.get("after", [None])[-1]
                for raw in (last_id, after):
                    if raw is not None:
                        try:
                            cursor = max(cursor, int(raw))
                        except ValueError:
                            self._reply(
                                400, {"error": f"bad cursor {raw!r}"}
                            )
                            return
                metrics.counter("hub_sse_streams_total").inc()
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-cache")
                self.send_header("Connection", "close")
                self.end_headers()
                self.close_connection = True
                self._count("/alerts/events", 200)
                try:
                    self._pump_alerts(journal, cursor)
                except (BrokenPipeError, ConnectionResetError, OSError):
                    pass  # client went away; the cursor makes resume exact

            def _pump_alerts(
                self, journal: pathlib.Path, cursor: int
            ) -> None:
                """Stream alert transitions until the hub drains.

                Unlike a run stream there is no terminal status — the
                alert journal outlives every run — so only the drain
                flag ends the stream (with a comment frame, so clients
                can tell shutdown from a dropped connection).
                """
                last_activity = time.monotonic()
                while True:
                    progressed = False
                    if journal.exists():
                        frames, scan = journal_events_since(journal, cursor)
                        for line, end, event in frames:
                            self.wfile.write(
                                format_sse_event(
                                    line.decode("utf-8"),
                                    event_id=end,
                                    event=str(event.get("type", "alert")),
                                )
                            )
                            metrics.counter("hub_sse_events_total").inc()
                        if frames:
                            self.wfile.flush()
                            progressed = True
                            last_activity = time.monotonic()
                        cursor = scan.valid_bytes
                    if server._draining:
                        self.wfile.write(format_sse_comment("hub draining"))
                        self.wfile.flush()
                        return
                    if not progressed:
                        if (
                            time.monotonic() - last_activity
                            >= server.sse_keepalive_s
                        ):
                            self.wfile.write(format_sse_comment())
                            self.wfile.flush()
                            last_activity = time.monotonic()
                        time.sleep(server.sse_poll_interval_s)

            # -------------------------------------------------------------- SSE
            def _stream_events(self, run_id: str, query: Dict):
                run = server.store.get(run_id)  # TrackingError → 404 above
                cursor = 0
                resumed = False
                last_id = self.headers.get("Last-Event-ID")
                after = query.get("after", [None])[-1]
                for raw in (last_id, after):
                    if raw is not None:
                        try:
                            cursor = max(cursor, int(raw))
                            resumed = True
                        except ValueError:
                            self._reply(
                                400, {"error": f"bad cursor {raw!r}"}
                            )
                            return
                metrics.counter("hub_sse_streams_total").inc()
                if resumed:
                    metrics.counter("hub_sse_resumes_total").inc()
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-cache")
                # the stream's length is unknowable: end-of-body is
                # connection close, so keep-alive must be off
                self.send_header("Connection", "close")
                self.end_headers()
                self.close_connection = True
                self._count(f"/runs/{run_id}/events", 200)
                try:
                    self._pump_events(run, cursor)
                except (BrokenPipeError, ConnectionResetError, OSError):
                    pass  # client went away; the cursor makes resume exact

            def _pump_events(self, run, cursor: int) -> None:
                journal = run.journal_path
                last_activity = time.monotonic()
                terminal_seen = False
                while True:
                    progressed = False
                    if journal.exists():
                        frames, scan = journal_events_since(journal, cursor)
                        for line, end, event in frames:
                            self.wfile.write(
                                format_sse_event(
                                    line.decode("utf-8"),
                                    event_id=end,
                                    event=str(event.get("type", "event")),
                                )
                            )
                            metrics.counter("hub_sse_events_total").inc()
                        if frames:
                            self.wfile.flush()
                            progressed = True
                            last_activity = time.monotonic()
                        cursor = scan.valid_bytes
                    if terminal_seen and not progressed:
                        # terminal status was observed on a *previous*
                        # poll, and this poll drained nothing new — every
                        # event written before the status flip is out
                        self.wfile.write(
                            format_sse_event(
                                json.dumps(
                                    {"status": self._run_status(run)},
                                    sort_keys=True,
                                ),
                                event="end_of_stream",
                            )
                        )
                        self.wfile.flush()
                        return
                    if server._draining:
                        self.wfile.write(format_sse_comment("hub draining"))
                        self.wfile.flush()
                        return
                    terminal_seen = self._run_status(run) in TERMINAL_STATUSES
                    if not progressed:
                        if (
                            time.monotonic() - last_activity
                            >= server.sse_keepalive_s
                        ):
                            self.wfile.write(format_sse_comment())
                            self.wfile.flush()
                            last_activity = time.monotonic()
                        time.sleep(server.sse_poll_interval_s)

            @staticmethod
            def _run_status(run) -> Optional[str]:
                try:
                    return run.read_manifest().get("status")
                except TrackingError:
                    return None

        return Handler
