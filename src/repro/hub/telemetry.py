"""The hub's telemetry pipeline: scrape → store → evaluate → alert.

One :class:`TelemetryPipeline` owns a background thread that, every
``interval_s``:

1. **scrapes** every fleet replica's strict-parsed ``/metrics`` (its
   :class:`~repro.hub.aggregate.FleetAggregator` — pooled keep-alive
   connections, parallel sweep; a hub serves ``/fleet/metrics`` through
   the same one);
2. **appends** one sample per target to the
   :class:`~repro.obs.timeseries.MetricsStore`: each replica under
   ``replica:<host:port>`` (always carrying an explicit ``up`` 0/1
   series, so a dead replica is a *recorded fact*, not a gap), a
   ``fleet`` target summing the live replicas' series, a ``hub`` target
   from the hub's own sampler (scheduler queue depth), and a
   ``run:<run-id>`` target from the latest ``search_health`` journal
   event of each running run (hypervolume, iteration, front size,
   screening escalations);
3. **evaluates** the SLO rules (:class:`~repro.obs.alerts.AlertManager`)
   against the store and **journals** every firing/resolved transition
   as a typed ``alert`` event in an :class:`~repro.tracking.EventJournal`
   next to the store — the byte-offset stream behind the hub's
   ``GET /alerts/events`` SSE endpoint;
4. periodically **compacts** the store per its retention policy.

``stop()`` is leak-free by construction: it joins the loop thread,
closes the aggregator's connection pools, the store's descriptors and
the alert journal — the shutdown-leak test in ``tests/hub`` holds it to
that.
"""

from __future__ import annotations

import pathlib
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import TrackingError
from repro.hub.aggregate import FleetAggregator
from repro.obs.alerts import AlertManager, Rule, builtin_rules
from repro.obs.timeseries import MetricsStore, flatten_families
from repro.tracking.journal import EventJournal, read_tail_events
from repro.utils.metrics import MetricsRegistry

__all__ = ["TelemetryPipeline", "replica_target"]

#: series summed into the ``fleet`` target are everything the replicas
#: report — the registry holds only counters and histogram components,
#: both of which sum meaningfully across replicas.


def replica_target(name: str) -> str:
    """Store target name for one replica (``host:port`` → ``replica:...``)."""
    return f"replica:{name}"


class TelemetryPipeline:
    """Hub-side scrape loop + metrics journal + SLO alerting.

    Parameters
    ----------
    replica_urls:
        Fleet replicas to scrape (may be empty: the pipeline still
        samples the hub and running runs).
    store:
        The sample store; a path creates a disk-backed
        :class:`MetricsStore`, ``None`` an in-memory one (``fleet top``).
    rules:
        SLO rules; defaults to :func:`~repro.obs.alerts.builtin_rules`
        scaled to ``interval_s``.
    hub_sampler:
        Zero-arg callable returning the hub's own gauge sample
        (``{"hub_queue_depth": ...}``) or ``None`` to skip the tick.
    run_source:
        Zero-arg callable yielding ``(run_id, journal_path)`` for runs
        whose ``search_health`` should be sampled (the hub wires the
        scheduler's running run here).
    """

    def __init__(
        self,
        replica_urls: Optional[Sequence[str]] = None,
        store: Optional[Union[MetricsStore, str, pathlib.Path]] = None,
        rules: Optional[Sequence[Rule]] = None,
        interval_s: float = 2.0,
        scrape_timeout_s: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
        hub_sampler: Optional[Callable[[], Optional[Dict[str, float]]]] = None,
        run_source: Optional[
            Callable[[], Iterable[Tuple[str, pathlib.Path]]]
        ] = None,
        history_limit: int = 256,
        compact_every_ticks: int = 0,
        retention_s: float = 7 * 86400.0,
    ):
        if interval_s <= 0.0:
            raise TrackingError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = (
            store
            if isinstance(store, MetricsStore)
            else MetricsStore(store)
        )
        self.aggregator = (
            FleetAggregator(
                list(replica_urls),
                timeout_s=scrape_timeout_s,
                metrics=self.metrics,
            )
            if replica_urls
            else None
        )
        self.hub_sampler = hub_sampler
        self.run_source = run_source
        self.compact_every_ticks = compact_every_ticks
        self.retention_s = retention_s
        self.rules = (
            list(rules) if rules is not None else builtin_rules(interval_s)
        )
        self.alerts = AlertManager(
            self.rules,
            on_transition=self._record_transition,
            history_limit=history_limit,
        )
        self._alert_journal: Optional[EventJournal] = None
        self._ticks = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- journal
    @property
    def alerts_journal_path(self) -> Optional[pathlib.Path]:
        if self.store.root is None:
            return None
        # ".journal", not ".jsonl": the store discovers targets by
        # globbing "*.jsonl" in its root, and the alert stream is not a
        # sample target
        return self.store.root / "alerts.journal"

    def _journal(self) -> Optional[EventJournal]:
        path = self.alerts_journal_path
        if path is None:
            return None
        if self._alert_journal is None:
            if path.exists():
                self._alert_journal = EventJournal.open_resume(path)
            else:
                self._alert_journal = EventJournal(path)
        return self._alert_journal

    def _record_transition(self, event: Dict) -> None:
        kind = event.get("state")
        if kind == "firing":
            self.metrics.counter("hub_alerts_fired_total").inc()
        elif kind == "resolved":
            self.metrics.counter("hub_alerts_resolved_total").inc()
        journal = self._journal()
        if journal is not None:
            journal.append("alert", event)

    # ------------------------------------------------------------------- tick
    def tick(self, now: Optional[float] = None) -> List[Dict]:
        """One scrape+append+evaluate pass; returns alert transitions."""
        now = time.time() if now is None else now
        with self._lock:
            with self.metrics.histogram("hub_telemetry_tick_seconds").time():
                self.metrics.counter("hub_telemetry_ticks_total").inc()
                self._sample_fleet(now)
                self._sample_hub(now)
                self._sample_runs(now)
                transitions = self.alerts.evaluate(self.store, now=now)
            self._ticks += 1
            if (
                self.compact_every_ticks
                and self._ticks % self.compact_every_ticks == 0
            ):
                for target in self.store.targets():
                    self.store.compact(
                        target, now, retention_s=self.retention_s
                    )
            return transitions

    def _append(self, target: str, now: float, series: Dict[str, float]) -> None:
        self.store.append(target, now, series)
        self.metrics.counter("hub_telemetry_samples_total").inc()

    def _sample_fleet(self, now: float) -> None:
        if self.aggregator is None:
            return
        scrapes = self.aggregator.scrape()
        fleet: Dict[str, float] = {}
        up = 0
        for scrape in scrapes:
            series: Dict[str, float] = {"up": 1.0 if scrape.ok else 0.0}
            if scrape.ok:
                up += 1
                flat = flatten_families(scrape.families)
                series.update(flat)
                for key, value in flat.items():
                    fleet[key] = fleet.get(key, 0.0) + value
            series["scrape_seconds"] = scrape.elapsed_s
            self._append(replica_target(scrape.name), now, series)
        if scrapes:
            fleet["replicas_up"] = float(up)
            fleet["replicas_total"] = float(len(scrapes))
            self._append("fleet", now, fleet)

    def _sample_hub(self, now: float) -> None:
        if self.hub_sampler is None:
            return
        sample = self.hub_sampler()
        if sample:
            self._append(
                "hub", now, {str(k): float(v) for k, v in sample.items()}
            )

    def _sample_runs(self, now: float) -> None:
        if self.run_source is None:
            return
        for run_id, journal_path in self.run_source():
            journal_path = pathlib.Path(journal_path)
            if not journal_path.exists():
                continue
            try:
                scan = read_tail_events(
                    journal_path, 1, event_type="search_health"
                )
            except TrackingError:
                continue
            if not scan.events:
                continue
            health = scan.events[-1]
            series = {
                "search_iteration": float(health.get("iteration", 0)),
                "search_hypervolume": float(health.get("hypervolume", 0.0)),
                "search_pareto_size": float(health.get("pareto_size", 0)),
                "search_evals": float(health.get("engine_queries", 0)),
            }
            screening = health.get("screening") or {}
            if screening:
                series["search_screen_escalated"] = float(
                    screening.get("escalated", 0)
                )
                series["search_screen_forwarded"] = float(
                    screening.get("forwarded", 0)
                )
            self._append(f"run:{run_id}", now, series)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "TelemetryPipeline":
        if self._thread is not None:
            raise TrackingError("telemetry pipeline already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-scrape", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            started = time.monotonic()
            try:
                self.tick()
            except Exception:
                # a failed sweep must not kill the loop; the failure is
                # visible through hub_fleet_scrape_errors_total
                self.metrics.counter("hub_telemetry_tick_errors_total").inc()
            elapsed = time.monotonic() - started
            self._stop.wait(max(0.0, self.interval_s - elapsed))

    def stop(self) -> None:
        """Stop the loop and release every descriptor and socket."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.aggregator is not None:
            self.aggregator.close()
        if self._alert_journal is not None:
            self._alert_journal.close()
            self._alert_journal = None
        self.store.close()

    def __enter__(self) -> "TelemetryPipeline":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---------------------------------------------------------------- surface
    def status(self) -> Dict:
        """The ``GET /alerts`` payload: active + history + rules."""
        return {
            "active": self.alerts.active(),
            "history": list(self.alerts.history),
            "rules": self.alerts.rules_dict(),
            "interval_s": self.interval_s,
            "targets": self.store.targets(),
            "ticks": self._ticks,
        }
