"""Fleet-wide Prometheus aggregation: N replica scrapes → one exposition.

Each PR-7 replica exposes its own ``GET /metrics?format=prom``; watching a
fleet means N browser tabs and mental arithmetic.  The aggregator scrapes
every replica over pooled keep-alive connections, validates each body
with the strict parser in :mod:`repro.utils.prom`, and merges the families
into a single exposition:

* every per-replica series is re-emitted with a ``replica="host:port"``
  label, so one scrape of the hub shows the whole fleet with per-replica
  resolution (histograms stay valid because the strict parser validates
  cumulative-bucket invariants *per non-``le`` label set*);
* every counter family additionally gets a ``fleet:<name>`` rollup
  family whose series sum the replicas per original label set — the
  numbers a dashboard actually plots (total evals/s, total cache hits);
* histogram families get a ``fleet:<name>`` rollup when all replicas
  agree on bucket bounds (they do — bounds are code constants), summing
  buckets elementwise; cumulative sums of cumulative buckets stay
  cumulative, so the rollup passes the same strict validation.

A replica that fails to answer, or answers with something the strict
parser rejects, is reported down and excluded from the merge — a fleet
view must not go dark because one replica is restarting.  Every replica
tried gets one Prometheus-convention ``up{replica="host:port"}`` gauge
sample, 1 or 0, so a reader of the exposition sees the down ones too.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.fleet.pool import ConnectionPool
from repro.utils.metrics import MetricsRegistry
from repro.utils.prom import (
    help_for,
    help_line,
    parse_prometheus_text,
    sample_line,
)

__all__ = ["FleetAggregator", "ReplicaScrape"]


@dataclass
class ReplicaScrape:
    """One replica's scrape outcome: parsed families or an error."""

    name: str
    url: str
    ok: bool = False
    error: Optional[str] = None
    families: Dict[str, Dict] = field(default_factory=dict)
    elapsed_s: float = 0.0


def _group_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    """A histogram series' identity: its labels minus ``le``."""
    return tuple(sorted(
        (key, val) for key, val in labels.items() if key != "le"
    ))


class FleetAggregator:
    """Scrape and merge the Prometheus expositions of a replica fleet."""

    def __init__(
        self,
        urls: List[str],
        timeout_s: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        seen = set()
        self._replicas: List[Tuple[str, str, ConnectionPool]] = []
        for url in urls:
            base = url.rstrip("/")
            if base in seen:
                continue
            seen.add(base)
            name = urlsplit(base).netloc or base
            self._replicas.append(
                (name, base, ConnectionPool(base, timeout_s=timeout_s))
            )

    @property
    def replica_names(self) -> List[str]:
        return [name for name, _url, _pool in self._replicas]

    def close(self) -> None:
        for _name, _url, pool in self._replicas:
            pool.close()

    # -- scraping ---------------------------------------------------------------
    def _scrape_one(
        self, name: str, url: str, pool: ConnectionPool
    ) -> ReplicaScrape:
        scrape = ReplicaScrape(name=name, url=url)
        start = time.perf_counter()
        try:
            scrape.families = parse_prometheus_text(
                pool.fetch("/metrics?format=prom").decode("utf-8")
            )
            scrape.ok = True
        except Exception as error:  # any failure = replica down, not fatal
            scrape.error = f"{type(error).__name__}: {error}"
            self.metrics.counter("hub_fleet_scrape_errors_total").inc()
        scrape.elapsed_s = time.perf_counter() - start
        return scrape

    def scrape(self) -> List[ReplicaScrape]:
        """Scrape every replica concurrently; one sweep, in replica order."""
        self.metrics.counter("hub_fleet_scrapes_total").inc()
        with self.metrics.histogram("hub_fleet_scrape_seconds").time():
            if not self._replicas:
                return []
            with ThreadPoolExecutor(
                max_workers=min(8, len(self._replicas))
            ) as executor:
                return list(
                    executor.map(
                        lambda spec: self._scrape_one(*spec), self._replicas
                    )
                )

    # -- merging ----------------------------------------------------------------
    def merge(self, scrapes: List[ReplicaScrape]) -> str:
        """One exposition: per-replica labeled series, ``fleet:*`` rollups
        and an ``up`` sample for every scrape in ``scrapes``.

        The output passes :func:`~repro.utils.prom.parse_prometheus_text`
        by construction; families appear in sorted-name order so repeated
        merges of idle replicas are byte-identical.
        """
        alive = [scrape for scrape in scrapes if scrape.ok]
        blocks: Dict[str, List[str]] = {}
        family_names = sorted(
            {name for scrape in alive for name in scrape.families}
        )
        for family in family_names:
            contributors = [
                (scrape, scrape.families[family])
                for scrape in alive
                if family in scrape.families
            ]
            types = {data["type"] for _s, data in contributors}
            if len(types) != 1:
                # replicas on skewed code versions disagree on the family
                # type; emitting both would make the exposition invalid
                self.metrics.counter("hub_fleet_merge_conflicts_total").inc()
                continue
            family_type = types.pop()
            lines: List[str] = []
            description = help_for(family) or next(
                (data["help"] for _s, data in contributors if data["help"]),
                None,
            )
            if description:
                lines.append(help_line(family, description))
            lines.append(f"# TYPE {family} {family_type}")
            for scrape, data in contributors:
                for name, labels, value in data["samples"]:
                    labeled = dict(labels)
                    labeled["replica"] = scrape.name
                    lines.append(sample_line(name, labeled, value))
            blocks[family] = lines
            rollup = self._rollup(family, family_type, contributors)
            if rollup is not None:
                blocks[f"fleet:{family}"] = rollup
        if scrapes:
            blocks["up"] = ["# TYPE up gauge"] + [
                sample_line("up", {"replica": scrape.name}, float(scrape.ok))
                for scrape in scrapes
            ]
        ordered: List[str] = []
        for family in sorted(blocks):
            ordered.extend(blocks[family])
        return "\n".join(ordered) + ("\n" if ordered else "")

    def _rollup(
        self,
        family: str,
        family_type: str,
        contributors: List[Tuple[ReplicaScrape, Dict]],
    ) -> Optional[List[str]]:
        """``fleet:<family>`` series summing the replicas, or None."""
        rollup_name = f"fleet:{family}"
        description = help_for(family)
        header = [f"# TYPE {rollup_name} {family_type}"]
        if description:
            header.insert(
                0, help_line(rollup_name, f"Fleet-wide sum: {description}")
            )
        if family_type == "counter":
            totals: Dict[Tuple[Tuple[str, str], ...], float] = {}
            for _scrape, data in contributors:
                for _name, labels, value in data["samples"]:
                    key = tuple(sorted(labels.items()))
                    totals[key] = totals.get(key, 0.0) + value
            return header + [
                sample_line(rollup_name, dict(key), totals[key])
                for key in sorted(totals)
            ]
        if family_type == "histogram":
            return self._rollup_histogram(family, rollup_name, header,
                                          contributors)
        return None  # gauges/untyped: a cross-replica sum is not meaningful

    def _rollup_histogram(
        self,
        family: str,
        rollup_name: str,
        header: List[str],
        contributors: List[Tuple[ReplicaScrape, Dict]],
    ) -> Optional[List[str]]:
        # per non-le label set: ordered le list + summed buckets/sum/count
        groups: Dict[Tuple, Dict] = {}
        for _scrape, data in contributors:
            for name, labels, value in data["samples"]:
                key = _group_key(labels)
                group = groups.setdefault(
                    key, {"le_order": [], "buckets": {}, "sum": 0.0,
                          "count": 0.0}
                )
                if name == family + "_bucket":
                    le = labels.get("le")
                    if le not in group["buckets"]:
                        group["le_order"].append(le)
                        group["buckets"][le] = 0.0
                    group["buckets"][le] += value
                elif name == family + "_sum":
                    group["sum"] += value
                elif name == family + "_count":
                    group["count"] += value
        # replicas must agree on bucket bounds for the sum to be a valid
        # cumulative histogram; bounds are code constants, so a mismatch
        # means skewed code versions — skip the rollup rather than lie
        for _scrape, data in contributors:
            per_group_les: Dict[Tuple, List[str]] = {}
            for name, labels, _value in data["samples"]:
                if name == family + "_bucket":
                    per_group_les.setdefault(
                        _group_key(labels), []
                    ).append(labels.get("le"))
            for key, les in per_group_les.items():
                if les != groups[key]["le_order"]:
                    self.metrics.counter(
                        "hub_fleet_merge_conflicts_total"
                    ).inc()
                    return None
        lines = list(header)
        for key in sorted(groups):
            group = groups[key]
            for le in group["le_order"]:
                labels = dict(key)
                labels["le"] = le
                lines.append(
                    sample_line(
                        rollup_name + "_bucket", labels, group["buckets"][le]
                    )
                )
            lines.append(
                sample_line(rollup_name + "_sum", dict(key), group["sum"])
            )
            lines.append(
                sample_line(rollup_name + "_count", dict(key), group["count"])
            )
        return lines
