"""Shard router: rendezvous key placement over PPA-service replicas.

One :class:`Shard` per replica bundles the three per-replica resources the
remote engine needs — a keep-alive :class:`~repro.fleet.pool.ConnectionPool`,
a :class:`~repro.fleet.breaker.CircuitBreaker`, and a health flag — under a
stable shard name (``shard-0``, ``shard-1``, ...) used for metric labels
and span attributes.

Routing policy (:meth:`ShardRouter.route`):

* a key's shard ranking is the rendezvous order over the *full* member
  list (stable regardless of who is currently up);
* unavailable shards — marked down (draining, failed health check, still
  inside the down TTL) or with an open breaker — are skipped, so the key
  falls to the next shard in its ranking and *returns to its owner* the
  moment the replica recovers;
* when every shard is unavailable the top-ranked shard is returned anyway
  and its breaker raises at request time — failing fast with the real
  error beats inventing a new one here;
* a router with one member has nothing to place: ``ranking`` and
  ``route`` return it without hashing the key or polling availability.
"""

from __future__ import annotations

import json
import threading
import time
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from repro.errors import EvaluationError
from repro.fleet.breaker import CircuitBreaker
from repro.fleet.hashing import rank_shards
from repro.fleet.pool import ConnectionPool
from repro.utils.metrics import Counter, MetricsRegistry

__all__ = ["Shard", "ShardRouter"]

#: how long a mark_down() holds without an explicit mark_up(); a drained
#: replica restarting is back in rotation after one TTL even if nobody
#: runs a health check.
DOWN_TTL_S = 2.0
#: consecutive request failures that open a shard's circuit breaker
BREAKER_THRESHOLD = 5
#: how long an open breaker fails requests fast before a probe (seconds)
BREAKER_COOLDOWN_S = 30.0


class Shard:
    """One replica: url, pooled connections, breaker, availability."""

    def __init__(
        self,
        name: str,
        url: str,
        timeout_s: float,
        max_idle: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.name = name
        self.url = url.rstrip("/")
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self.pool = ConnectionPool(self.url, timeout_s=timeout_s, max_idle=max_idle)
        self.breaker = CircuitBreaker(self.url, BREAKER_THRESHOLD, BREAKER_COOLDOWN_S)
        self._down_until = 0.0
        self._down_reason = ""

    @cached_property
    def requests_total(self) -> Counter:
        """``fleet_requests_total[shard=<name>]``: looked up at the shard's
        first request (a registry lists an instrument from the moment it
        exists), then held — the client counts one per exchange."""
        return self._metrics.counter(f"fleet_requests_total[shard={self.name}]")

    def mark_down(self, reason: str) -> None:
        self._down_until = time.monotonic() + DOWN_TTL_S
        self._down_reason = reason

    def mark_up(self) -> None:
        self._down_until = 0.0
        self._down_reason = ""

    @property
    def marked_down(self) -> bool:
        return self._down_until - time.monotonic() > 0

    def available(self) -> bool:
        """Eligible for routing: not marked down, breaker not open."""
        return not self.marked_down and not self.breaker.is_open()

    def stats(self) -> Dict:
        return {
            "name": self.name,
            "url": self.url,
            "available": self.available(),
            "down_reason": self._down_reason if self.marked_down else "",
            "breaker": self.breaker.stats(),
            "pool": self.pool.stats(),
        }


class ShardRouter:
    """Consistent-hash routing of candidate keys across replicas."""

    def __init__(
        self,
        urls: Sequence[str],
        timeout_s: float = 10.0,
        metrics: Optional[MetricsRegistry] = None,
        max_idle_per_shard: int = 8,
    ):
        if not urls:
            raise EvaluationError("a shard router needs at least one replica URL")
        deduped = list(dict.fromkeys(url.rstrip("/") for url in urls))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.shards: List[Shard] = [
            Shard(
                f"shard-{index}",
                url,
                timeout_s,
                max_idle=max_idle_per_shard,
                metrics=self.metrics,
            )
            for index, url in enumerate(deduped)
        ]
        self._by_name = {shard.name: shard for shard in self.shards}
        self.num_failovers = 0
        self._lock = threading.Lock()  # guards num_failovers

    def __len__(self) -> int:
        return len(self.shards)

    # -- placement --------------------------------------------------------------
    def ranking(self, key: str) -> List[Shard]:
        """Failover-ordered shards for ``key`` (rendezvous over all members)."""
        if len(self.shards) == 1:
            return self.shards
        order = rank_shards(key, list(self._by_name))
        return [self._by_name[name] for name in order]

    def route(self, key: str) -> Shard:
        """The shard that should serve ``key`` right now."""
        ranked = self.ranking(key)
        if len(ranked) == 1:
            return ranked[0]
        for position, shard in enumerate(ranked):
            if shard.available():
                if position > 0:
                    # the key's owner is down: count the stable remap
                    self.count_failover(shard)
                return shard
        # everyone looks down; let the owner's breaker produce the error
        return ranked[0]

    def count_failover(self, shard: Shard) -> None:
        """Count one failover under ``shard``'s label; safe from any thread."""
        with self._lock:
            self.num_failovers += 1
        self.metrics.counter(f"fleet_failovers_total[shard={shard.name}]").inc()

    # -- health -----------------------------------------------------------------
    def health_check(self) -> Dict[str, Optional[Dict]]:
        """Probe ``GET /health`` on every shard; flips availability flags.

        Returns ``{shard_name: health_payload_or_None}``.  Probes bypass
        the breaker on purpose — health checks are how a down shard gets
        *back* into rotation.
        """
        report: Dict[str, Optional[Dict]] = {}
        for shard in self.shards:
            try:
                response = shard.pool.request("GET", "/health")
                if response.status == 200:
                    payload = json.loads(response.body)
                    shard.mark_up()
                    shard.breaker.reset()
                    report[shard.name] = payload
                    continue
                reason = f"health status {response.status}"
            except Exception as error:  # noqa: BLE001 - any probe failure is "down"
                reason = f"{type(error).__name__}: {error}"
            shard.mark_down(reason)
            self.metrics.counter(
                f"fleet_shard_down_total[shard={shard.name}]"
            ).inc()
            report[shard.name] = None
        return report

    def close(self) -> None:
        for shard in self.shards:
            shard.pool.close()

    def stats(self) -> Dict:
        return {
            "replicas": len(self.shards),
            "num_failovers": self.num_failovers,
            "shards": [shard.stats() for shard in self.shards],
        }
