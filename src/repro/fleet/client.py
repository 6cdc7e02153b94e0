"""Sharded PPA-service client: one engine, N replicas, concurrent fan-out.

:class:`ShardedPPAEngine` extends
:class:`~repro.costmodel.service.RemotePPAEngine` with a
:class:`~repro.fleet.router.ShardRouter`: every cache-miss query is
consistent-hashed to the replica that owns its key range (so that
replica's bounded LRU stays hot), chunked ``POST /evaluate_layers``
requests to *different* shards fly concurrently, and the replies are
re-merged in request order.

Bit-identical accounting: all query counting, clock charging, client-side
caching and journal events happen in the :class:`PPAEngine` base class
*above* this transport — the fan-out only changes who computes a miss and
when, never the order results are returned, stored or journaled.  The
replica engines are deterministic, so sharded and serial runs produce the
same bytes.

Failover: when a key's owner is down (marked by a health check, draining,
or its breaker is open) the key falls to the next shard in its rendezvous
ranking — and snaps back, unmoved, when the owner returns.  A ``503
service draining`` reply marks the shard down *without* charging its
breaker: a replica restart is routine, not an outage.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.costmodel.results import LayerPPA
from repro.costmodel.service import (
    RemotePPAEngine,
    _layer_ppa_from_dict,
    encode_object,
)
from repro.errors import EvaluationError, TransportError
from repro.fleet.hashing import candidate_key
from repro.fleet.router import Shard, ShardRouter

__all__ = ["ShardedPPAEngine"]


class ShardedPPAEngine(RemotePPAEngine):
    """A :class:`RemotePPAEngine` spread over N service replicas.

    ``max_inflight`` bounds the number of chunk requests in flight at
    once across all shards (they run on a small worker-thread pool).
    All other knobs — retries, backoff, breaker thresholds, batch_size —
    keep their :class:`RemotePPAEngine` meaning, applied per shard.
    """

    def __init__(
        self,
        network,
        base_urls: Sequence[str],
        area_fn: Callable[[object], float],
        max_inflight: int = 8,
        **kwargs,
    ):
        urls = [url.rstrip("/") for url in base_urls]
        if not urls:
            raise EvaluationError("ShardedPPAEngine needs at least one URL")
        if max_inflight < 1:
            raise EvaluationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        super().__init__(network, urls[0], area_fn, **kwargs)
        self.max_inflight = max_inflight
        self.router = ShardRouter(
            urls,
            timeout_s=self.timeout_s,
            breaker_threshold=self.breaker_threshold,
            breaker_cooldown_s=self.breaker_cooldown_s,
            metrics=self.metrics,
            max_idle_per_shard=max(2, max_inflight),
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()

    # -- fan-out plumbing -------------------------------------------------------
    def _pool_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_inflight,
                    thread_name_prefix="fleet-client",
                )
            return self._executor

    def close(self) -> None:
        """Release worker threads and pooled connections."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self.router.close()

    def _query_key(self, hw_id, layer_name: str, mapping) -> str:
        return candidate_key(hw_id, layer_name, mapping.key())

    def _shard_request(
        self, shard: Shard, path: str, payload: Dict, parent_span
    ) -> Dict:
        """One chunk request to one shard, with its own span.

        Worker threads have an empty tracer context stack, so the parent
        is attached explicitly; the span carries the shard name, and the
        server-side span stitches under it exactly as in the serial path.
        """
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "remote" + path,
                parent_id=parent_span.span_id if parent_span is not None else None,
                shard=shard.name,
            )
            try:
                return self._transport_request(
                    shard.pool, shard.breaker, path, payload, span,
                    shard=shard.name,
                )
            finally:
                self.tracer.finish_span(span)
        return self._transport_request(
            shard.pool, shard.breaker, path, payload, None, shard=shard.name
        )

    def _shard_request_failover(
        self, key: str, path: str, payload: Dict, parent_span
    ) -> Dict:
        """Route by ``key`` and retry down the rendezvous ranking.

        Only transport-level failures fail over (the next replica may be
        healthy); semantic 4xx rejections raise immediately — every
        replica would reject the same query.  A ``503 draining`` reply
        marks the shard down for its TTL without charging the breaker.
        """
        ranked = self.router.ranking(key)
        last_error: Optional[TransportError] = None
        tried = 0
        for shard in ranked:
            if not shard.available() and tried == 0 and shard is not ranked[-1]:
                # the owner is known-down: skip straight to the failover
                # target its keys remap to (stable under rendezvous)
                continue
            tried += 1
            try:
                return self._shard_request(shard, path, payload, parent_span)
            except EvaluationError as error:
                if self._is_draining_rejection(error):
                    shard.mark_down("draining")
                    shard.breaker.record(True)  # a restart is not an outage
                    last_error = TransportError(str(error))
                    continue
                if isinstance(error, TransportError):
                    self.router.num_failovers += 1
                    self.metrics.counter(
                        f"fleet_failovers_total[shard={shard.name}]"
                    ).inc()
                    last_error = error
                    continue
                raise  # semantic rejection: no replica will answer differently
        assert last_error is not None
        raise last_error

    @staticmethod
    def _is_draining_rejection(error: EvaluationError) -> bool:
        message = str(error)
        return "503" in message and "draining" in message

    def _fanout(
        self,
        requests: Sequence[Tuple[str, str, Dict]],
    ) -> List[Dict]:
        """Issue ``(key, path, payload)`` chunk requests concurrently.

        Replies come back in submission order regardless of completion
        order, so downstream accounting is order-identical to the serial
        loop.  The calling thread's current span (if any) parents every
        chunk span.
        """
        if not requests:
            return []
        parent_span = (
            self.tracer.current_span() if self.tracer.enabled else None
        )
        if len(requests) == 1:
            key, path, payload = requests[0]
            return [
                self._shard_request_failover(key, path, payload, parent_span)
            ]
        executor = self._pool_executor()
        futures = [
            executor.submit(
                self._shard_request_failover, key, path, payload, parent_span
            )
            for key, path, payload in requests
        ]
        # collect everything before raising so no future is abandoned
        # mid-flight with its connection checked out
        outcomes: List = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as error:  # noqa: BLE001 - re-raised below
                outcomes.append(error)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return outcomes

    # -- engine transport overrides ---------------------------------------------
    def _compute_layer_by_name(self, hw, mapping, layer_name, shape) -> LayerPPA:
        payload = {
            "hw": encode_object(hw),
            "mapping": encode_object(mapping),
            "layer": layer_name,
        }
        key = self._query_key(self.hw_key(hw), layer_name, mapping)
        parent_span = (
            self.tracer.current_span() if self.tracer.enabled else None
        )
        return _layer_ppa_from_dict(
            self._shard_request_failover(
                key, "/evaluate_layer", payload, parent_span
            )
        )

    def _compute_misses(
        self, hw, misses: Sequence[Tuple[object, str]]
    ) -> List[LayerPPA]:
        """Shard-partitioned, concurrently fanned ``/evaluate_layers``.

        The base class charges queries, splits hits from misses, stores
        results and emits journal events; this override only decides where
        each miss is computed.  Chunks preserve the miss order within each
        shard, and the reply merge is by miss position — so the returned
        list is ordered exactly like ``misses``.
        """
        hw_id = self.hw_key(hw)
        hw_wire = encode_object(hw)
        keys = [
            self._query_key(hw_id, layer_name, mapping)
            for mapping, layer_name in misses
        ]
        by_owner: Dict[str, List[int]] = {}
        for position, key in enumerate(keys):
            by_owner.setdefault(self.router.route(key).name, []).append(position)
        requests: List[Tuple[str, str, Dict]] = []
        chunks: List[Tuple[List[int], List[Tuple[object, str]]]] = []
        for owned in by_owner.values():
            for chunk_start in range(0, len(owned), self.batch_size):
                positions = owned[chunk_start : chunk_start + self.batch_size]
                chunk = [misses[position] for position in positions]
                # route by the first key of the chunk: all keys in the
                # chunk share the same owner by construction
                requests.append(
                    (
                        keys[positions[0]],
                        "/evaluate_layers",
                        self._layers_payload(hw_wire, chunk),
                    )
                )
                chunks.append((positions, chunk))
        start = time.perf_counter()
        replies = self._fanout(requests)
        self.metrics.histogram("engine_compute_seconds").observe(
            time.perf_counter() - start
        )
        results: List[Optional[LayerPPA]] = [None] * len(misses)
        for (positions, chunk), reply in zip(chunks, replies):
            for position, result in zip(
                positions, self._layer_results(reply, chunk)
            ):
                results[position] = result
        return results  # type: ignore[return-value]  # all slots filled above

    # -- fleet operations -------------------------------------------------------
    def health(self) -> Dict:
        """Probe every shard; returns ``{shard_name: payload_or_None}``."""
        return self.router.health_check()

    def stats(self) -> Dict:
        merged = super().stats()
        merged["fleet"] = self.router.stats()
        return merged

    # -- pickling ---------------------------------------------------------------
    def __getstate__(self) -> Dict:
        state = super().__getstate__()
        del state["_executor"]
        del state["_executor_lock"]
        return state

    def __setstate__(self, state: Dict) -> None:
        super().__setstate__(state)
        self._executor = None
        self._executor_lock = threading.Lock()
