"""The PPA estimation engine as a standalone REST service (Section 3.5).

"PPA Estimation Engine: A standalone REST API to call which requires
hardware configuration, SW mapping configuration, and a tensor workload as
inputs to estimate performance, power and area."

* :class:`PPAServiceServer` wraps any :class:`PPAEngine` behind a small
  HTTP/JSON endpoint — a route table on the shared serving core
  :mod:`repro.utils.httpcore` (GET ``/health``, GET ``/metrics`` and
  POST ``/evaluate_layers``, the one query route).  Its body is
  ``{"groups": [{"hw": row, "items": [[row, layer], ...]}, ...]}``
  — one group per hardware configuration, as many as the client's engine
  call carried — answered by one ``engine.evaluate_groups`` call with
  ``{"results": [[entry, ...], ...]}``, one list per group, one entry per
  item.
* :class:`RemotePPAEngine` is the drop-in :class:`PPAEngine` client — the
  only one, for one replica URL or N: search tools talk to it exactly as
  they talk to an in-process engine, so the master-slave deployment of
  Fig. 6(b) only changes the engine wiring.

Fault tolerance: every network-level failure (connection refused, socket
timeout, truncated/malformed responses, 5xx replies) is retried by the
client, and one that outlasts its retries surfaces as
:class:`~repro.errors.TransportError` (an :class:`~repro.errors.EvaluationError`);
the retries, per-replica circuit breakers and failover are described on
:class:`RemotePPAEngine`.  Requests travel over one keep-alive
:class:`~repro.fleet.pool.ConnectionPool` per replica, so every exchange
reuses a warm socket.  The server supports graceful shutdown:
:meth:`PPAServiceServer.begin_drain` (or the SIGTERM handler installed by
:meth:`PPAServiceServer.install_signal_handlers`) finishes in-flight
requests and answers new ones with a fast 503 instead of a hung socket,
so replica restarts don't read as breaker-tripping outages.

The wire is rows, on every POST route.  A hardware config or a mapping
is ``[type name, *fields in dataclass order]`` (:func:`encode_object` /
:func:`decode_object`); tuple-typed fields such as
``GemmMapping.loop_order`` come back from JSON lists by position.  A
layer result is the row ``[latency_s, energy_j, compute_cycles,
noc_cycles, dram_cycles, dram_bytes]``, ``{"infeasible": reason}``, or —
for an item the server refused — ``{"error": message}``.  JSON round-trips
a float exactly, so a result crosses the wire as the same bits.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import random
import threading
import time
import typing
from itertools import chain
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPException
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.costmodel.engine import PPAEngine, Query, QueryGroup, held_instrument
from repro.costmodel.results import LayerPPA, feasible_ppa, infeasible_ppa
from repro.errors import EvaluationError, ReproError, TransportError
from repro.fleet.breaker import BreakerOpenError, CircuitBreaker
from repro.fleet.hashing import candidate_key
from repro.fleet.router import Shard, ShardRouter
from repro.hw.ascend import AscendHWConfig
from repro.hw.spatial import SpatialHWConfig
from repro.mapping.ascend_mapping import AscendMapping
from repro.mapping.gemm_mapping import GemmMapping
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    format_trace_context,
    parse_trace_context,
)
from repro.utils.httpcore import HttpServer, Reply, Request, Route

#: Version of the ``GET /metrics`` JSON document (engine stats + registry
#: snapshot); bumped when the response shape changes so scrapers can detect
#: drift instead of diffing noisy dicts.
METRICS_SCHEMA_VERSION = 1

#: the config and mapping types that travel
_ROW_CLASSES = (SpatialHWConfig, AscendHWConfig, GemmMapping, AscendMapping)

#: class -> (wire name, getter of its fields in dataclass order)
_ROW_FIELDS: Dict[type, Tuple[str, Callable]] = {
    cls: (
        cls.__name__,
        operator.attrgetter(*(field.name for field in dataclasses.fields(cls))),
    )
    for cls in _ROW_CLASSES
}


def _tuple_positions(cls: type) -> Tuple[int, ...]:
    """Where ``cls`` has tuple fields, which JSON hands back as lists."""
    hints = typing.get_type_hints(cls)
    return tuple(
        position
        for position, field in enumerate(dataclasses.fields(cls))
        if typing.get_origin(hints[field.name]) is tuple
    )


#: wire name -> (class, positions of its tuple fields)
_ROW_TYPES: Dict[str, Tuple[type, Tuple[int, ...]]] = {
    cls.__name__: (cls, _tuple_positions(cls)) for cls in _ROW_CLASSES
}

#: a feasible result's fields, in row order
_RESULT_ROW = operator.attrgetter(
    "latency_s", "energy_j", "compute_cycles", "noc_cycles", "dram_cycles",
    "dram_bytes",
)


def encode_object(obj) -> List:
    """A hardware config or mapping as a row: ``[type name, *fields]``.

    Fields go in dataclass order — the constructor's positional order —
    so precomputed caches such as ``GemmMapping._row`` stay off the wire.
    """
    try:
        name, fields = _ROW_FIELDS[type(obj)]
    except KeyError:
        raise EvaluationError(f"no wire row for {type(obj).__name__!r}") from None
    return [name, *fields(obj)]


def decode_object(row):
    """Inverse of :func:`encode_object`.

    Anything but a row of a known type raises :class:`EvaluationError`; a
    row whose fields the constructor refuses raises what it raised.
    """
    try:
        cls, tuple_positions = _ROW_TYPES[row[0]]
    except (KeyError, IndexError, TypeError):
        raise EvaluationError(f"not a config or mapping row: {row!r}") from None
    fields = row[1:]
    if tuple_positions:
        fields = list(fields)
        for position in tuple_positions:
            if position < len(fields) and isinstance(fields[position], list):
                fields[position] = tuple(fields[position])
    return cls(*fields)


def _result_to_wire(result: LayerPPA):
    """A result row, or ``{"infeasible": reason}``."""
    if result.feasible:
        return _RESULT_ROW(result)
    return {"infeasible": result.infeasible_reason}


def _result_from_wire(entry, layer_name: str) -> LayerPPA:
    """Inverse of :func:`_result_to_wire`; ``{"error": msg}`` raises."""
    if isinstance(entry, list):
        try:
            return feasible_ppa(*entry)
        except TypeError:
            pass
    elif isinstance(entry, dict):
        if "infeasible" in entry:
            return infeasible_ppa(entry["infeasible"])
        if "error" in entry:
            raise EvaluationError(
                f"evaluation failed for {layer_name}: {entry['error']}"
            )
    raise EvaluationError(
        f"malformed layer-PPA entry for {layer_name}: {entry!r}"
    )


class PPAServiceServer(HttpServer):
    """Serve an engine over HTTP on localhost; use as a context manager.

    Shares the engine's metrics registry, so ``GET /metrics``
    exposes engine counters (queries, cache hits/evictions, compute
    latency) alongside the per-endpoint request/error counters the
    serving core (:mod:`repro.utils.httpcore`) records.
    """

    def __init__(
        self,
        engine: PPAEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        #: server-side span tracer.  With a real tracer, every POST opens a
        #: ``service<path>`` span whose finished form travels back in the
        #: ``X-Repro-Span`` response header, letting tracing clients stitch
        #: it into their own trace.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        rejections = ((EvaluationError, 400), (KeyError, 400))
        super().__init__(
            host,
            port,
            {
                ("GET", "/health"): Route(self._get_health),
                ("GET", "/metrics"): Route(self._get_metrics),
                ("POST", "/evaluate_layers"): Route(
                    self._post_evaluate_layers, rejections, timed=True
                ),
            },
            engine.metrics,
            prefix="service",
            draining_error="service draining",
        )

    def _dispatch(self, route: Route, request: Request) -> Reply:
        if not (self.tracer.enabled and request.method == "POST"):
            return super()._dispatch(route, request)
        context = parse_trace_context(request.headers.get("x-repro-trace"))
        span = self.tracer.start_span(
            f"service{request.path}",
            parent_id=context[1] if context else None,
        )
        if context:
            # adopt the caller's trace identity so server-side sinks
            # record the request under the client's trace
            span.trace_id = context[0]
        reply = super()._dispatch(route, request)
        span.set_attribute("status", reply.status)
        return reply._replace(
            headers={"X-Repro-Span": json.dumps(self.tracer.finish_span(span))}
        )

    # -- endpoints --------------------------------------------------------------
    def _get_health(self, request: Request) -> Dict:
        return {
            "status": "ok",
            "workload": self.engine.network.name,
            "queries": self.engine.num_queries,
        }

    def _get_metrics(self, request: Request):
        return self.metrics_reply(
            request,
            schema_version=METRICS_SCHEMA_VERSION,
            engine=self.engine.stats(),
        )

    def _post_evaluate_layers(self, request: Request) -> Dict:
        engine = self.engine
        layer_shapes = engine.layer_shapes
        groups = request.json()["groups"]
        if not isinstance(groups, list):
            raise EvaluationError("'groups' must be a list")
        entries: List[List] = []
        valid: List[Tuple[object, List[Tuple[object, str]]]] = []
        slots: List[Tuple[List, int]] = []
        hw_row = hw = None
        for group in groups:
            # consecutive groups on one hardware share its decoded config;
            # nothing is kept past the request
            if hw is None or group["hw"] != hw_row:
                hw_row = group["hw"]
                hw = decode_object(hw_row)
            items = group["items"]
            if not isinstance(items, list):
                raise EvaluationError("'items' must be a list")
            group_entries: List = [None] * len(items)
            group_valid: List[Tuple[object, str]] = []
            for index, item in enumerate(items):
                # one bad item must not poison the rest of the request:
                # reject it here, evaluate the others in one engine call
                try:
                    mapping_row, layer_name = item
                    if layer_name not in layer_shapes:
                        raise EvaluationError(
                            f"layer {layer_name!r} not in workload "
                            f"{engine.network.name!r}"
                        )
                    mapping = decode_object(mapping_row)
                except (ReproError, TypeError, ValueError) as exc:
                    group_entries[index] = {"error": str(exc)}
                else:
                    group_valid.append((mapping, layer_name))
                    slots.append((group_entries, index))
            entries.append(group_entries)
            valid.append((hw, group_valid))
        if slots:
            results = chain.from_iterable(engine.evaluate_groups(valid))
            for (group_entries, index), result in zip(slots, results):
                group_entries[index] = _result_to_wire(result)
        return {"results": entries}


#: request bodies carry no optional whitespace (a tenth of their bytes)
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: headers of every untraced request (never mutated: the pool only reads)
_JSON_HEADERS = {"Content-Type": "application/json"}

#: transport-level exceptions that indicate "try again", not "bad query"
_TRANSIENT_ERRORS = (HTTPException, OSError, json.JSONDecodeError)

#: retries of a transient transport failure before it raises
MAX_NETWORK_RETRIES = 3
#: the first retry's backoff, doubled per retry up to ``BACKOFF_MAX_S``
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0
#: a backoff is stretched by a seeded factor in ``[1, 1 + JITTER_FRACTION)``
JITTER_FRACTION = 0.25


class RemotePPAEngine(PPAEngine):
    """A :class:`PPAEngine` that forwards queries to a PPA service.

    ``base_url`` is one replica URL or a sequence of them (a ``str`` is
    the one-element list); either way the engine owns a
    :class:`~repro.fleet.router.ShardRouter` with one keep-alive pool and
    one circuit breaker per distinct URL.  Keeps the local cache and clock
    semantics of the base class; only the uncached computation goes over
    the wire.  ``area_mm2`` is computed by a locally supplied function
    (areas depend only on the hardware config).

    Transport hardening, per shard (all real-time, invisible to the
    simulated clock):

    * transient transport failures — a 5xx reply included — are retried up to
      :data:`MAX_NETWORK_RETRIES` times with exponential backoff
      (``BACKOFF_BASE_S * 2**attempt``, capped at :data:`BACKOFF_MAX_S`) plus
      seeded jitter, and one that outlasts them raises
      :class:`~repro.errors.TransportError` (an :class:`EvaluationError`);
      a server that failed part-way keeps what it computed before the
      failure in its cache, so a retry does not compute it again;
    * after :data:`~repro.fleet.router.BREAKER_THRESHOLD` consecutive
      request failures the circuit opens: queries fail fast for
      :data:`~repro.fleet.router.BREAKER_COOLDOWN_S` seconds, then a single
      probe is allowed through (half-open).

    4xx replies are semantic rejections (bad layer, malformed mapping):
    they raise immediately without transport retries and do not trip the
    breaker — the service is alive and answering.

    Placement and failover: with more than one shard every miss is
    rendezvous-hashed to the replica that owns its key (so that replica's
    bounded LRU stays hot); when the owner is down — marked by a health
    check, draining, or its breaker open — the query falls to the next
    shard in its ranking and snaps back when the owner returns.  A ``503
    service draining`` reply marks the shard down *without* charging its
    breaker: a replica restart is routine, not an outage.

    Batching: the base class's :meth:`evaluate_groups` does all query
    accounting (clock, counters, cache, samples); this class overrides
    only its compute hook.  :meth:`_compute_group_misses` ships the
    misses of a call — every group's: the live trials of a lockstep MSH
    round ask together — as ``POST /evaluate_layers`` requests the server
    answers with one engine call each.  A lone replica leaves nothing to
    place or overlap: no routing key is built, nothing is hashed, the
    call is one request on the caller's thread, which polls for its reply
    before it blocks (:data:`~repro.fleet.pool.REPLY_POLL_S`; chunks that
    fly together do not).  Across a fleet each
    shard's share is cut into ``batch_size`` chunks that fly concurrently
    (at most ``max_inflight``) and are re-merged in miss order, so
    accounting is order-identical to a serial loop and — the replicas
    being deterministic — every route returns the same bytes.
    """

    def __init__(
        self,
        network,
        base_url: Union[str, Sequence[str]],
        area_fn: Callable[[object], float],
        timeout_s: float = 10.0,
        batch_size: int = 16,
        max_inflight: int = 8,
        **kwargs,
    ):
        super().__init__(network, **kwargs)
        if batch_size < 1:
            raise EvaluationError(f"batch_size must be >= 1, got {batch_size}")
        if max_inflight < 1:
            raise EvaluationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.area_fn = area_fn
        self.batch_size = batch_size
        self.max_inflight = max_inflight
        self._jitter_rng = random.Random(0)
        self.num_network_retries = 0
        #: each URL is parsed exactly once, inside its shard's pool, which
        #: idles up to ``max_inflight`` warm connections
        self.router = ShardRouter(
            [base_url] if isinstance(base_url, str) else base_url,
            timeout_s=timeout_s,
            metrics=self.metrics,
            max_idle_per_shard=max_inflight,
        )
        #: worker threads of the fan-out, created by the first call that
        #: sends more than one chunk to a fleet of more than one replica
        self._executor: Optional[ThreadPoolExecutor] = None
        #: transport-only lock (jitter RNG, retry counter, executor slot).
        #: Backoff and breaker state deliberately stay off the engine cache
        #: lock ``self._lock``: one chunk backing off must not serialize
        #: unrelated concurrent requests or cache lookups.
        self._transport_lock = threading.Lock()

    _requests_total = held_instrument("counter", "remote_requests_total")
    _request_seconds = held_instrument("histogram", "remote_request_seconds")

    def close(self) -> None:
        """Release worker threads and every shard's pooled connections."""
        with self._transport_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self.router.close()

    def __enter__(self) -> "RemotePPAEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport --------------------------------------------------------------
    def _backoff_delay(self, attempt: int) -> float:
        base = min(BACKOFF_BASE_S * (2 ** (attempt - 1)), BACKOFF_MAX_S)
        with self._transport_lock:
            jitter = self._jitter_rng.random()
        return base * (1.0 + JITTER_FRACTION * jitter)

    def _breaker_report(self, breaker: CircuitBreaker, success: bool) -> None:
        if breaker.record(success):
            self.metrics.counter("remote_circuit_opened_total").inc()

    def _error_detail(self, body: bytes, fallback: str) -> str:
        try:
            payload = json.loads(body)
            return str(payload.get("error", payload))
        except Exception as parse_error:
            # a non-JSON error body (proxy page, truncated response) is
            # routine, but the drop is counted per exception type so a
            # systematically malformed server shows up on /metrics
            self.metrics.counter("remote_error_body_unparsed_total").inc()
            self.metrics.counter(
                f"remote_error_body_{type(parse_error).__name__}_total"
            ).inc()
            return fallback

    def _transport_request(
        self, shard: Shard, path: str, payload: Optional[Dict], span
    ) -> Dict:
        """Breaker gate → pooled keep-alive exchange → retry policy → JSON."""
        breaker = shard.breaker
        try:
            breaker.check()  # counts the rejection itself, under its lock
        except BreakerOpenError:
            self.metrics.counter("remote_circuit_rejections_total").inc()
            raise
        data = (
            _encode_json(payload).encode("utf-8") if payload is not None else None
        )
        method = "POST" if data is not None else "GET"
        self._requests_total.inc()
        shard.requests_total.inc()
        headers = _JSON_HEADERS
        if span is not None:
            headers = {
                **_JSON_HEADERS,
                "X-Repro-Trace": format_trace_context(self.tracer, span),
            }
        last_error: Optional[TransportError] = None
        for attempt in range(MAX_NETWORK_RETRIES + 1):
            if attempt:
                with self._transport_lock:  # requests run on worker threads
                    self.num_network_retries += 1
                self.metrics.counter("remote_network_retries_total").inc()
                # no lock is held across this sleep: one chunk backing off
                # must not stall concurrent requests on other threads
                time.sleep(self._backoff_delay(attempt))
            try:
                start = time.perf_counter()
                response = shard.pool.request(
                    method, path, body=data, headers=headers
                )
                elapsed = time.perf_counter() - start
                self._request_seconds.observe(elapsed)
                if response.status >= 400:
                    detail = self._error_detail(
                        response.body, f"HTTP {response.status}"
                    )
                    if response.status >= 500:
                        last_error = TransportError(
                            f"service error {response.status} on {path}: {detail}"
                        )
                        continue
                    # semantic rejection: the service is up and answered
                    self._breaker_report(breaker, success=True)
                    raise EvaluationError(
                        f"service rejected {path} ({response.status}): {detail}"
                    )
                reply = json.loads(response.body)
            except _TRANSIENT_ERRORS as error:
                last_error = TransportError(
                    f"network failure on {path}: {type(error).__name__}: {error}"
                )
                continue
            self._breaker_report(breaker, success=True)
            if span is not None:
                server_span = response.header("X-Repro-Span")
                if server_span:
                    try:
                        self.tracer.record_remote(
                            json.loads(server_span), span, elapsed
                        )
                    except (json.JSONDecodeError, TypeError, ValueError):
                        pass  # a garbled span header must not fail the query
            return reply
        self._breaker_report(breaker, success=False)
        assert last_error is not None
        raise last_error

    def _parent_span(self):
        """The calling thread's current span: the parent of request spans."""
        return self.tracer.current_span() if self.tracer.enabled else None

    def _shard_request(
        self, shard: Shard, path: str, payload: Optional[Dict], parent_span
    ) -> Dict:
        """One request to one shard, under its own ``remote<path>`` span.

        Worker threads have an empty tracer context stack, so the parent
        is attached explicitly.  The trace context travels out in
        ``X-Repro-Trace``, and a server-side span returned in
        ``X-Repro-Span`` is adopted into the client trace under this span
        (see :meth:`Tracer.record_remote`).
        """
        if not self.tracer.enabled:
            return self._transport_request(shard, path, payload, None)
        span = self.tracer.start_span(
            "remote" + path,
            parent_id=parent_span.span_id if parent_span is not None else None,
            shard=shard.name,
        )
        try:
            return self._transport_request(shard, path, payload, span)
        except BaseException as error:
            span.set_attribute("error", type(error).__name__)
            raise
        finally:
            self.tracer.finish_span(span)

    def _request(self, key: str, path: str, payload: Dict, parent_span) -> Dict:
        """One logical query: ``key``'s owner, then down its ranking.

        Only transport-level failures fail over (the next replica may be
        healthy); semantic 4xx rejections raise immediately — every
        replica would reject the same query.  A ``503 draining`` reply
        marks the shard down for its TTL without charging the breaker.
        """
        ranked = self.router.ranking(key)
        last_error: Optional[TransportError] = None
        tried = 0
        for shard in ranked:
            if tried == 0 and shard is not ranked[-1] and not shard.available():
                # the owner is known-down: skip straight to the failover
                # target its keys remap to (stable under rendezvous)
                continue
            tried += 1
            try:
                return self._shard_request(shard, path, payload, parent_span)
            except TransportError as error:
                message = str(error)
                if "503" in message and "draining" in message:
                    shard.mark_down("draining")
                    shard.breaker.record(True)  # a restart is not an outage
                else:
                    self.router.count_failover(shard)
                last_error = error
        assert last_error is not None
        raise last_error

    def _routing_keys(self, hw, queries: Sequence[Query]) -> List[str]:
        """One rendezvous key per query — built only when there is a choice."""
        if len(self.router) == 1:
            return [""] * len(queries)
        hw_id = self.hw_key(hw)
        return [
            candidate_key(hw_id, layer_name, mapping.key())
            for mapping, layer_name in queries
        ]

    def _fanout(self, requests: Sequence[Tuple[str, str, Dict]]) -> List:
        """Issue ``(key, path, payload)`` requests; replies in submission order.

        Each entry is the request's reply or the error it ended in.  One
        request (all a lone replica is ever sent) goes out on the caller's
        thread; several fly concurrently and all finish before this
        returns, so no connection is abandoned mid-flight.  The calling
        thread's current span (if any) parents every request span.
        """
        parent_span = self._parent_span()

        def attempt(request: Tuple[str, str, Dict]):
            try:
                return self._request(*request, parent_span)
            except Exception as error:  # noqa: BLE001 - re-raised by the merge
                return error

        if len(requests) == 1:
            return [attempt(requests[0])]
        with self._transport_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_inflight,
                    thread_name_prefix="fleet-client",
                )
            executor = self._executor
        return list(executor.map(attempt, requests))

    # -- engine contract --------------------------------------------------------
    @staticmethod
    def _layer_results(reply, groups: Sequence[QueryGroup]) -> Iterator[LayerPPA]:
        """Results of one request's reply, flat, in the order it was sent.

        Raises the request's transport error if that is what the fan-out
        brought back, and at a rejected item — after yielding the items
        before it, which the caller has then already stored.
        """
        if isinstance(reply, Exception):
            raise reply
        entries = reply.get("results")
        sent = [len(items) for _hw, items in groups]
        if not isinstance(entries, list) or sent != [
            len(group) if isinstance(group, list) else None for group in entries
        ]:
            raise EvaluationError(
                f"batched reply shape mismatch: sent groups of {sent} items, "
                f"got {entries!r}"
            )
        for (_hw, items), group_entries in zip(groups, entries):
            for (_mapping, layer_name), entry in zip(items, group_entries):
                yield _result_from_wire(entry, layer_name)

    def _compute_group_misses(
        self, miss_groups: Sequence[QueryGroup]
    ) -> Iterator[LayerPPA]:
        """One ``POST /evaluate_layers`` per shard, merged back in miss order.

        The base class charges queries, splits hits from misses, stores
        results and emits journal events; this hook only decides where
        each miss is computed.  A lone replica gets the whole call — every
        group's misses — as one request; across a fleet each shard's share
        is cut into ``batch_size`` chunks the fan-out overlaps.  A request
        carries its misses group by group in miss order and results are
        yielded by miss position, so a failure part-way keeps everything
        before it, as a serial loop would.
        """
        hw_wire = [encode_object(hw) for hw, _misses in miss_groups]
        #: every miss of the call, flat: (its group's index, the miss)
        flat = [
            (index, miss)
            for index, (_hw, misses) in enumerate(miss_groups)
            for miss in misses
        ]
        keys = [
            key
            for hw, misses in miss_groups
            for key in self._routing_keys(hw, misses)
        ]
        by_owner: Dict[str, List[int]] = {}
        for position, key in enumerate(keys):
            by_owner.setdefault(self.router.route(key).name, []).append(position)
        # a lone replica has nothing to overlap with: its share leaves uncut
        size = self.batch_size if len(self.router) > 1 else len(flat)
        requests: List[Tuple[str, str, Dict]] = []
        sent: List[Tuple[List[int], List[QueryGroup]]] = []
        for owned in by_owner.values():
            for chunk_start in range(0, len(owned), size):
                positions = owned[chunk_start : chunk_start + size]
                groups: List[QueryGroup] = []
                body: List[Dict] = []
                current = None
                for position in positions:
                    index, (mapping, layer_name) = flat[position]
                    if index != current:
                        current = index
                        groups.append((miss_groups[index][0], []))
                        body.append({"hw": hw_wire[index], "items": []})
                    groups[-1][1].append((mapping, layer_name))
                    body[-1]["items"].append([encode_object(mapping), layer_name])
                # all keys of a chunk share its owner: route by the first
                requests.append(
                    (keys[positions[0]], "/evaluate_layers", {"groups": body})
                )
                sent.append((positions, groups))
        start = time.perf_counter()
        replies = self._fanout(requests)
        self._compute_seconds.observe(time.perf_counter() - start)
        source: List[Optional[Iterator[LayerPPA]]] = [None] * len(flat)
        for (positions, groups), reply in zip(sent, replies):
            results = self._layer_results(reply, groups)
            for position in positions:
                source[position] = results
        for results in source:
            yield next(results)  # type: ignore[arg-type]

    def area_mm2(self, hw) -> float:
        return self.area_fn(hw)

    # -- fleet operations -------------------------------------------------------
    def health(self) -> Dict[str, Optional[Dict]]:
        """:meth:`ShardRouter.health_check`: ``{shard_name: payload | None}``
        from every shard's ``GET /health``, past the breakers, never raising."""
        return self.router.health_check()

    @property
    def num_circuit_rejections(self) -> int:
        """Requests failed fast by an open breaker, over all shards."""
        return sum(shard.breaker.num_rejections for shard in self.router.shards)

    def stats(self) -> Dict:
        merged = super().stats()
        fleet = self.router.stats()
        pools = [shard["pool"] for shard in fleet["shards"]]
        merged.update(
            {
                "num_network_retries": self.num_network_retries,
                "num_circuit_rejections": self.num_circuit_rejections,
                # connection counters, totalled over the shards' pools
                "pool": {
                    key: sum(pool[key] for pool in pools)
                    for key, value in pools[0].items()
                    if isinstance(value, int)
                },
                "fleet": fleet,
            }
        )
        return merged
