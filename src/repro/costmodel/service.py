"""The PPA estimation engine as a standalone REST service (Section 3.5).

"PPA Estimation Engine: A standalone REST API to call which requires
hardware configuration, SW mapping configuration, and a tensor workload as
inputs to estimate performance, power and area."

* :class:`PPAServiceServer` wraps any :class:`PPAEngine` behind a small
  HTTP/JSON endpoint — a route table on the shared serving core
  :mod:`repro.utils.httpcore` (POST ``/evaluate_layer``,
  POST ``/evaluate_layers`` (batched: one engine call per request),
  POST ``/aggregate``, GET ``/health``, GET ``/metrics``).
* :class:`RemotePPAEngine` is a drop-in :class:`PPAEngine` client: search
  tools talk to it exactly as they talk to an in-process engine, so the
  master-slave deployment of Fig. 6(b) only changes the engine wiring.

Fault tolerance: every network-level failure (connection refused, socket
timeout, truncated/malformed responses, 5xx replies) surfaces as
:class:`~repro.errors.TransportError` (an :class:`~repro.errors.EvaluationError`),
so the client composes with
:class:`~repro.costmodel.reliability.RetryingEngine`.  The client
additionally retries transient transport failures itself with exponential
backoff + jitter, and a small circuit breaker fails fast (for
``breaker_cooldown_s`` of real time) once the service looks down, instead
of burning a timeout per query.

Transport: requests travel over a keep-alive
:class:`~repro.fleet.pool.ConnectionPool` (the base URL is parsed once, at
construction), so chunked batch evaluations reuse warm sockets instead of
opening a TCP connection per request.  The server supports graceful
shutdown: :meth:`PPAServiceServer.begin_drain` (or the SIGTERM handler
installed by :meth:`PPAServiceServer.install_signal_handlers`) finishes
in-flight requests and answers new ones with a fast 503 instead of a hung
socket, so replica restarts don't read as breaker-tripping outages.

Payloads carry plain dicts of the hardware/mapping dataclass fields; the
server reconstructs typed objects via the registered codecs.  Tuple-typed
dataclass fields (e.g. ``GemmMapping.loop_order``) are restored from JSON
lists by inspecting the dataclass annotations, so new config types
round-trip without codec edits.
"""

from __future__ import annotations

import json
import random
import threading
import time
import typing
from http.client import HTTPException
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.camodel.mapping import AscendMapping
from repro.costmodel.engine import PPAEngine
from repro.costmodel.results import LayerPPA, NetworkPPA
from repro.errors import EvaluationError, TransportError
from repro.fleet.breaker import BreakerOpenError, CircuitBreaker
from repro.fleet.pool import ConnectionPool
from repro.hw.ascend import AscendHWConfig
from repro.hw.spatial import SpatialHWConfig
from repro.mapping.gemm_mapping import GemmMapping
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    format_trace_context,
    parse_trace_context,
)
from repro.utils.httpcore import HttpServer, Reply, Request, Route
from repro.utils.metrics import MetricsRegistry

#: Version of the ``GET /metrics`` JSON document (engine stats + registry
#: snapshot); bumped when the response shape changes so scrapers can detect
#: drift instead of diffing noisy dicts.
METRICS_SCHEMA_VERSION = 1

_HW_TYPES: Dict[str, type] = {
    "SpatialHWConfig": SpatialHWConfig,
    "AscendHWConfig": AscendHWConfig,
}
_MAPPING_TYPES: Dict[str, type] = {
    "GemmMapping": GemmMapping,
    "AscendMapping": AscendMapping,
}

_TUPLE_FIELDS_CACHE: Dict[type, FrozenSet[str]] = {}


def _tuple_fields(cls: type) -> FrozenSet[str]:
    """Names of ``cls`` fields annotated as tuples (JSON turns them into lists)."""
    cached = _TUPLE_FIELDS_CACHE.get(cls)
    if cached is None:
        hints = typing.get_type_hints(cls)
        cached = frozenset(
            name
            for name, hint in hints.items()
            if hint is tuple or typing.get_origin(hint) is tuple
        )
        _TUPLE_FIELDS_CACHE[cls] = cached
    return cached


def encode_object(obj) -> Dict:
    """Serialize a hardware config or mapping as {type, fields}.

    Underscore-prefixed attributes (precomputed caches such as
    ``GemmMapping._row``) are not constructor arguments and stay off the
    wire.
    """
    fields = {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    for name in _tuple_fields(type(obj)):
        if name in fields:
            fields[name] = list(fields[name])
    return {"type": type(obj).__name__, "fields": fields}


def decode_object(payload: Dict):
    """Inverse of :func:`encode_object`."""
    type_name = payload["type"]
    fields = dict(payload["fields"])
    if type_name in _HW_TYPES:
        cls = _HW_TYPES[type_name]
    elif type_name in _MAPPING_TYPES:
        cls = _MAPPING_TYPES[type_name]
    else:
        raise EvaluationError(f"unknown payload type {type_name!r}")
    for name in _tuple_fields(cls):
        if name in fields and isinstance(fields[name], list):
            fields[name] = tuple(fields[name])
    return cls(**fields)


def _layer_ppa_to_dict(result: LayerPPA) -> Dict:
    return {
        "latency_s": result.latency_s if result.feasible else None,
        "energy_j": result.energy_j if result.feasible else None,
        "feasible": result.feasible,
        "compute_cycles": result.compute_cycles,
        "noc_cycles": result.noc_cycles,
        "dram_cycles": result.dram_cycles,
        "dram_bytes": result.dram_bytes,
        "infeasible_reason": result.infeasible_reason,
    }


def _layer_ppa_from_dict(payload: Dict) -> LayerPPA:
    try:
        feasible = payload["feasible"]
        return LayerPPA(
            latency_s=payload["latency_s"] if feasible else float("inf"),
            energy_j=payload["energy_j"] if feasible else float("inf"),
            feasible=feasible,
            compute_cycles=payload.get("compute_cycles", 0.0),
            noc_cycles=payload.get("noc_cycles", 0.0),
            dram_cycles=payload.get("dram_cycles", 0.0),
            dram_bytes=payload.get("dram_bytes", 0.0),
            infeasible_reason=payload.get("infeasible_reason", ""),
        )
    except (KeyError, TypeError) as error:
        raise EvaluationError(f"malformed layer-PPA payload: {error}") from error


class PPAServiceServer(HttpServer):
    """Serve an engine over HTTP on localhost; use as a context manager.

    Shares the engine's metrics registry by default, so ``GET /metrics``
    exposes engine counters (queries, cache hits/evictions, compute
    latency) alongside the per-endpoint request/error counters the
    serving core (:mod:`repro.utils.httpcore`) records.
    """

    def __init__(
        self,
        engine: PPAEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
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
                ("POST", "/evaluate_layer"): Route(
                    self._post_evaluate_layer, rejections, timed=True
                ),
                ("POST", "/evaluate_layers"): Route(
                    self._post_evaluate_layers, rejections, timed=True
                ),
                ("POST", "/aggregate"): Route(
                    self._post_aggregate, rejections, timed=True
                ),
            },
            metrics if metrics is not None else engine.metrics,
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

    def _post_evaluate_layer(self, request: Request) -> Dict:
        payload = request.json()
        result = self.engine.evaluate_layer(
            decode_object(payload["hw"]),
            decode_object(payload["mapping"]),
            payload["layer"],
        )
        return _layer_ppa_to_dict(result)

    def _post_evaluate_layers(self, request: Request) -> Dict:
        engine = self.engine
        payload = request.json()
        hw = decode_object(payload["hw"])
        items = payload["items"]
        if not isinstance(items, list):
            raise EvaluationError("'items' must be a list")
        entries: List[Optional[Dict]] = [None] * len(items)
        valid: List[Tuple[int, Tuple[object, str]]] = []
        for index, item in enumerate(items):
            # one bad item must not poison the rest of the batch:
            # reject it here, evaluate the others in one engine call
            try:
                layer_name = item["layer"]
                if layer_name not in engine.layer_shapes:
                    raise EvaluationError(
                        f"layer {layer_name!r} not in workload "
                        f"{engine.network.name!r}"
                    )
                mapping = decode_object(item["mapping"])
            except (EvaluationError, KeyError, TypeError) as exc:
                entries[index] = {"ok": False, "error": str(exc)}
            else:
                valid.append((index, (mapping, layer_name)))
        if valid:
            results = engine.evaluate_layers(
                hw, [request_item for _index, request_item in valid]
            )
            for (index, _item), result in zip(valid, results):
                entries[index] = {
                    "ok": True,
                    "result": _layer_ppa_to_dict(result),
                }
        return {"results": entries}

    def _post_aggregate(self, request: Request) -> Dict:
        payload = request.json()
        hw = decode_object(payload["hw"])
        mappings = {
            name: decode_object(mapping)
            for name, mapping in payload["mappings"].items()
        }
        ppa = self.engine.aggregate(hw, mappings)
        return {
            "latency_s": ppa.latency_s if ppa.feasible else None,
            "energy_j": ppa.energy_j if ppa.feasible else None,
            "power_w": ppa.power_w if ppa.feasible else None,
            "area_mm2": ppa.area_mm2,
            "feasible": ppa.feasible,
        }


#: transport-level exceptions that indicate "try again", not "bad query"
_TRANSIENT_ERRORS = (HTTPException, OSError, json.JSONDecodeError)


class RemotePPAEngine(PPAEngine):
    """A :class:`PPAEngine` that forwards queries to a PPA service.

    Keeps the local cache and clock semantics of the base class; only the
    uncached computation goes over the wire.  ``area_mm2`` is computed by a
    locally supplied function (areas depend only on the hardware config).

    Transport hardening (all real-time, invisible to the simulated clock):

    * every network-level failure raises :class:`EvaluationError`, so
      :class:`~repro.costmodel.reliability.RetryingEngine` wrappers see it;
    * transient transport failures are retried up to
      ``max_network_retries`` times with exponential backoff
      (``backoff_base_s * 2**attempt``, capped at ``backoff_max_s``) plus
      seeded jitter;
    * after ``breaker_threshold`` consecutive request failures the circuit
      opens: queries fail fast for ``breaker_cooldown_s`` seconds, then a
      single probe is allowed through (half-open).

    4xx replies are semantic rejections (bad layer, malformed mapping):
    they raise immediately without transport retries and do not trip the
    breaker — the service is alive and answering.

    Batching: the base class's :meth:`evaluate_layers` does all query
    accounting (clock, counters, cache, samples); this class overrides
    only :meth:`_compute_misses`, shipping the misses as
    ``POST /evaluate_layers`` chunks of ``batch_size`` that the server
    answers with one engine call each.
    """

    def __init__(
        self,
        network,
        base_url: str,
        area_fn: Callable[[object], float],
        timeout_s: float = 10.0,
        max_network_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter_fraction: float = 0.25,
        jitter_seed: int = 0,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
        batch_size: int = 16,
        pool_max_idle: int = 8,
        **kwargs,
    ):
        super().__init__(network, **kwargs)
        if max_network_retries < 0:
            raise EvaluationError(
                f"max_network_retries must be >= 0, got {max_network_retries}"
            )
        if breaker_threshold < 1:
            raise EvaluationError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        if batch_size < 1:
            raise EvaluationError(f"batch_size must be >= 1, got {batch_size}")
        self.base_url = base_url.rstrip("/")
        self.area_fn = area_fn
        self.timeout_s = timeout_s
        self.max_network_retries = max_network_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.jitter_fraction = jitter_fraction
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.batch_size = batch_size
        self._jitter_rng = random.Random(jitter_seed)
        self.num_network_retries = 0
        self.num_circuit_rejections = 0
        #: the URL is parsed exactly once, inside the pool; requests join
        #: paths onto the parsed origin instead of re-parsing per call
        self._pool = ConnectionPool(
            self.base_url, timeout_s=timeout_s, max_idle=pool_max_idle
        )
        self._breaker = CircuitBreaker(
            self.base_url, breaker_threshold, breaker_cooldown_s
        )
        #: transport-only lock (jitter RNG).  Backoff and breaker state
        #: deliberately stay off the engine cache lock ``self._lock``: one
        #: chunk backing off must not serialize unrelated concurrent
        #: requests or cache lookups.
        self._transport_lock = threading.Lock()

    # -- transport --------------------------------------------------------------
    def _backoff_delay(self, attempt: int) -> float:
        base = min(self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_max_s)
        with self._transport_lock:
            jitter = self._jitter_rng.random()
        return base * (1.0 + self.jitter_fraction * jitter)

    def _breaker_gate(self, breaker: CircuitBreaker) -> None:
        """Fail fast while ``breaker`` is open, with client-side counting."""
        try:
            breaker.check()
        except BreakerOpenError:
            self.num_circuit_rejections += 1
            self.metrics.counter("remote_circuit_rejections_total").inc()
            raise

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

    def _request_json(self, path: str, payload: Optional[Dict] = None) -> Dict:
        """One logical request: breaker gate, transport retries, JSON reply.

        Under a tracing client the request gets a ``remote<path>`` span,
        the trace context travels out in ``X-Repro-Trace``, and a
        server-side span returned in ``X-Repro-Span`` is adopted into the
        client trace (see :meth:`Tracer.record_remote`).
        """
        if self.tracer.enabled:
            with self.tracer.span("remote" + path) as span:
                return self._transport_request(
                    self._pool, self._breaker, path, payload, span
                )
        return self._transport_request(
            self._pool, self._breaker, path, payload, None
        )

    def _transport_request(
        self,
        pool: ConnectionPool,
        breaker: CircuitBreaker,
        path: str,
        payload: Optional[Dict],
        span,
        shard: Optional[str] = None,
    ) -> Dict:
        """Breaker gate → pooled keep-alive exchange → retry policy → JSON.

        Shared by the single-URL path and the sharded client (which passes
        each shard's own pool/breaker plus its name for metric labels).
        """
        self._breaker_gate(breaker)
        data = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        method = "POST" if data is not None else "GET"
        self.metrics.counter("remote_requests_total").inc()
        if shard is not None:
            self.metrics.counter(f"fleet_requests_total[shard={shard}]").inc()
        headers = {"Content-Type": "application/json"}
        if span is not None:
            headers["X-Repro-Trace"] = format_trace_context(self.tracer, span)
        last_error: Optional[TransportError] = None
        for attempt in range(self.max_network_retries + 1):
            if attempt:
                self.num_network_retries += 1
                self.metrics.counter("remote_network_retries_total").inc()
                # no lock is held across this sleep: one chunk backing off
                # must not stall concurrent requests on other threads
                time.sleep(self._backoff_delay(attempt))
            try:
                start = time.perf_counter()
                response = pool.request(method, path, body=data, headers=headers)
                elapsed = time.perf_counter() - start
                self.metrics.histogram("remote_request_seconds").observe(
                    elapsed
                )
                if response.status >= 500:
                    detail = self._error_detail(
                        response.body, f"HTTP {response.status}"
                    )
                    last_error = TransportError(
                        f"service error {response.status} on {path}: {detail}"
                    )
                    continue
                if response.status >= 400:
                    # semantic rejection: the service is up and answered
                    self._breaker_report(breaker, success=True)
                    detail = self._error_detail(
                        response.body, f"HTTP {response.status}"
                    )
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

    # -- engine contract --------------------------------------------------------
    def _compute_layer(self, hw, mapping, shape) -> LayerPPA:
        raise NotImplementedError(
            "RemotePPAEngine dispatches by layer name; "
            "_compute_layer_by_name handles all queries"
        )

    def _compute_layer_by_name(self, hw, mapping, layer_name, shape) -> LayerPPA:
        payload = {
            "hw": encode_object(hw),
            "mapping": encode_object(mapping),
            "layer": layer_name,
        }
        return _layer_ppa_from_dict(self._request_json("/evaluate_layer", payload))

    @staticmethod
    def _layers_payload(
        hw_wire: Dict, chunk: Sequence[Tuple["GemmMapping", str]]
    ) -> Dict:
        """``POST /evaluate_layers`` body for one chunk of misses."""
        return {
            "hw": hw_wire,
            "items": [
                {"mapping": encode_object(mapping), "layer": layer_name}
                for mapping, layer_name in chunk
            ],
        }

    @staticmethod
    def _layer_results(
        reply: Dict, chunk: Sequence[Tuple["GemmMapping", str]]
    ) -> Iterator[LayerPPA]:
        """Results of one chunk's reply, in order; a rejected item raises."""
        entries = reply.get("results")
        if not isinstance(entries, list) or len(entries) != len(chunk):
            raise EvaluationError(
                f"batched reply shape mismatch: sent {len(chunk)} items, "
                f"got {entries!r}"
            )
        for (_mapping, layer_name), entry in zip(chunk, entries):
            if not entry.get("ok"):
                raise EvaluationError(
                    f"batched evaluation failed for {layer_name}: "
                    f"{entry.get('error')}"
                )
            yield _layer_ppa_from_dict(entry["result"])

    def _compute_misses(
        self, hw, misses: Sequence[Tuple["GemmMapping", str]]
    ) -> Iterator[LayerPPA]:
        """Cache misses travel as one ``POST /evaluate_layers`` per chunk."""
        hw_wire = encode_object(hw)
        for chunk_start in range(0, len(misses), self.batch_size):
            chunk = misses[chunk_start : chunk_start + self.batch_size]
            start = time.perf_counter()
            reply = self._request_json(
                "/evaluate_layers", self._layers_payload(hw_wire, chunk)
            )
            self.metrics.histogram("engine_compute_seconds").observe(
                time.perf_counter() - start
            )
            yield from self._layer_results(reply, chunk)

    def area_mm2(self, hw) -> float:
        return self.area_fn(hw)

    def health(self) -> Dict:
        """Service liveness probe; network failures raise EvaluationError."""
        return self._request_json("/health")

    def service_metrics(self) -> Dict:
        """Fetch the remote ``GET /metrics`` snapshot."""
        return self._request_json("/metrics")

    def stats(self) -> Dict:
        merged = super().stats()
        merged.update(
            {
                "base_url": self.base_url,
                "num_network_retries": self.num_network_retries,
                "num_circuit_rejections": self.num_circuit_rejections,
                "pool": self._pool.stats(),
            }
        )
        return merged

    # -- pickling (process-backend rounds ship engine copies) -------------------
    def __getstate__(self) -> Dict:
        state = super().__getstate__()
        del state["_transport_lock"]
        return state

    def __setstate__(self, state: Dict) -> None:
        super().__setstate__(state)
        self._transport_lock = threading.Lock()
