"""The PPA estimation engine as a standalone REST service (Section 3.5).

"PPA Estimation Engine: A standalone REST API to call which requires
hardware configuration, SW mapping configuration, and a tensor workload as
inputs to estimate performance, power and area."

* :class:`PPAServiceServer` wraps any :class:`PPAEngine` behind a small
  HTTP/JSON endpoint (stdlib ``http.server``; POST ``/evaluate_layer``,
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
import signal
import socket
import threading
import time
import typing
from http.client import HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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
from urllib.error import URLError
from urllib.parse import parse_qs, urlsplit

from repro.camodel.mapping import AscendMapping
from repro.costmodel.engine import PPAEngine
from repro.costmodel.results import LayerPPA, NetworkPPA
from repro.errors import EvaluationError, TransportError
from repro.fleet.breaker import BreakerOpenError, CircuitBreaker
from repro.fleet.pool import ConnectionPool
from repro.hw.ascend import AscendHWConfig
from repro.hw.spatial import SpatialHWConfig
from repro.mapping.gemm_mapping import GemmMapping
from repro.obs.prom import render_prometheus
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    format_trace_context,
    parse_trace_context,
)
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


class PPAServiceServer:
    """Serve an engine over HTTP on localhost; use as a context manager.

    Shares the engine's metrics registry by default, so ``GET /metrics``
    exposes engine counters (queries, cache hits/evictions, compute
    latency) alongside the per-endpoint request/error counters recorded
    here.
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
        self.metrics = metrics if metrics is not None else engine.metrics
        #: server-side span tracer.  With a real tracer, every POST opens a
        #: ``service<path>`` span whose finished form travels back in the
        #: ``X-Repro-Span`` response header, letting tracing clients stitch
        #: it into their own trace.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: graceful-shutdown state: once draining, new requests get a fast
        #: 503 while in-flight ones run to completion (see :meth:`stop`)
        self._draining = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        handler = self._make_handler()
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _make_handler(self):
        engine = self.engine
        metrics = self.metrics
        tracer = self.tracer
        server = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.1 keeps connections alive between exchanges, so the
            # pooled client actually reuses sockets; every reply carries
            # an explicit Content-Length, which 1.1 keep-alive requires.
            protocol_version = "HTTP/1.1"
            # headers and body flush as separate small writes; with Nagle
            # on, the second write waits ~40ms for the client's delayed
            # ACK of the first on every keep-alive exchange
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # silence request logging
                pass

            def _begin_request(self) -> bool:
                """Admit the request, or False once the server is draining."""
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
                # drain the request body first so the keep-alive socket
                # stays parseable for the client's next exchange
                length = int(self.headers.get("Content-Length", 0))
                if length:
                    self.rfile.read(length)
                self._span = None
                metrics.counter("service_drain_rejections_total").inc()
                self._reply(503, {"error": "service draining"})

            def _finish_span(self, status: int) -> Optional[str]:
                """Close the request span, returning its wire JSON."""
                span = getattr(self, "_span", None)
                self._span = None
                if span is None:
                    return None
                span.set_attribute("status", status)
                return json.dumps(tracer.finish_span(span))

            def _reply(self, status: int, payload: Dict) -> None:
                span_json = self._finish_span(status)
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                # count before the body leaves the socket: once the client
                # has the reply it may immediately scrape /metrics, and the
                # request that produced the reply must already be there
                metrics.counter(f"service_requests_total[{self.path}]").inc()
                if status >= 400:
                    metrics.counter("service_errors_total").inc()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                if span_json is not None:
                    self.send_header("X-Repro-Span", span_json)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _reply_text(self, status: int, text: str) -> None:
                """Plain-text reply (the Prometheus exposition path)."""
                body = text.encode("utf-8")
                metrics.counter(f"service_requests_total[{self.path}]").inc()
                self.send_response(status)
                self.send_header(
                    "Content-Type", "text/plain; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if not self._begin_request():
                    self._reject_draining()
                    return
                try:
                    self._do_get()
                finally:
                    self._end_request()

            def _do_get(self):
                parsed = urlsplit(self.path)
                if parsed.path == "/health":
                    self._reply(
                        200,
                        {
                            "status": "ok",
                            "workload": engine.network.name,
                            "queries": engine.num_queries,
                        },
                    )
                elif parsed.path == "/metrics":
                    wants = parse_qs(parsed.query).get("format", ["json"])
                    if wants and wants[-1] == "prom":
                        self._reply_text(
                            200, render_prometheus(metrics.snapshot())
                        )
                        return
                    self._reply(
                        200,
                        {
                            "schema_version": METRICS_SCHEMA_VERSION,
                            "engine": engine.stats(),
                            "metrics": metrics.snapshot(),
                        },
                    )
                else:
                    self._reply(404, {"error": f"unknown path {self.path}"})

            def _evaluate_layers(self, request: Dict) -> None:
                hw = decode_object(request["hw"])
                items = request["items"]
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
                self._reply(200, {"results": entries})

            def do_POST(self):
                if not self._begin_request():
                    self._reject_draining()
                    return
                try:
                    self._do_post()
                finally:
                    self._end_request()

            def _do_post(self):
                start = time.perf_counter()
                self._span = None
                if tracer.enabled:
                    context = parse_trace_context(
                        self.headers.get("X-Repro-Trace")
                    )
                    span = tracer.start_span(
                        f"service{self.path}",
                        parent_id=context[1] if context else None,
                    )
                    if context:
                        # adopt the caller's trace identity so server-side
                        # sinks record the request under the client's trace
                        span.trace_id = context[0]
                    self._span = span
                length = int(self.headers.get("Content-Length", 0))
                try:
                    request = json.loads(self.rfile.read(length))
                except json.JSONDecodeError:
                    self._reply(400, {"error": "invalid JSON"})
                    return
                try:
                    if self.path == "/evaluate_layer":
                        result = engine.evaluate_layer(
                            decode_object(request["hw"]),
                            decode_object(request["mapping"]),
                            request["layer"],
                        )
                        self._reply(200, _layer_ppa_to_dict(result))
                    elif self.path == "/evaluate_layers":
                        self._evaluate_layers(request)
                    elif self.path == "/aggregate":
                        hw = decode_object(request["hw"])
                        mappings = {
                            name: decode_object(mapping)
                            for name, mapping in request["mappings"].items()
                        }
                        ppa = engine.aggregate(hw, mappings)
                        self._reply(
                            200,
                            {
                                "latency_s": ppa.latency_s if ppa.feasible else None,
                                "energy_j": ppa.energy_j if ppa.feasible else None,
                                "power_w": ppa.power_w if ppa.feasible else None,
                                "area_mm2": ppa.area_mm2,
                                "feasible": ppa.feasible,
                            },
                        )
                    else:
                        self._reply(404, {"error": f"unknown path {self.path}"})
                except (EvaluationError, KeyError) as exc:
                    self._reply(400, {"error": str(exc)})
                except Exception as exc:  # malformed payloads must still get JSON
                    self._reply(
                        500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
                    )
                finally:
                    metrics.histogram("service_request_seconds").observe(
                        time.perf_counter() - start
                    )

        return Handler

    def start(self) -> "PPAServiceServer":
        # shutdown() waits out one poll of the accept loop (stdlib
        # default 0.5 s), so every stop and test teardown costs one poll
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    # -- graceful shutdown ------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight_requests(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def begin_drain(self) -> None:
        """Stop admitting requests; in-flight ones run to completion.

        New requests get an immediate ``503 {"error": "service draining"}``
        — a fast, explicit signal clients route around (the sharded client
        re-routes without charging its breaker), instead of the hung
        socket a plain ``shutdown()`` would leave them holding.
        """
        with self._inflight_cv:
            self._draining = True

    def drain(self, timeout_s: float = 5.0) -> bool:
        """Wait for in-flight requests to finish; True when fully drained."""
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout_s
            )

    def stop(self, drain_timeout_s: float = 5.0) -> None:
        """Drain in-flight requests (bounded), then shut the listener down."""
        self.begin_drain()
        self.drain(timeout_s=drain_timeout_s)
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
        """SIGTERM/SIGINT → graceful drain + shutdown (replica processes).

        Must run on the main thread (a CPython ``signal`` requirement).
        The handler only flips the drain flag and hands the blocking stop
        to a helper thread, as signal handlers must not block.
        """

        def _handle(signum, frame):  # noqa: ARG001 - signal handler signature
            self.begin_drain()

            def _shutdown() -> None:
                self.stop(drain_timeout_s=drain_timeout_s)
                if on_stopped is not None:
                    on_stopped()

            threading.Thread(target=_shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def __enter__(self) -> "PPAServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


#: transport-level exceptions that indicate "try again", not "bad query"
_TRANSIENT_ERRORS = (URLError, HTTPException, socket.timeout, OSError,
                     json.JSONDecodeError)


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

    def _breaker_check(self) -> None:
        self._breaker_gate(self._breaker)

    def _breaker_record(self, success: bool) -> None:
        self._breaker_report(self._breaker, success)

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
                return self._request_json_impl(path, payload, span)
        return self._request_json_impl(path, payload, None)

    def _request_json_impl(
        self, path: str, payload: Optional[Dict], span
    ) -> Dict:
        """Untraced transport loop behind :meth:`_request_json`."""
        return self._transport_request(
            self._pool, self._breaker, path, payload, span
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
