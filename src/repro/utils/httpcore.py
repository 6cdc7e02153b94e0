"""One small HTTP/1.1 serving core: keep-alive exchanges over a route table.

The PPA service (:mod:`repro.costmodel.service`) and the hub
(:mod:`repro.hub.server`) are :class:`HttpServer` subclasses that hand it
a route table; what a server needs besides its endpoints lives here, once:

* the exchange loop — request line and headers read with ``readline``
  into a lower-cased dict (:func:`read_head`, which the pooled client in
  :mod:`repro.fleet.pool` reads reply heads with too), the body read by
  ``Content-Length``, the reply written head + body in **one** ``write``;
* admission, drain and the fast 503, in-flight accounting, ``stop()`` and
  the SIGTERM/SIGINT handlers;
* ``<prefix>_requests_total[<route>]`` — labelled by the matched route
  *pattern*, ``[unknown]`` for everything else, so no request target can
  grow the registry — ``<prefix>_errors_total``,
  ``<prefix>_drain_rejections_total`` and, for ``timed`` routes, the
  ``<prefix>_request_seconds`` histogram (headers parsed → reply written);
  what every exchange records is looked up by its first event and held;
* JSON / text / streaming reply helpers and a route's exception → status
  mapping.

A route table maps ``(method, pattern)`` to a :class:`Route`; a pattern is
a literal path or has ``<name>`` segments, which arrive in
``Request.params``::

    {("GET", "/health"): Route(self._health),
     ("POST", "/runs/<id>/cancel"): Route(self._cancel, errors=...)}

DESIGN.md ("Wire exchange") lists the HTTP features implemented, the
stdlib limits kept and what is refused.  This module imports nothing from
``costmodel``, ``fleet`` or ``hub``.
"""

from __future__ import annotations

import json
import re
import signal
import socketserver
import threading
import time
from functools import cached_property
from http import HTTPStatus
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs

from repro.utils.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "HeadError",
    "HttpServer",
    "Reply",
    "Request",
    "Route",
    "json_reply",
    "read_head",
    "stream_reply",
    "text_reply",
]

#: longest start line / header line, and most header lines, accepted in
#: one message head (the stdlib's ``_MAXLINE`` and ``_MAXHEADERS``)
MAX_LINE = 65536
MAX_HEADERS = 100
#: how long a stopping server waits for in-flight requests (seconds)
DRAIN_TIMEOUT_S = 5.0

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_VERSION = re.compile(r"HTTP/(\d+)\.(\d+)")


class HeadError(Exception):
    """A message head (or request) the core refuses; ``status`` is the
    reply a server owes for it, after which it closes the socket."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def read_head(rfile) -> Optional[Tuple[List[str], Dict[str, str]]]:
    """The next message head: its start line split into at most three
    fields, and its headers with names lower-cased (a repeated header
    keeps its last value).  ``None`` when the peer has hung up."""
    line = rfile.readline(MAX_LINE + 1)
    if not line.strip():
        return None
    if len(line) > MAX_LINE:
        raise HeadError(414, "start line too long")
    start = line.decode("iso-8859-1").rstrip("\r\n").split(None, 2)
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadError(431, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            return start, headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or name != name.strip():  # also refuses line folding
            raise HeadError(400, f"bad header line {line[:80]!r}")
        headers[name.lower()] = value.strip()
    raise HeadError(431, "too many headers")


class Request:
    """One parsed request: what a route handler gets."""

    __slots__ = ("method", "path", "query_string", "headers", "body", "params")

    def __init__(self, method: str, target: str, headers: Dict[str, str]):
        self.method = method
        self.path, _, self.query_string = target.partition("?")
        self.headers = headers
        self.body = b""
        #: values of the ``<name>`` segments of the matched route pattern
        self.params: Dict[str, str] = {}

    @property
    def query(self) -> Dict[str, List[str]]:
        """The query string as ``parse_qs`` gives it."""
        return parse_qs(self.query_string)

    def json(self):
        """The body decoded as JSON; an empty body reads as ``{}``."""
        return json.loads(self.body) if self.body else {}


class Reply(NamedTuple):
    """A handler's answer: a complete ``body``, or a ``stream`` pump that
    is handed the socket's ``write`` and streams until it returns."""

    status: int
    content_type: str
    body: bytes = b""
    headers: Optional[Dict[str, str]] = None
    stream: Optional[Callable[[Callable[[bytes], object]], None]] = None


#: the one encoder of every JSON reply: ``json.dumps(..., sort_keys=True)``
#: without building an encoder per call
_encode_reply = json.JSONEncoder(sort_keys=True).encode


def json_reply(status: int, payload) -> Reply:
    """A JSON reply (keys sorted, so equal payloads are equal bytes)."""
    return Reply(status, "application/json", _encode_reply(payload).encode("utf-8"))


def text_reply(status: int, text: str) -> Reply:
    """A plain-text reply (the Prometheus exposition path)."""
    return Reply(status, "text/plain; charset=utf-8", text.encode("utf-8"))


def stream_reply(pump: Callable[[Callable[[bytes], object]], None]) -> Reply:
    """A server-sent-event stream: whatever ``pump(write)`` writes.

    Its length is unknowable, so end-of-body is connection close: the
    head carries ``Connection: close`` and the socket is closed when the
    pump returns or its peer goes away.
    """
    return Reply(
        200, "text/event-stream", headers={"Cache-Control": "no-cache"},
        stream=pump,
    )


class Route(NamedTuple):
    """One row of a route table."""

    #: returns a :class:`Reply`, or a JSON-able payload for a plain 200
    handler: Callable[[Request], object]
    #: ``(exception type, status)`` pairs: what a raised exception answers
    #: with (its message as ``{"error": ...}``); anything else is a 500
    errors: Tuple[Tuple[type, int], ...] = ()
    #: observe ``<prefix>_request_seconds`` for this route
    timed: bool = False


class _Exchanges(socketserver.StreamRequestHandler):
    """One connection: exchanges in arrival order until either side closes."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self.server.core._exchange(self.rfile, self.wfile.write):
                pass
        except OSError:
            pass  # the peer went away mid-exchange; nothing to answer


class _Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    core: "HttpServer"


class HttpServer:
    """Serve a route table on ``host:port``; use as a context manager."""

    def __init__(
        self,
        host: str,
        port: int,
        routes: Dict[Tuple[str, str], Route],
        metrics: MetricsRegistry,
        prefix: str,
        draining_error: str,
    ):
        self.metrics = metrics
        #: metric-name prefix (``service`` / ``hub``)
        self._prefix = prefix
        self._draining_error = draining_error
        self._methods = frozenset(method for method, _pattern in routes)
        self._static = {
            key: (key[1], route)
            for key, route in routes.items()
            if "<" not in key[1]
        }
        self._patterns = [
            (
                method,
                re.compile(re.sub(r"<(\w+)>", r"(?P<\1>[^/]+)", pattern) + "$"),
                pattern,
                route,
            )
            for (method, pattern), route in routes.items()
            if "<" in pattern
        ]
        #: ``<prefix>_requests_total[<label>]`` by label, each looked up in
        #: the registry by its first request and held from then on
        self._requests_total: Dict[str, Counter] = {}
        #: graceful-shutdown state: once draining, new requests get a fast
        #: 503 while in-flight ones run to completion (see :meth:`stop`)
        self._draining = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._listener = _Listener((host, port), _Exchanges)
        self._listener.core = self
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "HttpServer":
        # shutdown() waits out one poll of the accept loop (stdlib
        # default 0.5 s), so every stop and test teardown costs one poll
        self._thread = threading.Thread(
            target=self._listener.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight_requests(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def begin_drain(self) -> None:
        """Stop admitting requests; in-flight ones run to completion.

        New requests get an immediate ``503 {"error": "... draining"}``
        — a fast, explicit signal clients route around (the remote engine
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

    def stop(self, drain_timeout_s: float = DRAIN_TIMEOUT_S) -> None:
        """Drain in-flight requests (bounded), then shut the listener down."""
        self.begin_drain()
        self.drain(timeout_s=drain_timeout_s)
        self._listener.shutdown()
        self._listener.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def install_signal_handlers(self) -> threading.Event:
        """SIGTERM/SIGINT → graceful drain + shutdown; returns the event
        that is set once the server has stopped, for ``main`` to wait on.

        Must run on the main thread (a CPython ``signal`` requirement).
        The handler only flips the drain flag and hands the blocking stop
        to a helper thread, as signal handlers must not block.
        """
        stopped = threading.Event()

        def _shutdown() -> None:
            self.stop()
            stopped.set()

        def _handle(signum, frame):  # noqa: ARG001 - signal handler signature
            self.begin_drain()
            threading.Thread(target=_shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)
        return stopped

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def metrics_reply(self, request: Request, **document):
        """``GET /metrics``: ``document`` plus the registry snapshot as
        JSON, or the registry as Prometheus text for ``?format=prom``."""
        if request.query.get("format", ["json"])[-1] == "prom":
            return text_reply(200, self.metrics.render_text())
        return dict(document, metrics=self.metrics.snapshot())

    # -- one exchange -----------------------------------------------------------
    def _match(self, request: Request) -> Tuple[str, Optional[Route]]:
        """The route for ``request`` and the label it is counted under."""
        found = self._static.get((request.method, request.path))
        if found is not None:
            return found
        for method, regex, pattern, route in self._patterns:
            matched = method == request.method and regex.match(request.path)
            if matched:
                request.params = matched.groupdict()
                return pattern, route
        return "unknown", None

    def _read_request(self, rfile, write) -> Optional[Tuple[Request, int]]:
        """The next request (body still unread) and its body length."""
        head = read_head(rfile)
        if head is None:
            return None
        words, headers = head
        found = _VERSION.fullmatch(words[-1])
        if len(words) != 3 or not found:  # HTTP/0.9 included
            raise HeadError(400, f"bad request line {' '.join(words)[:80]!r}")
        version = (int(found[1]), int(found[2]))
        if version >= (2, 0):
            raise HeadError(505, f"unsupported HTTP version {words[2]!r}")
        if words[0] not in self._methods:
            raise HeadError(501, f"unsupported method {words[0]!r}")
        if "transfer-encoding" in headers:
            raise HeadError(501, "Transfer-Encoding request bodies unsupported")
        length = headers.get("content-length", "0")
        if not length.isdecimal():
            raise HeadError(400, f"bad Content-Length {length[:80]!r}")
        if version < (1, 1):
            # an HTTP/1.0 peer gets its one reply and a closed socket
            headers["connection"] = "close"
        elif headers.get("expect", "").lower() == "100-continue":
            write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return Request(words[0], words[1], headers), int(length)

    def _exchange(self, rfile, write) -> bool:
        """Read one request and answer it; False once the socket is done."""
        try:
            parsed = self._read_request(rfile, write)
        except HeadError as error:
            self._send(
                write, "unknown",
                json_reply(error.status, {"error": str(error)}), close=True,
            )
            return False
        if parsed is None:
            return False
        request, length = parsed
        start = time.perf_counter()
        if length:
            # read even when about to refuse, so the keep-alive socket
            # stays parseable for the client's next exchange
            request.body = rfile.read(length)
            if len(request.body) < length:
                return False
        close = request.headers.get("connection", "").lower() == "close"
        label, route = self._match(request)
        with self._inflight_cv:
            admitted = not self._draining
            if admitted:
                self._inflight += 1
        if not admitted:
            self.metrics.counter(f"{self._prefix}_drain_rejections_total").inc()
            reply = json_reply(503, {"error": self._draining_error})
            self._send(write, label, reply, close)
            return not close
        try:
            if route is None:
                reply = json_reply(
                    404, {"error": f"unknown path {request.path}"}
                )
            else:
                reply = self._dispatch(route, request)
            close = close or reply.stream is not None
            self._send(write, label, reply, close)
            if reply.stream is not None:
                reply.stream(write)  # OSError: client went away; see handle()
            elif route is not None and route.timed:
                self._request_seconds.observe(time.perf_counter() - start)
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()
        return not close

    def _dispatch(self, route: Route, request: Request) -> Reply:
        """Run a route's handler; whatever it raises still answers in JSON."""
        try:
            reply = route.handler(request)
            return reply if isinstance(reply, Reply) else json_reply(200, reply)
        except json.JSONDecodeError:
            return json_reply(400, {"error": "invalid JSON"})
        except Exception as error:
            for kind, status in route.errors:
                if isinstance(error, kind):
                    return json_reply(status, {"error": str(error)})
            return json_reply(
                500,
                {"error": f"internal error: {type(error).__name__}: {error}"},
            )

    # the core's instruments, each made by its first event (a snapshot
    # lists an instrument from the moment it exists) and held after it
    @cached_property
    def _request_seconds(self) -> Histogram:
        return self.metrics.histogram(f"{self._prefix}_request_seconds")

    @cached_property
    def _errors_total(self) -> Counter:
        return self.metrics.counter(f"{self._prefix}_errors_total")

    def _send(self, write, label: str, reply: Reply, close: bool) -> None:
        """Count the reply, then write head + body as one segment."""
        # count before the body leaves the socket: once the client has the
        # reply it may immediately scrape /metrics, and the request that
        # produced the reply must already be there
        counter = self._requests_total.get(label)
        if counter is None:
            counter = self._requests_total[label] = self.metrics.counter(
                f"{self._prefix}_requests_total[{label}]"
            )
        counter.inc()
        if reply.status >= 400:
            self._errors_total.inc()
        head = (
            f"HTTP/1.1 {reply.status} {_REASONS.get(reply.status, '')}\r\n"
            f"Content-Type: {reply.content_type}\r\n"
        )
        if reply.stream is None:
            head += f"Content-Length: {len(reply.body)}\r\n"
        for name, value in (reply.headers or {}).items():
            head += f"{name}: {value}\r\n"
        if close:
            head += "Connection: close\r\n"
        write(head.encode("iso-8859-1") + b"\r\n" + reply.body)
