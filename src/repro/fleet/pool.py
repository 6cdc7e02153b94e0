"""Keep-alive HTTP/1.1 connection pool over plain sockets (stdlib only).

Holds persistent HTTP/1.1 keep-alive connections to one origin and hands
them out to concurrent callers, so the remote engine's in-flight fan-out
reuses warm sockets instead of paying a handshake per chunk.

One exchange is one ``sendall`` (request head + body in a single segment)
and a ``readline`` parse of the reply head (the serving core's own
:func:`~repro.utils.httpcore.read_head`) and its ``Content-Length`` (or
chunked, or read-to-EOF) body.  Transport faults surface as ``OSError``
or ``http.client``'s exception types (``BadStatusLine``,
``IncompleteRead``, ``RemoteDisconnected``), so callers' retry policies
see what they always saw.

An exchange that is the only one in flight in the process polls its
socket for the reply for up to :data:`REPLY_POLL_S` before it blocks:
a PPA reply is a few hundred microseconds away, and a thread that
sleeps for it halts its CPU, which the reply must then wake — on a
virtual machine, a cost both ends pay.  Concurrent exchanges (a fleet's
fan-out, a scraper beside a search) never poll, so no two threads spin
under one GIL.

Failure handling is deliberately conservative:

* a connection that errors mid-exchange is **discarded**, never pooled;
* an exchange that fails on a *reused* connection is retried once on a
  fresh one — the server closing an idle keep-alive socket between
  requests is routine, not an outage (the PPA endpoints are idempotent
  evaluations, so the replay is safe);
* non-2xx statuses are returned, not raised — the transport layer of the
  engine owns retry/breaker policy.
"""

from __future__ import annotations

import re
import select
import socket
import ssl
import threading
import time
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    InvalidURL,
    RemoteDisconnected,
)
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import EvaluationError
from repro.utils.httpcore import MAX_LINE, HeadError, read_head

__all__ = ["ConnectionPool", "PoolResponse"]

#: what a request target may not contain (a run id typed on a command
#: line ends up in one): whitespace and control characters
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]")

#: How long a lone exchange polls for its reply before a blocking read,
#: in seconds.  Chosen by a sweep over {0.25, 0.5, 1, 2, 4} ms on a
#: co-search through one replica, and kept by a second sweep over
#: {0.25, 0.5, 1, 2} ms once the replica's handler got shorter
#: (DESIGN.md §4n).
REPLY_POLL_S = 0.001

#: exchanges in flight in this process, over every pool
_in_flight = 0
_in_flight_lock = threading.Lock()


class PoolResponse:
    """One completed HTTP exchange: status, headers (names lower-cased),
    body bytes."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: Dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body


class _Connection:
    """One pooled socket, as ``sock`` (tests close it to play a server
    reaping an idle keep-alive connection)."""

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def close(self) -> None:
        self.sock.close()


def _read_exactly(rfile, length: int) -> bytes:
    data = rfile.read(length)
    if len(data) < length:
        raise IncompleteRead(data, length - len(data))
    return data


def _read_chunked(rfile) -> bytes:
    """A ``Transfer-Encoding: chunked`` body; extensions, trailers dropped."""
    chunks = []
    while True:
        try:
            size = int(rfile.readline(MAX_LINE).split(b";", 1)[0], 16)
        except ValueError:
            raise IncompleteRead(b"".join(chunks)) from None
        if size == 0:
            break
        chunks.append(_read_exactly(rfile, size + 2)[:-2])  # chunk + CRLF
    while rfile.readline(MAX_LINE) not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def _read_response(rfile, method: str) -> Tuple[PoolResponse, bool]:
    """The reply to one request, and whether the socket is spent."""
    status = 100
    while 100 <= status < 200 and status != 101:  # skips 100 Continue
        try:
            head = read_head(rfile)
        except HeadError as error:
            raise HTTPException(f"unreadable reply head: {error}") from None
        if head is None:
            raise RemoteDisconnected("server closed connection without a reply")
        (version, *rest), headers = head
        if not (version.startswith("HTTP/") and rest and rest[0].isdecimal()):
            raise BadStatusLine(" ".join(head[0]))
        status = int(rest[0])
    connection = headers.get("connection", "").lower()
    will_close = (
        "keep-alive" not in connection
        if version == "HTTP/1.0"
        else "close" in connection
    )
    length = headers.get("content-length", "")
    if method == "HEAD" or status in (204, 304) or status < 200:
        body = b""
    elif "chunked" in headers.get("transfer-encoding", "").lower():
        body = _read_chunked(rfile)
    elif length.isdecimal():
        body = _read_exactly(rfile, int(length))
    else:
        body = rfile.read()  # no framing: the body ends where the socket does
        will_close = True
    return PoolResponse(status, headers, body), will_close


def _poll_for_reply(sock) -> bool:
    """Spin until ``sock`` is readable, for at most :data:`REPLY_POLL_S`
    and only while no other exchange is in flight; True if it became
    readable.  Either way the caller's blocking read follows."""
    deadline = time.perf_counter() + REPLY_POLL_S
    while _in_flight == 1:
        if select.select((sock,), (), (), 0)[0]:
            return True
        if time.perf_counter() > deadline:
            break
    return False


class ConnectionPool:
    """Thread-safe keep-alive connection pool for a single ``base_url``.

    The URL is parsed exactly once, at construction — request paths are
    joined onto the parsed prefix, not re-parsed per call.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 10.0,
        max_idle: int = 8,
    ):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "https"):
            raise EvaluationError(
                f"unsupported service URL scheme {parts.scheme!r} in "
                f"{base_url!r} (need http or https)"
            )
        if not parts.hostname:
            raise EvaluationError(f"service URL {base_url!r} has no host")
        self.base_url = base_url.rstrip("/")
        self.scheme = parts.scheme
        self.host = parts.hostname
        self.port = parts.port or (443 if parts.scheme == "https" else 80)
        self.path_prefix = parts.path.rstrip("/")
        self.timeout_s = timeout_s
        self.max_idle = max_idle
        host = f"[{self.host}]" if ":" in self.host else self.host  # IPv6
        netloc = host if parts.port is None else f"{host}:{self.port}"
        #: the head lines every request shares, built once
        self._host_lines = (
            f" HTTP/1.1\r\nHost: {netloc}\r\nAccept-Encoding: identity\r\n"
        )
        self._idle: List[_Connection] = []
        self._lock = threading.Lock()
        # pool telemetry (surfaced through the engine's stats())
        self.num_created = 0
        self.num_reused = 0
        self.num_discarded = 0
        self.num_stale_retries = 0

    # -- connection lifecycle ---------------------------------------------------
    def _connect(self) -> _Connection:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.scheme == "https":
            sock = ssl.create_default_context().wrap_socket(
                sock, server_hostname=self.host
            )
        with self._lock:
            self.num_created += 1
        return _Connection(sock)

    def _acquire(self) -> Tuple[_Connection, bool]:
        """A pooled connection (reused=True) or a fresh one."""
        with self._lock:
            if self._idle:
                self.num_reused += 1
                return self._idle.pop(), True
        return self._connect(), False

    def _release(self, connection: _Connection) -> None:
        with self._lock:
            if len(self._idle) < self.max_idle:
                self._idle.append(connection)
                return
            self.num_discarded += 1
        connection.close()

    def _discard(self, connection: _Connection) -> None:
        with self._lock:
            self.num_discarded += 1
        connection.close()

    def close(self) -> None:
        """Close every idle connection (in-flight ones close on discard)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    # -- request path -----------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> PoolResponse:
        """One HTTP exchange; transport failures raise ``http.client`` /
        ``OSError`` exceptions for the caller's retry policy."""
        connection, reused = self._acquire()
        try:
            return self._roundtrip(connection, method, path, body, headers)
        except (HTTPException, OSError):
            self._discard(connection)
            if not reused:
                raise
            # stale keep-alive socket: replay once on a fresh connection
            with self._lock:
                self.num_stale_retries += 1
            fresh = self._connect()
            try:
                return self._roundtrip(fresh, method, path, body, headers)
            except (HTTPException, OSError):
                self._discard(fresh)
                raise

    def fetch(self, path: str) -> bytes:
        """Body of a ``GET`` that must answer 200 (a ``/health`` or
        ``/metrics`` scrape); any other status raises ``HTTPException``."""
        response = self.request("GET", path)
        if response.status != 200:
            raise HTTPException(f"HTTP {response.status} on {path}")
        return response.body

    def _roundtrip(
        self,
        connection: _Connection,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]],
    ) -> PoolResponse:
        target = f"{self.path_prefix}{path}"
        if _BAD_TARGET.search(target):
            raise InvalidURL(f"request target {target!r} has control characters")
        head = f"{method} {target}{self._host_lines}"
        if body is not None or method in ("POST", "PUT", "PATCH"):
            head += f"Content-Length: {len(body) if body else 0}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        global _in_flight
        with _in_flight_lock:
            _in_flight += 1
        try:
            # head + body leave as one segment: a second small write would
            # wait out the server's delayed ACK of the first (Nagle)
            connection.sock.sendall(
                head.encode("iso-8859-1") + b"\r\n" + (body or b"")
            )
            if _in_flight == 1:
                _poll_for_reply(connection.sock)
            # a reader per reply, as http.client has it: nothing buffered
            # outlives the exchange, and closing ``sock`` really closes it
            with connection.sock.makefile("rb") as rfile:
                response, will_close = _read_response(rfile, method)
        finally:
            with _in_flight_lock:
                _in_flight -= 1
        if will_close:
            self._discard(connection)
        else:
            self._release(connection)
        return response

    def stats(self) -> Dict:
        with self._lock:
            return {
                "base_url": self.base_url,
                "idle": len(self._idle),
                "num_created": self.num_created,
                "num_reused": self.num_reused,
                "num_discarded": self.num_discarded,
                "num_stale_retries": self.num_stale_retries,
            }
