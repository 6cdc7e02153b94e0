"""Client for the hub control plane, including the live SSE stream.

JSON endpoints travel over a pooled keep-alive connection (the same
:class:`~repro.fleet.pool.ConnectionPool` the remote engine uses);
the SSE stream gets its own dedicated connection because its body has no
end short of connection close.

:meth:`HubClient.stream_events` is the resilient consumer behind
``repro runs tail --follow``: it tracks the byte-offset cursor carried
in each event's ``id:`` and, on any disconnect (socket timeout, hub
restart, network blip), reconnects with ``Last-Event-ID`` so the caller
sees every journal event exactly once, in order, across any number of
drops — the stream only ends at the server's explicit
``event: end_of_stream`` frame; any other end is a drop, followed by a
reconnect after ``RECONNECT_DELAY_S``.
"""

from __future__ import annotations

import json
import socket
import time
from contextlib import closing
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from typing import Dict, Iterator, Optional
from urllib.parse import urlsplit

from repro.errors import TrackingError, TransportError
from repro.fleet.pool import ConnectionPool
from repro.hub.sse import parse_sse_lines

__all__ = ["HubClient", "StreamedEvent"]

#: transport-level exceptions that mean "reconnect", not "give up"
_STREAM_ERRORS = (HTTPException, socket.timeout, ConnectionError, OSError)
#: the pause before an event stream reconnects
RECONNECT_DELAY_S = 0.2


@dataclass
class StreamedEvent:
    """One journal event received over SSE."""

    #: the raw journal line, verbatim (byte-identity with the journal)
    raw: str
    #: byte offset just past this event's journal line (the resume cursor)
    offset: Optional[int] = None
    #: journal event type (from the SSE ``event:`` field)
    type: Optional[str] = None
    #: the parsed journal event, or None if the payload was not JSON
    event: Optional[Dict] = None


class HubClient:
    """Talk to a :class:`~repro.hub.server.HubServer`."""

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urlsplit(self.base_url)
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port
        self._pool = ConnectionPool(self.base_url, timeout_s=timeout_s)

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "HubClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- JSON endpoints ---------------------------------------------------------
    def _exchange(self, method: str, path: str, payload: Optional[Dict]):
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            return self._pool.request(method, path, body=body, headers=headers)
        except _STREAM_ERRORS as error:
            raise TransportError(
                f"hub unreachable on {path}: {type(error).__name__}: {error}"
            ) from error

    def _request(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict:
        response = self._exchange(method, path, payload)
        try:
            reply = json.loads(response.body)
        except json.JSONDecodeError as error:
            raise TransportError(
                f"hub returned non-JSON on {path}: {error}"
            ) from error
        if response.status >= 400:
            raise TrackingError(
                f"hub rejected {path} ({response.status}): "
                f"{reply.get('error', reply)}"
            )
        return reply

    def _request_text(self, path: str) -> str:
        response = self._exchange("GET", path, None)
        text = response.body.decode("utf-8", "replace")
        if response.status >= 400:
            reply = _maybe_json(text) or {}
            raise TrackingError(
                f"hub rejected {path} ({response.status}): "
                f"{reply.get('error', text)}"
            )
        return text

    def health(self) -> Dict:
        return self._request("GET", "/health")

    def list_runs(self) -> Dict:
        return self._request("GET", "/runs")

    def get_run(self, run_id: str) -> Dict:
        return self._request("GET", f"/runs/{run_id}")

    def submit(self, spec: Dict) -> str:
        return self._request("POST", "/runs", spec)["run_id"]

    def resume(self, run_id: str) -> str:
        return self._request("POST", "/runs", {"resume": run_id})["run_id"]

    def cancel(self, run_id: str) -> Dict:
        return self._request("POST", f"/runs/{run_id}/cancel", {})

    def metrics(self) -> Dict:
        return self._request("GET", "/metrics")

    def fleet_metrics(self) -> str:
        return self._request_text("/fleet/metrics")

    # -- SSE --------------------------------------------------------------------
    def _sse(self, path: str, cursor: Optional[int]) -> Iterator:
        """The SSE frames of one dedicated connection to ``path``.

        The timeout of each socket read comfortably exceeds the server's
        keepalive cadence, so idle streams are not mistaken for dead ones.
        """
        connection = HTTPConnection(
            self._host, self._port, timeout=max(self.timeout_s, 30.0)
        )
        try:
            headers = {"Accept": "text/event-stream"}
            if cursor is not None:
                headers["Last-Event-ID"] = str(cursor)
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            if response.status != 200:
                raise TrackingError(
                    f"hub rejected event stream {path} "
                    f"({response.status}): {response.read()[:200]!r}"
                )
            yield from parse_sse_lines(_iter_lines(response))
        finally:
            connection.close()

    def stream_events(self, run_id: str) -> Iterator[StreamedEvent]:
        """Yield a run's journal events live, in order, exactly once.

        The generator ends when the server sends ``end_of_stream`` (run
        terminal + journal drained).  On disconnect it waits
        :data:`RECONNECT_DELAY_S` and reconnects from the last received
        cursor (a journal byte offset), however often that takes.
        """
        cursor = None
        path = f"/runs/{run_id}/events"
        while True:
            try:
                with closing(self._sse(path, cursor)) as frames:
                    for sse in frames:
                        if sse.event == "end_of_stream":
                            return
                        if sse.event_id is not None:
                            cursor = int(sse.event_id)
                        yield StreamedEvent(
                            raw=sse.data,
                            offset=cursor,
                            type=sse.event,
                            event=_maybe_json(sse.data),
                        )
            except _STREAM_ERRORS:
                pass
            time.sleep(RECONNECT_DELAY_S)


def _iter_lines(response) -> Iterator[str]:
    """Decode an SSE response body into newline-stripped text lines."""
    while True:
        line = response.readline()
        if not line:
            return
        yield line.decode("utf-8").rstrip("\r\n")


def _maybe_json(data: str) -> Optional[Dict]:
    try:
        parsed = json.loads(data)
    except json.JSONDecodeError:
        return None
    return parsed if isinstance(parsed, dict) else None
