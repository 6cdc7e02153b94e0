"""Conformance of the pooled client's own HTTP/1.1 reader, through real
sockets: a scripted server writes hand-made reply bytes, so every framing
the client must read — and every fault it must turn into an ``OSError`` /
``HTTPException`` for the engine's retry policy — is pinned on the wire.
"""

import contextlib
import socket
import threading
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    InvalidURL,
    RemoteDisconnected,
)

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import PPAServiceServer
from repro.fleet.pool import ConnectionPool


class ScriptedServer:
    """Accepts connections; per connection, answers each request with the
    next scripted reply.  ``None`` in the script closes the connection
    without answering; a script that runs out closes it too."""

    def __init__(self, *connection_scripts):
        self._scripts = list(connection_scripts)
        self.requests = []
        #: released each time the server has closed a connection
        self.hung_up = threading.Semaphore(0)
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for script in self._scripts:
            try:
                connection, _peer = self._listener.accept()
            except OSError:
                return
            with connection, connection.makefile("rb") as rfile:
                for reply in script:
                    head = []
                    while True:
                        line = rfile.readline()
                        if line in (b"\r\n", b""):
                            break
                        head.append(line)
                    if not head:
                        break
                    length = next(
                        (int(h.split(b":")[1]) for h in head
                         if h.lower().startswith(b"content-length")), 0,
                    )
                    self.requests.append((head, rfile.read(length)))
                    if reply is None:
                        break
                    connection.sendall(reply)
            self.hung_up.release()

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5.0)


@contextlib.contextmanager
def scripted(*connection_scripts):
    server = ScriptedServer(*connection_scripts)
    pool = ConnectionPool(server.url, timeout_s=2.0)
    try:
        yield server, pool
    finally:
        pool.close()
        server.close()


OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class TestRequestOnTheWire:
    def test_head_fields_and_body(self):
        with scripted([OK, OK]) as (server, pool):
            pool.request(
                "POST", "/evaluate?x=1", body=b'{"a": 1}',
                headers={"Content-Type": "application/json", "X-Request-Id": "t"},
            )
            pool.request("GET", "/health")
        (post_head, post_body), (get_head, get_body) = server.requests
        assert post_head[0] == b"POST /evaluate?x=1 HTTP/1.1\r\n"
        port = server.url.rsplit(":", 1)[1].encode()
        assert b"Host: 127.0.0.1:" + port + b"\r\n" in post_head
        assert b"Content-Length: 8\r\n" in post_head
        assert b"Content-Type: application/json\r\n" in post_head
        assert b"X-Request-Id: t\r\n" in post_head
        assert post_body == b'{"a": 1}'
        assert get_head[0] == b"GET /health HTTP/1.1\r\n"
        assert not any(h.lower().startswith(b"content-length") for h in get_head)
        assert get_body == b""

    def test_bodyless_post_still_declares_its_length(self):
        with scripted([OK]) as (server, pool):
            pool.request("POST", "/runs/r1/cancel")
        assert b"Content-Length: 0\r\n" in server.requests[0][0]

    def test_path_prefix_is_joined(self):
        with scripted([OK]) as (server, _pool):
            prefixed = ConnectionPool(server.url + "/api/", timeout_s=2.0)
            prefixed.request("GET", "/health")
            prefixed.close()
        assert server.requests[0][0][0] == b"GET /api/health HTTP/1.1\r\n"

    @pytest.mark.parametrize("path", ["/runs/a b", "/runs/a\r\nX: y", "/r\x00"])
    def test_control_characters_in_the_target_are_refused(self, path):
        with scripted([OK]) as (server, pool):
            with pytest.raises(InvalidURL):
                pool.request("GET", path)
        assert server.requests == []


class TestReplyFramings:
    def test_header_lookup_is_case_insensitive(self):
        reply = (
            b"HTTP/1.1 200 OK\r\nCONTENT-LENGTH: 2\r\n"
            b"x-request-ID:  {\"id\": 1} \r\n\r\nok"
        )
        with scripted([reply]) as (_server, pool):
            response = pool.request("GET", "/")
        assert response.body == b"ok"
        # names are lower-cased, values stripped of surrounding blanks
        assert response.headers == {
            "content-length": "2",
            "x-request-id": '{"id": 1}',
        }

    def test_no_content_length_reads_to_eof_and_discards(self):
        reply = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nall of it"
        with scripted([reply]) as (_server, pool):
            response = pool.request("GET", "/")
            assert response.body == b"all of it"
            assert pool.stats()["idle"] == 0
            assert pool.stats()["num_discarded"] == 1

    def test_connection_close_discards_the_socket(self):
        reply = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
        with scripted([reply], [OK]) as (_server, pool):
            assert pool.request("GET", "/").body == b"ok"
            assert pool.stats()["idle"] == 0
            assert pool.request("GET", "/").body == b"ok"
            assert pool.stats()["num_created"] == 2
            assert pool.stats()["num_stale_retries"] == 0

    def test_http_1_0_reply_is_not_reused(self):
        reply = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"
        with scripted([reply]) as (_server, pool):
            assert pool.request("GET", "/").body == b"ok"
            assert pool.stats()["idle"] == 0

    def test_chunked_reply_is_decoded(self):
        reply = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nTrailer: x\r\n\r\n"
        )
        with scripted([reply, OK]) as (_server, pool):
            assert pool.request("GET", "/").body == b"Wikipedia"
            assert pool.request("GET", "/").body == b"ok"  # socket reusable
            assert pool.stats()["num_created"] == 1

    def test_interim_100_continue_is_skipped(self):
        reply = b"HTTP/1.1 100 Continue\r\n\r\n" + OK
        with scripted([reply]) as (_server, pool):
            response = pool.request("POST", "/", body=b"x")
        assert (response.status, response.body) == (200, b"ok")

    def test_204_has_no_body_and_keeps_the_socket(self):
        with scripted([b"HTTP/1.1 204 No Content\r\n\r\n", OK]) as (_server, pool):
            assert pool.request("GET", "/").body == b""
            assert pool.request("GET", "/").body == b"ok"
            assert pool.stats()["num_created"] == 1

    def test_error_statuses_are_returned_not_raised(self):
        reply = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\nbusy"
        with scripted([reply]) as (_server, pool):
            response = pool.request("GET", "/")
        assert (response.status, response.body) == (503, b"busy")


class TestFaults:
    """Each is an ``OSError`` or ``HTTPException`` — what the engine's
    ``_TRANSIENT_ERRORS`` catches — and never leaves the socket pooled."""

    @pytest.mark.parametrize(
        "reply, error",
        [
            (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", IncompleteRead),
            (b"SMTP ready\r\n\r\n", BadStatusLine),
            (b"HTTP/1.1 two-hundred OK\r\n\r\n", BadStatusLine),
            (b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n", HTTPException),
            (b"HTTP/1.1 200 OK\r\nX: " + b"a" * 70000 + b"\r\n\r\n", HTTPException),
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
                IncompleteRead,
            ),
            (None, RemoteDisconnected),
        ],
    )
    def test_fault_surfaces_and_discards(self, reply, error):
        with scripted([reply]) as (_server, pool):
            with pytest.raises(error) as caught:
                pool.request("GET", "/")
            assert isinstance(caught.value, (OSError, HTTPException))
            assert pool.stats()["idle"] == 0
            assert pool.stats()["num_discarded"] == 1
            assert pool.stats()["num_stale_retries"] == 0

    def test_server_reaping_an_idle_socket_costs_exactly_one_retry(self):
        # connection 1 answers once, then the server closes it while it
        # sits idle in the pool; connection 2 serves the replay
        with scripted([OK], [OK, OK]) as (server, pool):
            assert pool.request("POST", "/a", body=b"1").body == b"ok"
            assert pool.stats()["idle"] == 1
            assert server.hung_up.acquire(timeout=5.0)
            assert pool.request("POST", "/b", body=b"2").body == b"ok"
            assert pool.request("POST", "/c", body=b"3").body == b"ok"
            stats = pool.stats()
        assert stats["num_stale_retries"] == 1
        assert stats["num_created"] == 2
        assert stats["num_discarded"] == 1
        assert [body for _head, body in server.requests] == [b"1", b"2", b"3"]

    def test_fault_on_a_fresh_socket_is_not_replayed(self):
        with scripted([None], [OK]) as (server, pool):
            with pytest.raises(RemoteDisconnected):
                pool.request("GET", "/")
            assert pool.stats()["num_stale_retries"] == 0
        assert len(server.requests) == 1


class TestAgainstTheServingCore:
    def test_hundred_exchanges_on_one_socket(self, tiny_network):
        with PPAServiceServer(MaestroEngine(tiny_network)) as server:
            pool = ConnectionPool(server.url, timeout_s=2.0)
            for _ in range(100):
                assert pool.request("GET", "/health").status == 200
            stats = pool.stats()
            pool.close()
        assert (stats["num_created"], stats["num_reused"]) == (1, 99)
        assert stats["num_stale_retries"] == 0

    def test_fetch_raises_on_a_draining_server(self, tiny_network):
        with PPAServiceServer(MaestroEngine(tiny_network)) as server:
            pool = ConnectionPool(server.url, timeout_s=2.0)
            assert b'"status": "ok"' in pool.fetch("/health")
            server.begin_drain()
            with pytest.raises(HTTPException, match="503"):
                pool.fetch("/health")
            pool.close()
