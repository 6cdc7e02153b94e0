"""Conformance of the shared serving core, through real sockets.

Everything here talks to an :class:`~repro.utils.httpcore.HttpServer` with
hand-written bytes on a plain TCP socket, so what is pinned is the wire
behaviour any HTTP/1.1 client sees — keep-alive, segmentation,
pipelining, the stdlib limits that were kept, drain — not an API.
The last class runs the same raw exchanges against the two servers that
mount on the core (the PPA service and the hub).
"""

import json
import socket
import time

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import PPAServiceServer
from repro.hub.server import HubServer
from repro.utils.httpcore import (
    MAX_HEADERS,
    MAX_LINE,
    HttpServer,
    Route,
    json_reply,
    stream_reply,
)
from repro.utils.metrics import MetricsRegistry
from repro.utils.prom import parse_prometheus_text


class Wire:
    """A raw client socket with just enough parsing to read replies."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self):
        """``(status, headers, body)`` of the next reply on the socket."""
        status_line = self.rfile.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        length = headers.get("content-length")
        body = self.rfile.read(int(length)) if length is not None else b""
        return int(status_line.split()[1]), headers, body

    def at_eof(self) -> bool:
        """True when the server has closed its side (a reset counts)."""
        try:
            return self.rfile.read(1) == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _echo(request):
    return {
        "method": request.method,
        "path": request.path,
        "query": request.query,
        "params": request.params,
        "body": request.body.decode("utf-8"),
        "agent": request.headers.get("user-agent"),
    }


def _teapot(request):
    return json_reply(418, {"error": "teapot"})._replace(headers={"X-Kind": "pot"})


def _raises_value(request):
    raise ValueError("not like that")


def _raises_other(request):
    raise RuntimeError("boom")


def _bad_json(request):
    return request.json()


def _ticks(request):
    def pump(write):
        for tick in range(3):
            write(f"id: {tick}\ndata: tick {tick}\n\n".encode("utf-8"))

    return stream_reply(pump)


@pytest.fixture()
def core():
    metrics = MetricsRegistry()
    server = HttpServer(
        "127.0.0.1",
        0,
        {
            ("GET", "/echo"): Route(_echo),
            ("POST", "/echo"): Route(_echo, timed=True),
            ("GET", "/items/<item>/parts/<part>"): Route(_echo),
            ("GET", "/teapot"): Route(_teapot),
            ("GET", "/value"): Route(_raises_value, ((ValueError, 422),)),
            ("GET", "/other"): Route(_raises_other, ((ValueError, 422),)),
            ("POST", "/json"): Route(_bad_json),
            ("GET", "/ticks"): Route(_ticks),
        },
        metrics,
        prefix="core",
        draining_error="core draining",
    )
    with server:
        yield server


@pytest.fixture()
def wire(core):
    connection = Wire(core.address)
    yield connection
    connection.close()


def _post(body: bytes, extra: bytes = b"") -> bytes:
    return (
        b"POST /echo HTTP/1.1\r\nHost: t\r\n" + extra
        + b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


class TestKeepAlive:
    def test_hundred_requests_reuse_one_connection(self, core, wire):
        for index in range(100):
            wire.send(_post(b"n=%d" % index))
            status, headers, body = wire.reply()
            assert status == 200
            assert "connection" not in headers
            assert json.loads(body)["body"] == f"n={index}"
        assert core.metrics.counter_value("core_requests_total[/echo]") == 100

    def test_head_and_body_in_separate_segments(self, wire):
        data = _post(b"split body")
        head, body = data[: data.index(b"\r\n\r\n") + 4], b"split body"
        wire.send(head)
        time.sleep(0.05)  # let the head arrive on its own
        wire.send(body)
        assert json.loads(wire.reply()[2])["body"] == "split body"

    def test_one_byte_at_a_time(self, wire):
        for byte in _post(b"drip", b"User-Agent: slow\r\n"):
            wire.send(bytes([byte]))
        status, _headers, body = wire.reply()
        assert status == 200
        assert json.loads(body) == {
            "method": "POST", "path": "/echo", "query": {}, "params": {},
            "body": "drip", "agent": "slow",
        }

    def test_two_pipelined_requests_answered_in_order(self, wire):
        wire.send(_post(b"first") + b"GET /echo?second=1 HTTP/1.1\r\n\r\n")
        assert json.loads(wire.reply()[2])["body"] == "first"
        assert json.loads(wire.reply()[2])["query"] == {"second": ["1"]}

    def test_connection_close_is_honoured(self, wire):
        wire.send(b"GET /echo HTTP/1.1\r\nConnection: close\r\n\r\n")
        status, headers, _body = wire.reply()
        assert status == 200
        assert headers["connection"] == "close"
        assert wire.at_eof()

    def test_http_1_0_closes_after_one_reply(self, wire):
        wire.send(b"GET /echo HTTP/1.0\r\n\r\n")
        status, headers, _body = wire.reply()
        assert status == 200
        assert headers["connection"] == "close"
        assert wire.at_eof()

    def test_expect_100_continue(self, wire):
        wire.send(
            b"POST /echo HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: 2\r\n\r\n"
        )
        assert wire.rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert wire.rfile.readline() == b"\r\n"
        wire.send(b"ok")
        assert json.loads(wire.reply()[2])["body"] == "ok"


class TestRouting:
    def test_pattern_segments_arrive_as_params(self, core, wire):
        wire.send(b"GET /items/a7/parts/9?x=1 HTTP/1.1\r\n\r\n")
        reply = json.loads(wire.reply()[2])
        assert reply["params"] == {"item": "a7", "part": "9"}
        assert core.metrics.counter_value(
            "core_requests_total[/items/<item>/parts/<part>]"
        ) == 1

    def test_unknown_paths_share_one_label(self, core, wire):
        for target in (b"/nope", b"/nope?x=1", b"/items/a7", b"/items//parts/1"):
            wire.send(b"GET " + target + b" HTTP/1.1\r\n\r\n")
            assert wire.reply()[0] == 404
        counters = core.metrics.snapshot()["counters"]
        assert counters == {
            "core_requests_total[unknown]": 4, "core_errors_total": 4,
        }

    def test_query_string_does_not_split_the_label(self, core, wire):
        wire.send(b"GET /echo?a=1 HTTP/1.1\r\n\r\nGET /echo?b=2 HTTP/1.1\r\n\r\n")
        wire.reply(), wire.reply()
        assert core.metrics.snapshot()["counters"] == {
            "core_requests_total[/echo]": 2
        }

    def test_reply_status_and_headers_travel(self, core, wire):
        wire.send(b"GET /teapot HTTP/1.1\r\n\r\n")
        status, headers, body = wire.reply()
        assert (status, headers["x-kind"]) == (418, "pot")
        assert json.loads(body) == {"error": "teapot"}
        assert core.metrics.counter_value("core_errors_total") == 1

    def test_route_errors_map_to_statuses(self, wire):
        wire.send(b"GET /value HTTP/1.1\r\n\r\nGET /other HTTP/1.1\r\n\r\n")
        status, _headers, body = wire.reply()
        assert (status, json.loads(body)) == (422, {"error": "not like that"})
        status, _headers, body = wire.reply()
        assert status == 500
        assert json.loads(body)["error"] == "internal error: RuntimeError: boom"

    def test_invalid_json_body_is_400(self, wire):
        wire.send(b"POST /json HTTP/1.1\r\nContent-Length: 1\r\n\r\n{")
        status, _headers, body = wire.reply()
        assert (status, json.loads(body)) == (400, {"error": "invalid JSON"})

    def test_only_timed_routes_feed_the_histogram(self, core, wire):
        wire.send(b"GET /echo HTTP/1.1\r\n\r\n")
        wire.reply()
        assert "core_request_seconds" not in core.metrics.snapshot()["histograms"]
        # observed once the reply is written, so the next exchange on the
        # same connection is what orders the check after it
        wire.send(_post(b"x") + b"GET /echo HTTP/1.1\r\n\r\n")
        wire.reply(), wire.reply()
        histogram = core.metrics.snapshot()["histograms"]["core_request_seconds"]
        assert histogram["count"] == 1


class TestRefusals:
    """Every refusal answers in JSON, counts under [unknown], and closes."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /echo HTTP/1.1\r\nX: " + b"a" * MAX_LINE + b"\r\n\r\n", 431),
            (
                b"GET /echo HTTP/1.1\r\n"
                + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
                + b"\r\n",
                431,
            ),
            (b"garbage\r\n\r\n", 400),
            (b"GET /echo\r\n\r\n", 400),  # HTTP/0.9
            (b"GET /echo HTTP/x.y\r\n\r\n", 400),
            (b"GET /a b HTTP/1.1\r\n\r\n", 400),
            (b"GET /echo HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET /echo HTTP/1.1\r\nX: 1\r\n folded\r\n\r\n", 400),
            (b"GET /echo HTTP/2.0\r\n\r\n", 505),
            (b"BREW /echo HTTP/1.1\r\n\r\n", 501),
            (b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            (b"POST /echo HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /echo HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        ],
    )
    def test_refused_with_status_and_closed(self, core, wire, request_bytes, status):
        wire.send(request_bytes)
        got, headers, body = wire.reply()
        assert got == status
        assert headers["connection"] == "close"
        assert "error" in json.loads(body)
        assert wire.at_eof()
        assert core.metrics.snapshot()["counters"] == {
            "core_requests_total[unknown]": 1, "core_errors_total": 1,
        }

    def test_header_cap_admits_exactly_the_limit(self, wire):
        wire.send(
            b"GET /echo HTTP/1.1\r\n"
            + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS))
            + b"\r\n"
        )
        assert wire.reply()[0] == 200

    def test_peer_hanging_up_mid_body_gets_no_reply(self, core):
        wire = Wire(core.address)
        wire.send(b"POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        wire.sock.shutdown(socket.SHUT_WR)
        assert wire.at_eof()
        wire.close()
        assert core.inflight_requests == 0


class TestDrain:
    def test_503_consumes_the_body_and_keeps_the_socket_parseable(self, core, wire):
        wire.send(_post(b"before"))
        assert wire.reply()[0] == 200
        core.begin_drain()
        wire.send(_post(b"x" * 4096) + b"GET /echo HTTP/1.1\r\n\r\n")
        for _ in range(2):
            status, headers, body = wire.reply()
            assert status == 503
            assert "connection" not in headers
            assert json.loads(body) == {"error": "core draining"}
        assert core.metrics.counter_value("core_drain_rejections_total") == 2
        assert core.metrics.counter_value("core_requests_total[/echo]") == 3
        assert core.inflight_requests == 0

    def test_finished_stream_releases_its_inflight_slot(self, core):
        wire = Wire(core.address)
        wire.send(b"GET /ticks HTTP/1.1\r\n\r\n")
        wire.reply()
        wire.close()
        assert core.drain(timeout_s=5.0)


class TestStreaming:
    def test_sse_stream_runs_to_connection_close(self, core, wire):
        wire.send(b"GET /ticks HTTP/1.1\r\nLast-Event-ID: 0\r\n\r\n")
        status, headers, _body = wire.reply()
        assert status == 200
        assert headers["content-type"] == "text/event-stream"
        assert headers["cache-control"] == "no-cache"
        assert headers["connection"] == "close"
        assert "content-length" not in headers
        assert wire.rfile.read() == b"".join(
            b"id: %d\ndata: tick %d\n\n" % (tick, tick) for tick in range(3)
        )
        assert core.metrics.counter_value("core_requests_total[/ticks]") == 1


# ------------------------------------------------- the two mounted servers
@pytest.fixture(params=["service", "hub"])
def mounted(request, tiny_network, tmp_path):
    """``(server, POST path, metric prefix)`` for each server on the core."""
    if request.param == "service":
        server = PPAServiceServer(MaestroEngine(tiny_network))
        post_path = b"/evaluate_layers"
    else:
        server = HubServer(tmp_path / "runs")
        post_path = b"/runs"
    with server:
        yield server, post_path, request.param


class TestMountedServers:
    @pytest.mark.parametrize("length", [b"abc", b"-1", b"1e3", b""])
    def test_bad_content_length_is_a_400_not_a_hung_thread(self, mounted, length):
        """Regression: ``int(Content-Length)`` used to sit outside every
        ``try`` (a traceback and no reply), and ``-1`` made ``read(-1)``
        block until the peer hung up, pinning ``stop()`` for its whole
        drain timeout."""
        server, post_path, _prefix = mounted
        wire = Wire(server.address)
        wire.send(
            b"POST " + post_path + b" HTTP/1.1\r\nContent-Length: "
            + length + b"\r\n\r\n"
        )
        status, headers, body = wire.reply()
        assert status == 400
        assert headers["connection"] == "close"
        assert "Content-Length" in json.loads(body)["error"]
        assert wire.at_eof()
        wire.close()
        assert server.inflight_requests == 0
        assert server.drain(timeout_s=0.5)

    def test_requests_are_labelled_by_route_not_by_target(self, mounted):
        server, _post_path, prefix = mounted
        wire = Wire(server.address)
        targets = [
            b"/metrics", b"/metrics?format=prom", b"/metrics?format=prom&x=1",
            b"/health?probe=7", b"/wp-login.php", b"/.env?x=1",
        ]
        for target in targets:
            wire.send(b"GET " + target + b" HTTP/1.1\r\n\r\n")
            wire.reply()
        wire.send(b"GET /metrics HTTP/1.1\r\n\r\n")
        counters = json.loads(wire.reply()[2])["metrics"]["counters"]
        wire.close()
        requests = {
            name: count for name, count in counters.items()
            if name.startswith(f"{prefix}_requests_total[")
        }
        assert requests == {
            f"{prefix}_requests_total[/metrics]": 3,
            f"{prefix}_requests_total[/health]": 1,
            f"{prefix}_requests_total[unknown]": 2,
        }

    def test_hub_run_ids_do_not_become_series(self, tmp_path):
        with HubServer(tmp_path / "runs") as hub:
            wire = Wire(hub.address)
            for run_id in (b"run-a", b"run-b", b"run-c"):
                wire.send(b"GET /runs/" + run_id + b" HTTP/1.1\r\n\r\n")
                assert wire.reply()[0] == 404
                wire.send(b"GET /runs/" + run_id + b"/events HTTP/1.1\r\n\r\n")
                assert wire.reply()[0] == 404
            wire.send(b"GET /metrics?format=prom HTTP/1.1\r\n\r\n")
            text = wire.reply()[2].decode("utf-8")
            wire.close()
        samples = parse_prometheus_text(text)["hub_requests_total"]["samples"]
        assert {labels["path"]: value for _name, labels, value in samples} == {
            "/runs/<id>": 3, "/runs/<id>/events": 3,
        }
