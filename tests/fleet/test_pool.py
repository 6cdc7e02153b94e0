"""Connection pool: keep-alive reuse, stale-socket replay, telemetry."""

import json

import pytest

from repro.costmodel import MaestroEngine
from repro.costmodel.service import PPAServiceServer
from repro.errors import EvaluationError
from repro.fleet.pool import ConnectionPool


@pytest.fixture()
def server(tiny_network):
    with PPAServiceServer(MaestroEngine(tiny_network)) as srv:
        yield srv


@pytest.fixture()
def pool(server):
    instance = ConnectionPool(server.url, timeout_s=2.0)
    yield instance
    instance.close()


class TestParsing:
    def test_url_parsed_once_at_construction(self):
        pool = ConnectionPool("http://example.com:8080/prefix/")
        assert pool.host == "example.com"
        assert pool.port == 8080
        assert pool.path_prefix == "/prefix"

    def test_bad_scheme_rejected(self):
        with pytest.raises(EvaluationError):
            ConnectionPool("ftp://example.com")

    def test_missing_host_rejected(self):
        with pytest.raises(EvaluationError):
            ConnectionPool("http://")


class TestKeepAlive:
    def test_sequential_requests_reuse_one_connection(self, pool):
        for _ in range(4):
            response = pool.request("GET", "/health")
            assert response.status == 200
            assert json.loads(response.body)["status"] == "ok"
        stats = pool.stats()
        assert stats["num_created"] == 1
        assert stats["num_reused"] == 3
        assert stats["idle"] == 1

    def test_headers_lowercased(self, pool):
        response = pool.request("GET", "/health")
        assert response.header("Content-Type") == "application/json"
        assert "content-type" in response.headers

    def test_stale_idle_socket_replayed_once(self, pool):
        pool.request("GET", "/health")
        # simulate the server reaping the idle keep-alive socket; killing
        # the raw socket (not HTTPConnection.close, which would cleanly
        # auto-reconnect) leaves the connection looking alive but stale
        pool._idle[0].sock.close()
        response = pool.request("GET", "/health")
        assert response.status == 200
        stats = pool.stats()
        assert stats["num_stale_retries"] == 1
        assert stats["num_discarded"] == 1

    def test_close_empties_idle(self, pool):
        pool.request("GET", "/health")
        pool.close()
        assert pool.stats()["idle"] == 0

    def test_connection_refused_raises_for_caller(self, server, pool):
        server.stop()
        with pytest.raises(OSError):
            pool.request("GET", "/health")

    def test_max_idle_bounds_pool(self, server):
        pool = ConnectionPool(server.url, timeout_s=2.0, max_idle=0)
        pool.request("GET", "/health")
        stats = pool.stats()
        assert stats["idle"] == 0
        assert stats["num_discarded"] == 1
        pool.close()
