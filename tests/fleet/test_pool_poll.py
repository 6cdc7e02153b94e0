"""Where the pooled client polls for its reply, and where it must not.

An exchange polls its socket (``repro.fleet.pool._poll_for_reply``) only
while it is the one exchange in flight in the process.  These tests count
the calls to that helper: a lone request makes one; two requests in
flight together — on one pool or on two pools, from two threads — make
none.  A reply that takes longer than the budget still arrives through
the blocking read, and a peer that hangs up mid-poll fails the exchange
exactly as it did before the poll existed.
"""

import sys
import threading
import time
from http.client import RemoteDisconnected

import pytest

from repro.fleet import pool as pool_module
from repro.fleet.pool import REPLY_POLL_S, ConnectionPool
from repro.utils.httpcore import HttpServer, Route
from repro.utils.metrics import MetricsRegistry

from tests.fleet.test_pool_conformance import OK, scripted


@pytest.fixture()
def polls(monkeypatch):
    """One entry per call of the polling helper: whether it saw the reply."""
    calls = []
    real = pool_module._poll_for_reply

    def counting(sock):
        ready = real(sock)
        calls.append(ready)
        return ready

    monkeypatch.setattr(pool_module, "_poll_for_reply", counting)
    yield calls
    assert pool_module._in_flight == 0  # every exchange let go of its count


def _slow(request):
    time.sleep(4 * REPLY_POLL_S)
    return {"slow": True}


@pytest.fixture()
def server():
    """A threaded serving core: ``/fast`` answers at once, ``/slow`` after
    four poll budgets."""
    core = HttpServer(
        "127.0.0.1",
        0,
        {
            ("GET", "/fast"): Route(lambda request: {"fast": True}),
            ("GET", "/slow"): Route(_slow),
        },
        MetricsRegistry(),
        prefix="test",
        draining_error="draining",
    )
    with core:
        yield core


class _Meeting:
    """A socket that meets the other parties of ``barrier`` twice per
    exchange: after sending (so every exchange has counted itself in
    flight) and before reading (so every exchange has decided whether to
    poll before any can finish and leave the others alone)."""

    def __init__(self, sock, barrier):
        self._sock = sock
        self._barrier = barrier

    def sendall(self, data):
        self._sock.sendall(data)
        self._barrier.wait(timeout=5.0)

    def makefile(self, *args):
        self._barrier.wait(timeout=5.0)
        return self._sock.makefile(*args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _meeting(pool, barrier):
    """Make every connection ``pool`` opens meet ``barrier``."""
    connect = pool._connect

    def meeting_connect():
        connection = connect()
        connection.sock = _Meeting(connection.sock, barrier)
        return connection

    pool._connect = meeting_connect
    return pool


def _in_threads(*calls):
    results, errors = [None] * len(calls), []

    def run(index, call):
        try:
            results[index] = call()
        except Exception as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index, call))
        for index, call in enumerate(calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not errors, errors
    return results


def test_a_lone_request_polls(server, polls):
    pool = ConnectionPool(server.url, timeout_s=2.0)
    for _ in range(3):
        assert pool.request("GET", "/fast").body == b'{"fast": true}'
    pool.close()
    assert len(polls) == 3


def test_two_requests_on_one_pool_never_poll(server, polls):
    pool = _meeting(ConnectionPool(server.url, timeout_s=5.0), threading.Barrier(2))
    replies = _in_threads(
        lambda: pool.request("GET", "/fast"), lambda: pool.request("GET", "/slow")
    )
    pool.close()
    assert [reply.status for reply in replies] == [200, 200]
    assert pool.stats()["num_created"] == 2
    assert polls == []


def test_two_pools_in_two_threads_never_poll(server, polls):
    barrier = threading.Barrier(2)
    pools = [
        _meeting(ConnectionPool(server.url, timeout_s=5.0), barrier)
        for _ in range(2)
    ]
    replies = _in_threads(*(
        lambda pool=pool: pool.request("GET", "/fast") for pool in pools
    ))
    for pool in pools:
        pool.close()
    assert [reply.body for reply in replies] == [b'{"fast": true}'] * 2
    assert polls == []


def test_the_in_flight_count_survives_many_threads(server, polls):
    """More threads than cores, switching as often as the interpreter
    allows: a lost update of the process-wide count would leave it off
    zero (the fixture checks) and stop lone exchanges from ever polling."""
    pools = [ConnectionPool(server.url, timeout_s=5.0) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _in_threads(*(
            lambda pool=pools[index % 3]: [
                pool.request("GET", "/fast") for _ in range(25)
            ]
            for index in range(8)
        ))
    finally:
        sys.setswitchinterval(interval)
    del polls[:]
    pools[0].request("GET", "/fast")
    for pool in pools:
        pool.close()
    assert len(polls) == 1  # alone again: the count came back to zero


def test_a_reply_slower_than_the_budget_arrives_through_the_blocking_read(
    server, polls
):
    pool = ConnectionPool(server.url, timeout_s=2.0)
    response = pool.request("GET", "/slow")
    pool.close()
    assert (response.status, response.body) == (200, b'{"slow": true}')
    assert polls == [False]  # the poll gave up; the read did not


def test_a_peer_closing_during_the_poll_is_the_same_transport_error(polls):
    with scripted([None], [OK]) as (server, pool):
        with pytest.raises(RemoteDisconnected):
            pool.request("GET", "/")
        assert pool.stats()["num_stale_retries"] == 0
        assert pool.stats()["num_discarded"] == 1
    assert len(server.requests) == 1
    assert len(polls) == 1


def test_a_stale_keep_alive_socket_still_gets_its_one_replay(polls):
    with scripted([OK], [OK]) as (server, pool):
        assert pool.request("POST", "/a", body=b"1").body == b"ok"
        assert server.hung_up.acquire(timeout=5.0)  # reaped while idle
        assert pool.request("POST", "/b", body=b"2").body == b"ok"
        stats = pool.stats()
    assert stats["num_stale_retries"] == 1
    assert stats["num_created"] == 2
    # the reaped socket's exchange fails in its poll or its send; either
    # way the replay on the fresh socket polls like any lone exchange
    assert 2 <= len(polls) <= 3
