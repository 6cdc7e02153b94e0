"""Tests for the hub HTTP control plane, including the SSE acceptance test:
a stream with a forced mid-run disconnect plus ``Last-Event-ID`` reconnect
must be byte-identical to a post-hoc ``read_events`` scan of the journal."""

import json
import os
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import PPAServiceServer
from repro.errors import TrackingError
from repro.hub.aggregate import FleetAggregator
from repro.hub.client import HubClient
from repro.hub.server import HubServer
from repro.hub.sse import parse_sse_lines
from repro.obs.prom import parse_prometheus_text
from repro.tracking.journal import read_events
from repro.tracking.store import RunStore

SMOKE_SPEC = {
    "method": "unico",
    "scenario": "edge",
    "workload": "fsrcnn_120x320",
    "preset": "smoke",
    "seed": 0,
}


@pytest.fixture
def hub(tmp_path):
    server = HubServer(tmp_path / "runs", sse_poll_interval_s=0.02)
    server.start()
    client = HubClient(server.url)
    try:
        yield server, client
    finally:
        client.close()
        server.stop()


def wait_terminal(client, run_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.get_run(run_id).get("status")
        if status in ("completed", "failed", "cancelled"):
            return status
        time.sleep(0.1)
    raise AssertionError("run never reached a terminal status")


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def assert_no_leaks(before_threads, before_fds=None, timeout_s=5.0):
    """Assert thread/fd counts return to baseline.

    Peer-side connection threads (a replica's per-request handlers) exit
    asynchronously once our sockets close, so poll until the deadline
    rather than snapshotting immediately.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        leaked = {
            t for t in set(threading.enumerate()) - before_threads
            if t.is_alive()
        }
        fds_ok = before_fds is None or open_fd_count() <= before_fds
        if not leaked and fds_ok:
            return
        if time.monotonic() >= deadline:
            assert not leaked, f"leaked threads: {leaked}"
            assert fds_ok, "leaked file descriptors"
            return
        time.sleep(0.05)


class TestEndpoints:
    def test_health(self, hub):
        _server, client = hub
        health = client.health()
        assert health["status"] == "ok"
        assert health["runs"] == 0

    def test_unknown_run_404(self, hub):
        _server, client = hub
        with pytest.raises(TrackingError, match="404"):
            client.get_run("no-such-run")

    def test_bad_spec_is_400_not_a_failed_run(self, hub):
        _server, client = hub
        with pytest.raises(TrackingError, match="400"):
            client.submit(dict(SMOKE_SPEC, scenario="A"))
        assert client.list_runs()["runs"] == []

    def test_cancel_unknown_run_conflict(self, hub):
        _server, client = hub
        with pytest.raises(TrackingError, match=r"40[49]"):
            client.cancel("no-such-run")

    def test_submit_run_lists_and_completes(self, hub):
        _server, client = hub
        run_id = client.submit(dict(SMOKE_SPEC))
        assert wait_terminal(client, run_id) == "completed"
        rows = client.list_runs()["runs"]
        assert [r["run_id"] for r in rows] == [run_id]
        assert rows[0]["status"] == "completed"
        assert rows[0]["submitted_via"] == "hub"

    def test_prometheus_metrics_parse_strictly(self, hub):
        from repro.obs.prom import parse_prometheus_text

        server, client = hub
        client.health()
        pool_response = None
        from repro.fleet.pool import ConnectionPool

        pool = ConnectionPool(server.url)
        try:
            pool_response = pool.request("GET", "/metrics?format=prom")
        finally:
            pool.close()
        assert pool_response.status == 200, pool_response.body
        families = parse_prometheus_text(pool_response.body.decode("utf-8"))
        assert "hub_requests_total" in families, (
            pool_response.body, server.metrics.snapshot()
        )

    def test_draining_hub_rejects_with_503(self, hub):
        server, client = hub
        server.begin_drain()
        with pytest.raises(TrackingError, match="503"):
            client.health()

    def test_fleet_endpoints_404_without_replicas(self, hub):
        _server, client = hub
        with pytest.raises(TrackingError, match="404"):
            client.fleet_metrics()


@pytest.fixture()
def replicas(tiny_network):
    servers = [
        PPAServiceServer(MaestroEngine(tiny_network)) for _ in range(2)
    ]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


class TestFleet:
    def test_hub_holds_one_aggregator_and_one_pool_per_replica(
        self, replicas, tmp_path, monkeypatch
    ):
        """A hub with R replicas holds one aggregator and R pools, and its
        ``stop()`` closes every one of them."""
        from repro.fleet.pool import ConnectionPool
        import repro.hub.aggregate as aggregate

        pools, closed = [], []

        class CountedPool(ConnectionPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(aggregate, "ConnectionPool", CountedPool)
        before_threads = set(threading.enumerate())
        before_fds = open_fd_count()
        server = HubServer(
            tmp_path / "runs", replica_urls=[s.url for s in replicas]
        )
        assert isinstance(server.aggregator, FleetAggregator)
        assert len(pools) == len(replicas)
        server.start()
        client = HubClient(server.url)
        try:
            client.fleet_metrics()  # a replica counts a scrape once it is served
            families = parse_prometheus_text(client.fleet_metrics())
            assert "fleet:service_requests_total" in families
            with pytest.raises(TrackingError, match="404"):
                client._request("GET", "/fleet/status")
        finally:
            client.close()
            server.stop()
        assert len(pools) == len(replicas)
        assert set(closed) == set(pools)
        assert_no_leaks(before_threads, before_fds)

    def test_dead_replica_is_up_zero_on_fleet_metrics(
        self, replicas, tmp_path
    ):
        live = replicas[0].url.split("//")[1]
        server = HubServer(
            tmp_path / "runs",
            replica_urls=[replicas[0].url, "http://127.0.0.1:9"],
        )
        server.start()
        client = HubClient(server.url)
        try:
            text = client.fleet_metrics()
        finally:
            client.close()
            server.stop()
        assert f'up{{replica="{live}"}} 1' in text.splitlines()
        assert 'up{replica="127.0.0.1:9"} 0' in text.splitlines()
        families = parse_prometheus_text(text)
        assert families["up"]["type"] == "gauge"
        assert {
            labels["replica"]: value
            for _name, labels, value in families["up"]["samples"]
        } == {live: 1.0, "127.0.0.1:9": 0.0}

    def test_hub_stop_leaves_no_threads(self, tmp_path, replicas):
        before = set(threading.enumerate())
        server = HubServer(
            tmp_path / "runs", replica_urls=[s.url for s in replicas]
        )
        server.start()
        with HubClient(server.url) as client:
            for _ in range(2):
                client.fleet_metrics()
        server.stop()
        assert_no_leaks(before)


def read_sse_frames(host, port, run_id, cursor=None, max_events=None):
    """Raw SSE consumption so tests control disconnects precisely.

    Returns ``(frames, last_id, finished)`` where frames are the raw data
    payloads in order.
    """
    connection = HTTPConnection(host, port, timeout=60)
    frames, last_id, finished = [], cursor, False
    try:
        headers = {}
        if cursor is not None:
            headers["Last-Event-ID"] = str(cursor)
        connection.request("GET", f"/runs/{run_id}/events", headers=headers)
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"

        def lines():
            while True:
                line = response.readline()
                if not line:
                    return
                yield line.decode("utf-8").rstrip("\r\n")

        for sse in parse_sse_lines(lines()):
            if sse.event == "end_of_stream":
                finished = True
                break
            frames.append(sse.data)
            last_id = int(sse.event_id)
            if max_events is not None and len(frames) >= max_events:
                break  # force mid-stream disconnect
    finally:
        connection.close()
    return frames, last_id, finished


class TestSSEAcceptance:
    def test_disconnect_and_resume_is_byte_identical(self, hub):
        """Acceptance: forced mid-run disconnect + Last-Event-ID reconnect
        yields the exact event sequence a post-hoc read_events scan sees,
        down to the bytes."""
        server, client = hub
        host, port = server.address
        run_id = client.submit(dict(SMOKE_SPEC))

        # leg 1: connect while the run is live, drop after 3 events
        first, cursor, finished = read_sse_frames(
            host, port, run_id, max_events=3
        )
        assert len(first) == 3 and not finished

        # leg 2: reconnect exactly where we left off, drain to the end
        second, _cursor, finished = read_sse_frames(
            host, port, run_id, cursor=cursor
        )
        assert finished

        streamed = first + second
        run = RunStore(server.store.root).get(run_id)
        scan = read_events(run.journal_path)
        assert not scan.truncated_tail
        assert [json.loads(raw) for raw in streamed] == scan.events
        # byte-identity: journal lines travel verbatim, so rejoining the
        # streamed payloads reconstructs the journal file exactly
        reconstructed = ("\n".join(streamed) + "\n").encode("utf-8")
        assert reconstructed == run.journal_path.read_bytes()

    def test_resume_past_everything_gets_end_of_stream(self, hub):
        server, client = hub
        host, port = server.address
        run_id = client.submit(dict(SMOKE_SPEC))
        wait_terminal(client, run_id)
        run = RunStore(server.store.root).get(run_id)
        size = run.journal_path.stat().st_size
        frames, _cursor, finished = read_sse_frames(
            host, port, run_id, cursor=size
        )
        assert frames == [] and finished

    def test_bad_cursor_is_400(self, hub):
        server, client = hub
        run_id = client.submit(dict(SMOKE_SPEC))
        wait_terminal(client, run_id)
        connection = HTTPConnection(*server.address, timeout=10)
        try:
            connection.request(
                "GET", f"/runs/{run_id}/events",
                headers={"Last-Event-ID": "not-a-number"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_client_generator_reconnects_transparently(self, hub):
        """HubClient.stream_events hides the reconnect loop: events arrive
        exactly once and in order even when consumed across a run's life."""
        server, client = hub
        run_id = client.submit(dict(SMOKE_SPEC))
        events = list(client.stream_events(run_id))
        run = RunStore(server.store.root).get(run_id)
        scan = read_events(run.journal_path)
        assert [e.event for e in events] == scan.events
        assert [e.raw for e in events] == [
            line.decode("utf-8")
            for line in run.journal_path.read_bytes().splitlines()
        ]
        assert events[-1].type == "run_end"

    def test_client_generator_survives_server_restart(self, tmp_path):
        """Satellite: stream_events resumes from its byte cursor across a
        full hub restart — events arrive exactly once, in order, with no
        replays of the pre-restart prefix."""
        import socket
        import threading

        from repro.tracking.journal import EventJournal

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        root = tmp_path / "runs"
        handle = RunStore(root).create_run(
            manifest={"status": "running", "method": "unico"}
        )
        with EventJournal(handle.journal_path) as journal:
            for i in range(3):
                journal.append("evaluation", {"iteration": i})

        server = HubServer(
            root, port=port, sse_poll_interval_s=0.02,
            reconcile_on_start=False,
        )
        server.start()
        client = HubClient(server.url)
        received = []
        done = threading.Event()

        def collect():
            for event in client.stream_events(
                handle.run_id, reconnect_delay_s=0.05
            ):
                received.append(event)
            done.set()

        thread = threading.Thread(target=collect, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while len(received) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(received) == 3

        server.stop()  # restart leg: client must reconnect and resume
        with EventJournal(handle.journal_path) as journal:
            for i in range(3, 6):
                journal.append("evaluation", {"iteration": i})
        server = HubServer(
            root, port=port, sse_poll_interval_s=0.02,
            reconcile_on_start=False,
        )
        server.start()
        try:
            handle.set_status("completed")
            assert done.wait(timeout=20.0), received
        finally:
            client.close()
            server.stop()

        assert [e.event["iteration"] for e in received] == list(range(6))
        # offsets are the journal's own byte cursors: strictly increasing
        # and ending at the file size
        offsets = [e.offset for e in received]
        assert offsets == sorted(set(offsets))
        assert offsets[-1] == handle.journal_path.stat().st_size
