"""Telemetry pipeline tests: scrape → store → alert, hub endpoints, leaks."""

import json
import threading
import time

import pytest

from repro.costmodel import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.errors import TrackingError
from repro.hub import HubClient, HubServer, TelemetryPipeline, replica_target
from repro.mapping import GemmMapping
from repro.obs.alerts import Rule
from repro.tracking.journal import read_events

MAPPINGS = [GemmMapping(4, 8, 4), GemmMapping(8, 8, 8), GemmMapping(16, 16, 8)]


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


def drive_queries(tiny_network, servers, sample_hw):
    sharded = RemotePPAEngine(
        tiny_network,
        [server.url for server in servers],
        area_fn=spatial_area_mm2,
        timeout_s=2.0,
        max_network_retries=0,
        batch_size=2,
    )
    try:
        sharded.evaluate_layers(sample_hw, [(m, "gemm") for m in MAPPINGS])
    finally:
        sharded.close()


def open_fd_count() -> int:
    import os

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


class TestPipelineTick:
    def test_tick_samples_every_replica_and_fleet(
        self, replicas, tiny_network, sample_hw, tmp_path
    ):
        drive_queries(tiny_network, replicas, sample_hw)
        pipeline = TelemetryPipeline(
            replica_urls=[s.url for s in replicas],
            store=tmp_path / "obs",
            interval_s=0.5,
        )
        try:
            pipeline.tick(now=100.0)
            targets = pipeline.store.targets()
            assert "fleet" in targets
            names = [replica_target(f"{s.address[0]}:{s.address[1]}")
                     for s in replicas]
            for name in names:
                assert name in targets
                latest = pipeline.store.latest(name)
                assert latest[1]["up"] == 1.0
                assert latest[1]["engine_queries_total"] > 0.0
            fleet = pipeline.store.latest("fleet")[1]
            assert fleet["replicas_up"] == 2.0
            assert fleet["replicas_total"] == 2.0
            # fleet rollup sums the replicas' counters
            assert fleet["engine_queries_total"] == pytest.approx(
                sum(
                    pipeline.store.latest(n)[1]["engine_queries_total"]
                    for n in names
                )
            )
        finally:
            pipeline.stop()

    def test_dead_replica_recorded_as_up_zero(self, replicas, tmp_path):
        pipeline = TelemetryPipeline(
            replica_urls=[replicas[0].url, "http://127.0.0.1:9"],
            store=None,
            interval_s=0.5,
            scrape_timeout_s=0.5,
        )
        try:
            pipeline.tick(now=1.0)
            assert pipeline.store.latest("replica:127.0.0.1:9")[1]["up"] == 0.0
            fleet = pipeline.store.latest("fleet")[1]
            assert fleet["replicas_up"] == 1.0
            assert fleet["replicas_total"] == 2.0
        finally:
            pipeline.stop()

    def test_hub_sampler_and_run_source_feed_targets(self, tmp_path):
        from repro.tracking.journal import EventJournal

        journal_path = tmp_path / "journal.jsonl"
        with EventJournal(journal_path) as journal:
            journal.append("search_health", {
                "iteration": 7, "hypervolume": 0.42,
                "pareto_size": 5, "engine_queries": 99,
                "screening": {"escalated": 3, "forwarded": 11},
            })
        pipeline = TelemetryPipeline(
            store=None,
            interval_s=0.5,
            hub_sampler=lambda: {"hub_queue_depth": 4.0},
            run_source=lambda: [("r1", journal_path)],
        )
        try:
            pipeline.tick(now=1.0)
            assert pipeline.store.latest("hub")[1]["hub_queue_depth"] == 4.0
            run = pipeline.store.latest("run:r1")[1]
            assert run["search_iteration"] == 7.0
            assert run["search_hypervolume"] == pytest.approx(0.42)
            assert run["search_screen_escalated"] == 3.0
        finally:
            pipeline.stop()

    def test_alert_transitions_journalled(self, tmp_path):
        rule = Rule(
            name="deep", series="hub_queue_depth", op=">", value=2.0,
            window_s=10.0, targets=("hub",),
        )
        depth = {"value": 9.0}
        pipeline = TelemetryPipeline(
            store=tmp_path / "obs",
            rules=[rule],
            interval_s=0.5,
            hub_sampler=lambda: {"hub_queue_depth": depth["value"]},
        )
        try:
            transitions = pipeline.tick(now=1.0)
            assert [e["state"] for e in transitions] == ["firing"]
            depth["value"] = 0.0
            transitions = pipeline.tick(now=2.0)
            assert [e["state"] for e in transitions] == ["resolved"]
            scan = read_events(pipeline.alerts_journal_path)
            assert [e["type"] for e in scan.events] == ["alert", "alert"]
            assert [e["state"] for e in scan.events] == ["firing", "resolved"]
            # the alert journal must not be discovered as a sample target
            assert "alerts" not in pipeline.store.targets()
            status = pipeline.status()
            assert [e["state"] for e in status["history"]] == [
                "firing", "resolved"
            ]
            assert any(r["name"] == "deep" for r in status["rules"])
        finally:
            pipeline.stop()

    def test_scrape_loop_runs_and_stops(self, replicas, tmp_path):
        pipeline = TelemetryPipeline(
            replica_urls=[s.url for s in replicas],
            store=None,
            interval_s=0.05,
        )
        pipeline.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if pipeline.status()["ticks"] >= 3:
                    break
                time.sleep(0.02)
            assert pipeline.status()["ticks"] >= 3
        finally:
            pipeline.stop()

    def test_double_start_rejected(self):
        pipeline = TelemetryPipeline(store=None, interval_s=1.0)
        pipeline.start()
        try:
            with pytest.raises(TrackingError):
                pipeline.start()
        finally:
            pipeline.stop()


class TestShutdownLeaks:
    def test_pipeline_stop_leaves_no_threads_or_fds(self, replicas, tmp_path):
        """Satellite: the scrape loop must release every thread, socket
        and descriptor on stop()."""
        # warm up: let thread/fd churn from earlier tests settle
        before_threads = set(threading.enumerate())
        before_fds = open_fd_count()
        pipeline = TelemetryPipeline(
            replica_urls=[s.url for s in replicas],
            store=tmp_path / "obs",
            interval_s=0.05,
        )
        pipeline.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if pipeline.status()["ticks"] >= 2:
                break
            time.sleep(0.02)
        pipeline.stop()
        assert_no_leaks(before_threads, before_fds)

    def test_telemetry_hub_scrapes_through_one_aggregator(
        self, replicas, tmp_path, monkeypatch
    ):
        """One pool per replica: ``/fleet/metrics`` and the scrape loop share
        the pipeline's aggregator, and the hub's stop releases it."""
        from repro.fleet.pool import ConnectionPool
        from repro.hub import aggregate
        from repro.obs.prom import parse_prometheus_text

        pools = []

        class CountedPool(ConnectionPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(aggregate, "ConnectionPool", CountedPool)
        before_threads = set(threading.enumerate())
        before_fds = open_fd_count()
        server = HubServer(
            tmp_path / "runs",
            replica_urls=[s.url for s in replicas],
            telemetry=True,
            scrape_interval_s=0.05,
        )
        assert server.aggregator is server.telemetry.aggregator
        assert len(pools) == len(replicas)
        server.start()
        client = HubClient(server.url)
        try:
            deadline = time.monotonic() + 5.0
            while server.telemetry.status()["ticks"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            families = parse_prometheus_text(client.fleet_metrics())
            assert "fleet:service_requests_total" in families
            with pytest.raises(TrackingError, match="404"):
                client._request("GET", "/fleet/status")
        finally:
            client.close()
            server.stop()
        assert len(pools) == len(replicas)
        assert_no_leaks(before_threads, before_fds)

    def test_fleet_top_frames_leave_no_threads_or_fds(self, replicas):
        """Satellite: a bounded `repro fleet top` session cleans up."""
        from repro.cli import main

        before_threads = set(threading.enumerate())
        before_fds = open_fd_count()
        code = main([
            "fleet", "top", *[s.url for s in replicas],
            "--interval", "0.05", "--iterations", "2", "--no-clear",
        ])
        assert code == 0
        assert_no_leaks(before_threads, before_fds)


class TestHubEndpoints:
    @pytest.fixture()
    def hub(self, tmp_path, replicas):
        server = HubServer(
            tmp_path / "runs",
            replica_urls=[s.url for s in replicas],
            telemetry=True,
            scrape_interval_s=0.1,
        )
        server.start()
        client = HubClient(server.url)
        try:
            yield server, client
        finally:
            client.close()
            server.stop()

    def wait_ticks(self, server, n, timeout_s=10.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if server.telemetry.status()["ticks"] >= n:
                return
            time.sleep(0.02)
        raise AssertionError(f"pipeline never reached {n} ticks")

    def test_alerts_endpoint_shape(self, hub):
        server, client = hub
        self.wait_ticks(server, 2)
        payload = client.alerts()
        assert payload["schema_version"] == 1
        assert isinstance(payload["active"], list)
        assert {r["name"] for r in payload["rules"]} >= {
            "replica_down", "evals_per_sec_floor",
        }
        assert "fleet" in payload["targets"]

    def test_obs_query_and_targets(self, hub):
        server, client = hub
        self.wait_ticks(server, 2)
        targets = client.obs_targets()["targets"]
        assert "fleet" in targets and "hub" in targets
        reply = client.obs_query("fleet", "replicas_up", fn="last",
                                 window_s=60.0)
        assert reply["value"] == 2.0
        # unknown series: value null, not an error
        assert client.obs_query("fleet", "nope")["value"] is None

    def test_obs_query_bad_fn_is_400(self, hub):
        server, client = hub
        self.wait_ticks(server, 1)
        with pytest.raises(TrackingError, match="400"):
            client.obs_query("fleet", "replicas_up", fn="stddev")

    def test_obs_export_incremental_cursor(self, hub):
        server, client = hub
        self.wait_ticks(server, 2)
        first = client.obs_export("fleet")
        assert first["samples"]
        cursor = first["cursor"]
        self.wait_ticks(server, server.telemetry.status()["ticks"] + 2)
        second = client.obs_export("fleet", after=cursor)
        assert second["samples"]
        ts = [s["t"] for s in first["samples"] + second["samples"]]
        assert ts == sorted(ts)

    def test_endpoints_404_without_telemetry(self, tmp_path):
        server = HubServer(tmp_path / "runs")
        server.start()
        client = HubClient(server.url)
        try:
            with pytest.raises(TrackingError, match="404"):
                client.alerts()
            with pytest.raises(TrackingError, match="404"):
                client.obs_query("fleet", "up")
        finally:
            client.close()
            server.stop()

    def test_hub_stop_leaves_no_threads(self, tmp_path, replicas):
        before = set(threading.enumerate())
        server = HubServer(
            tmp_path / "runs",
            replica_urls=[s.url for s in replicas],
            telemetry=True,
            scrape_interval_s=0.05,
        )
        server.start()
        self.wait_ticks(server, 2)
        server.stop()
        assert_no_leaks(before)
