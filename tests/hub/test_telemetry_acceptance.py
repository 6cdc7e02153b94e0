"""End-to-end telemetry acceptance: a hub scraping a live 2-replica
FleetSupervisor fleet must page when a replica dies mid-run (``replica_down``
and ``evals_per_sec_floor`` within two scrape intervals of the first failed
scrape), surface the alerts on ``GET /alerts`` and the SSE stream, resolve
them once the replica returns, and keep a crash-survivable metrics store."""

import socket
import threading
import time

import pytest

from repro.costmodel import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.fleet.server import FleetSupervisor, ReplicaSpec
from repro.hub import HubClient, HubServer
from repro.hw import edge_design_space
from repro.mapping import GemmMapping
from repro.tracking.journal import read_events
from repro.workloads import get_network

INTERVAL = 0.2
MAPPINGS = [GemmMapping(4, 8, 4), GemmMapping(8, 8, 8), GemmMapping(16, 16, 8)]


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def drive(network, urls, hw):
    sharded = RemotePPAEngine(
        network, list(urls), area_fn=spatial_area_mm2,
        timeout_s=10.0, batch_size=2,
    )
    try:
        sharded.evaluate_layers(hw, [(m, "fc") for m in MAPPINGS])
    finally:
        sharded.close()


class Driver:
    """Continuous query traffic, like a co-search mid-run.

    Keeps evaluating against the whole fleet until stopped; once a
    replica dies its keys fail over down the rendezvous ranking, so the
    survivors stay busy and only the dead replica's rate collapses.
    """

    def __init__(self, network, urls, hw):
        self._sharded = RemotePPAEngine(
            network, list(urls), area_fn=spatial_area_mm2,
            timeout_s=10.0, batch_size=2,
        )
        self._hw = hw
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self):
        self._thread.start()
        return self

    def _loop(self):
        i = 0
        while not self._stop.is_set():
            # vary the tiles each round so neither the client's nor the
            # replicas' result caches swallow the traffic
            i += 1
            fresh = [
                GemmMapping(4, 8, 3 * i - 2),
                GemmMapping(8, 8, 3 * i - 1),
                GemmMapping(16, 16, 3 * i),
            ]
            try:
                self._sharded.evaluate_layers(self._hw, [(m, "fc") for m in fresh])
            except Exception:
                pass  # a mid-kill batch may fail; keep the traffic flowing
            self._stop.wait(0.05)

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=30.0)
        self._sharded.close()


def firing(client, target):
    return {
        a["rule"]
        for a in client.alerts()["active"]
        if a["state"] == "firing" and a["target"] == target
    }


class TestFleetTelemetryAcceptance:
    def test_kill_restore_alert_lifecycle(self, tmp_path):
        network = get_network("mobilenetv3_small")
        hw = edge_design_space().to_config({
            "pe_x": 8, "pe_y": 8, "l1_bytes": 4096,
            "l2_kb": 256, "noc_bw": 64, "dataflow": "ws",
        })
        ports = (free_port(), free_port())
        spec = ReplicaSpec(
            network="mobilenetv3_small", cache_capacity=256, ports=ports
        )
        fleet = FleetSupervisor(spec, replicas=2).start()
        down_target = f"replica:127.0.0.1:{ports[0]}"
        hub = HubServer(
            tmp_path / "runs",
            replica_urls=list(fleet.urls),
            telemetry=True,
            scrape_interval_s=INTERVAL,
        )
        hub.start()
        client = HubClient(hub.url)
        streamed = []
        collector = threading.Thread(
            target=lambda: streamed.extend(client.stream_alerts()),
            daemon=True,
        )
        collector.start()
        replacement = None
        driver = Driver(network, fleet.urls, hw).start()
        try:
            # -- healthy fleet: scrape a few ticks of real query traffic
            self._wait_ticks(hub, 4)
            assert firing(client, down_target) == set()

            # -- kill replica 0 mid-run; the driver fails over and keeps
            # the survivor busy, so only the dead replica's rate collapses
            proc = fleet._procs[0]
            fleet.terminate_replica(0)
            proc.join(timeout=10.0)
            assert not proc.is_alive()

            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if {"replica_down", "evals_per_sec_floor"} <= firing(
                    client, down_target
                ):
                    break
                time.sleep(0.05)
            assert {"replica_down", "evals_per_sec_floor"} <= firing(
                client, down_target
            ), client.alerts()["active"]

            # both alerts fired within 2 scrape intervals of the first
            # failed scrape (the tick that recorded up=0)
            samples = client.obs_export(down_target)["samples"]
            first_down_t = next(
                s["t"] for s in samples if s["s"].get("up") == 0.0
            )
            history = client.alerts()["history"]
            for rule in ("replica_down", "evals_per_sec_floor"):
                fired_t = min(
                    e["t"] for e in history
                    if e["state"] == "firing"
                    and e["target"] == down_target
                    and e["rule"] == rule
                    and e["t"] >= first_down_t - 1e-6
                )
                assert fired_t - first_down_t <= 2 * INTERVAL + 1e-6, (
                    rule, fired_t, first_down_t
                )

            # -- bring the replica back on the same port
            replacement = PPAServiceServer(
                MaestroEngine(network), port=ports[0]
            )
            replacement.start()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                active = firing(client, down_target)
                if not active:
                    break
                if "evals_per_sec_floor" in active:
                    # the floor rule resolves on hysteresis: it needs the
                    # eval rate clearly back above the floor, so keep
                    # serving real queries through the restored replica
                    drive(network, [replacement.url], hw)
                time.sleep(0.1)
            assert firing(client, down_target) == set(), (
                client.alerts()["active"]
            )

            history = client.alerts()["history"]
            for rule in ("replica_down", "evals_per_sec_floor"):
                states = [
                    e["state"] for e in history
                    if e["rule"] == rule and e["target"] == down_target
                ]
                # full lifecycle observed: at least one firing -> resolved
                # cycle, alternating, ending resolved
                assert "firing" in states and states[-1] == "resolved", (
                    rule, states
                )
                assert states == [
                    "firing" if i % 2 == 0 else "resolved"
                    for i in range(len(states))
                ], (rule, states)
        finally:
            driver.stop()
            hub.stop()  # drains: the SSE alert stream ends cleanly
            client.close()
            if replacement is not None:
                replacement.stop()
            fleet.stop()

        # the drained hub closed the SSE stream; every journalled alert
        # transition for the dead replica also travelled over SSE
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        scan = read_events(hub.telemetry.alerts_journal_path)
        journalled = [
            (e["state"], e["rule"]) for e in scan.events
            if e["target"] == down_target
        ]
        assert ("firing", "replica_down") in journalled
        assert ("resolved", "replica_down") in journalled
        streamed_pairs = [
            (e.event["state"], e.event["rule"])
            for e in streamed
            if e.event is not None and e.event.get("target") == down_target
        ]
        assert streamed_pairs == journalled

    def _wait_ticks(self, hub, n, timeout_s=15.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if hub.telemetry.status()["ticks"] >= n:
                return
            time.sleep(0.02)
        raise AssertionError(f"pipeline never reached {n} ticks")

    def test_store_survives_crash_and_hub_restart(self, tmp_path):
        """The metrics store under the hub tolerates a torn tail across a
        hub restart and resumes appending byte-consistently."""
        obs_dir = tmp_path / "runs" / "obs"
        hub = HubServer(
            tmp_path / "runs", telemetry=True, scrape_interval_s=0.05
        )
        hub.start()
        try:
            self._wait_ticks(hub, 3)
        finally:
            hub.stop()
        path = obs_dir / "hub.jsonl"
        clean = read_events(path).valid_bytes
        before = path.read_bytes()[:clean]
        with open(path, "ab") as handle:
            handle.write(b'{"t": 1.0, "s": {"hub_queue')  # torn write

        hub = HubServer(
            tmp_path / "runs", telemetry=True, scrape_interval_s=0.05
        )
        hub.start()
        try:
            self._wait_ticks(hub, 2)
        finally:
            hub.stop()
        scan = read_events(path)
        assert not scan.truncated_tail  # damage truncated, never welded
        assert path.read_bytes().startswith(before)
        assert len(scan.events) > len(before.splitlines())
