"""Fleet supervisor: replica lifecycle, health, graceful SIGTERM stops."""

import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
from urllib.request import urlopen

import pytest

from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import RemotePPAEngine
from repro.costmodel.timeloop import TimeloopEngine
from repro.errors import ConfigurationError
from repro.fleet.server import FleetSupervisor, ReplicaSpec, build_replica_engine
from repro.mapping.flextensor import FlexTensorSearch
from repro.workloads.registry import get_network

SPEC = ReplicaSpec(network="mobilenetv3_small", cache_capacity=256)


class TestSpec:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicaSpec(network="mobilenetv3_small", engine="verilog")

    def test_build_maestro_engine(self):
        engine = build_replica_engine(SPEC)
        assert engine.network.name == "mobilenetv3_small"

    def test_build_timeloop_engine(self):
        spec = ReplicaSpec(network="mobilenetv3_small", engine="timeloop", cache_capacity=256)
        engine = build_replica_engine(spec)
        assert isinstance(engine, TimeloopEngine)
        assert engine.network.name == "mobilenetv3_small"

    def test_build_ascend_engine(self):
        spec = ReplicaSpec(network="mobilenetv3_small", engine="ascend")
        engine = build_replica_engine(spec)
        assert engine.network.name == "mobilenetv3_small"


class TestLifecycle:
    def test_replicas_rejected_below_one(self):
        with pytest.raises(ConfigurationError):
            FleetSupervisor(SPEC, replicas=0)

    def test_start_serves_and_stop_kills(self):
        with FleetSupervisor(SPEC, replicas=2) as fleet:
            assert len(fleet.urls) == 2
            assert len(set(fleet.urls)) == 2
            for url in fleet.urls:
                with urlopen(f"{url}/health", timeout=5.0) as response:
                    payload = json.loads(response.read())
                assert payload["status"] == "ok"
                assert payload["workload"] == "mobilenetv3_small"
            rows = fleet.status()
            assert all(row["alive"] for row in rows)
            assert all(row["health"]["status"] == "ok" for row in rows)
            procs = list(fleet._procs)
        # context exit stopped everything
        assert fleet.urls == []
        assert all(not proc.is_alive() for proc in procs)

    def test_sigterm_is_a_clean_exit(self):
        """SIGTERM runs the drain path, not a hard kill (exitcode 0)."""
        fleet = FleetSupervisor(SPEC, replicas=2).start()
        try:
            proc = fleet._procs[0]
            fleet.terminate_replica(0)
            proc.join(timeout=10.0)
            assert not proc.is_alive()
            assert proc.exitcode == 0
            rows = fleet.status()
            assert rows[0]["alive"] is False
            assert rows[1]["alive"] is True
        finally:
            fleet.stop()

    def test_double_start_rejected(self):
        fleet = FleetSupervisor(SPEC, replicas=1).start()
        try:
            with pytest.raises(ConfigurationError):
                fleet.start()
        finally:
            fleet.stop()

    def test_fixed_ports_honored(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        spec = ReplicaSpec(network="mobilenetv3_small", ports=(port,))
        with FleetSupervisor(spec, replicas=1) as fleet:
            assert fleet.urls[0].endswith(f":{port}")


class TestWhatTheBenchmarkReads:
    """The end-to-end benchmark's ``route_counters`` reads a replica's
    public ``GET /metrics`` and its pid after a remote search: a handler
    that stops recording one of these fails here, not in a traced
    benchmark run."""

    def test_metrics_after_one_remote_search(self, sample_hw):
        network = get_network("fsrcnn_120x320")
        spec = ReplicaSpec(network=network.name, cache_capacity=256)
        with FleetSupervisor(spec, replicas=1) as fleet:
            with RemotePPAEngine(
                network, fleet.urls[0], area_fn=spatial_area_mm2
            ) as remote:
                FlexTensorSearch(network, sample_hw, remote, seed=0).run(24)
                sent = remote.metrics.counter_value("remote_requests_total")
            with urlopen(f"{fleet.urls[0]}/metrics", timeout=5.0) as response:
                document = json.loads(response.read())
            pid = fleet.status()[0]["pid"]
        assert isinstance(pid, int) and pid > 0
        histograms = document["metrics"]["histograms"]
        assert histograms["service_request_seconds"]["sum"] > 0.0
        assert histograms["engine_compute_seconds"]["sum"] > 0.0
        counters = document["metrics"]["counters"]
        assert sent > 0
        assert counters["service_requests_total[/evaluate_layers]"] == sent
        # the spec's bound reaches the replica's cache
        assert document["engine"]["cache_capacity"] == 256


def _children_of(pid: int):
    """Pids whose parent is ``pid`` (field 4 of ``/proc/<pid>/stat``)."""
    children = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # the process exited while we looked
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_fleet_serve_sigterm_stops_every_replica():
    """``repro fleet serve`` under SIGTERM (systemd, ``docker stop``, ``kill``)
    stops the fleet as Ctrl-C does: exit 0, replicas gone, ports free."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "serve", "fsrcnn_120x320",
         "--replicas", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        banner = []
        while not banner or "RemotePPAEngine" not in banner[-1]:
            line = supervisor.stdout.readline()
            assert line, f"fleet serve exited early: {banner}"
            banner.append(line)
        assert "SIGTERM" in banner[-1]  # the banner says what stops the fleet
        ports = [
            int(port)
            for port in re.findall(r"http://127\.0\.0\.1:(\d+)", "".join(banner))
        ]
        replicas = _children_of(supervisor.pid)
        assert len(ports) == len(replicas) == 2
        for port in ports:
            with urlopen(f"http://127.0.0.1:{port}/health", timeout=5.0) as response:
                assert json.loads(response.read())["status"] == "ok"

        supervisor.send_signal(signal.SIGTERM)
        assert supervisor.wait(timeout=20.0) == 0
        assert not any(_pid_alive(pid) for pid in replicas)
        for port in ports:  # free: nobody listens any more
            with socket.socket() as probe:
                assert probe.connect_ex(("127.0.0.1", port)) != 0
    finally:
        replicas = _children_of(supervisor.pid)  # orphans-to-be of a failed run
        if supervisor.poll() is None:
            supervisor.kill()
            supervisor.wait(timeout=5.0)
        for pid in replicas:
            if _pid_alive(pid):
                os.kill(pid, signal.SIGKILL)
        supervisor.stdout.close()
