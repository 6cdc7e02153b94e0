"""Tests for the CLI surface: bounded/live ``runs tail``, the hub
subcommands, ``fleet status`` and the one live dashboard, ``fleet top``."""

import json
import threading
import time

import pytest

from repro.cli import (
    _render_live_event,
    _split_fleet_text,
    counter_increase,
    main,
)
from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.hub.client import HubClient
from repro.hub.server import HubServer
from repro.mapping.gemm_mapping import GemmMapping
from repro.tracking.journal import read_events
from repro.tracking.store import RunStore
from tests.hub.test_server import assert_no_leaks, open_fd_count

MAPPINGS = [GemmMapping(4, 8, 4), GemmMapping(8, 8, 8), GemmMapping(16, 16, 8)]

WORKLOAD = "fsrcnn_120x320"


@pytest.fixture()
def tracked_run(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    code = main(
        [
            "run", "unico", WORKLOAD, "--preset", "smoke", "--seed", "2",
            "--track", "--runs-dir", runs_dir,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    run_id = out.split("tracked as run ")[1].splitlines()[0].strip()
    return runs_dir, run_id


@pytest.fixture()
def hub(tmp_path):
    server = HubServer(tmp_path / "hubruns", sse_poll_interval_s=0.02)
    server.start()
    try:
        yield server
    finally:
        server.stop()


class TestBoundedTail:
    def test_tail_prints_last_n_json_lines(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        assert main(
            ["runs", "tail", run_id, "-n", "4", "--runs-dir", runs_dir]
        ) == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l.strip()
        ]
        assert len(lines) == 4
        scan = read_events(RunStore(runs_dir).get(run_id).journal_path)
        assert [json.loads(l) for l in lines] == scan.events[-4:]

    def test_tail_warns_on_truncated_journal(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        journal = RunStore(runs_dir).get(run_id).journal_path
        with open(journal, "ab") as handle:
            handle.write(b'{"seq": 999, "type": "evalu')
        assert main(
            ["runs", "tail", run_id, "-n", "2", "--runs-dir", runs_dir]
        ) == 0
        captured = capsys.readouterr()
        assert "truncated tail" in captured.err

    def test_follow_terminal_run_prints_backlog_and_exits(
        self, tracked_run, capsys
    ):
        runs_dir, run_id = tracked_run
        assert main(
            [
                "runs", "tail", run_id, "-n", "5", "--follow",
                "--runs-dir", runs_dir,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "run_end" in out
        assert "(run completed)" in out


class TestLiveEventRenderer:
    def test_iteration_end(self):
        line = _render_live_event({
            "seq": 9, "type": "iteration_end",
            "record": {"iteration": 3, "time_s": 3600.0, "uul": 0.25,
                       "num_selected": 4, "num_feasible": 6,
                       "pareto_size": 11, "best_scalar": 0.125},
        })
        assert "iteration_end" in line
        assert "iter   3" in line and "pareto=11" in line

    def test_msh_round(self):
        line = _render_live_event({
            "seq": 2, "type": "msh_round", "iteration": 0, "round_index": 1,
            "candidates": [1, 2, 3], "survivors": [1], "auc_promoted": [],
        })
        assert "3 candidates" in line and "1 survivors" in line

    def test_unknown_type_falls_back_to_compact_json(self):
        line = _render_live_event({"seq": 1, "type": "engine_sample",
                                   "key": "abc"})
        assert "engine_sample" in line and "abc" in line

    def test_run_end(self):
        line = _render_live_event({
            "seq": 40, "type": "run_end", "completed_iterations": 2,
            "total_hw_evaluated": 12, "pareto_size": 9,
            "total_time_s": 360.0,
        })
        assert "2 iterations" in line and "pareto=9" in line


class TestHubCommands:
    def test_serve_submit_runs_cancel_flow(self, hub, capsys):
        # submit through the CLI against the live hub
        assert main(
            [
                "hub", "submit", hub.url, "unico", WORKLOAD,
                "--preset", "smoke", "--seed", "1",
            ]
        ) == 0
        run_id = capsys.readouterr().out.strip()
        assert run_id

        assert main(["hub", "runs", hub.url]) == 0
        out = capsys.readouterr().out
        assert run_id in out

        # wait for completion, then follow over SSE via the CLI
        with HubClient(hub.url) as client:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if client.get_run(run_id).get("status") in (
                    "completed", "failed", "cancelled"
                ):
                    break
                time.sleep(0.1)
        assert main(
            ["runs", "tail", run_id, "--follow", "--hub", hub.url]
        ) == 0
        out = capsys.readouterr().out
        assert "run_start" in out and "run_end" in out

    def test_cancel_unknown_run_raises(self, hub):
        from repro.errors import TrackingError

        with pytest.raises(TrackingError):
            main(["hub", "cancel", hub.url, "no-such-run"])

    def test_submit_bad_spec_raises(self, hub):
        from repro.errors import TrackingError

        with pytest.raises(TrackingError, match="400"):
            main(["hub", "submit", hub.url, "unico", "not_a_network"])


def drive_queries(network, servers, hw, mappings=MAPPINGS):
    """Send every mapping to every replica (one engine per replica, so no
    placement decides which replica sees traffic)."""
    for server in servers:
        with RemotePPAEngine(
            network, server.url, area_fn=spatial_area_mm2, timeout_s=2.0
        ) as engine:
            engine.evaluate_layers(hw, [(m, "gemm") for m in mappings])


def frames_of(out):
    """The frames of a ``fleet top --no-clear`` session, in order."""
    return ["fleet: " + frame for frame in out.split("fleet: ")[1:]]


def replica_rows(frame):
    """``{target: columns}`` of a frame's replica rows."""
    return {
        line.split()[0]: line.split()
        for line in frame.splitlines()
        if line.startswith("replica:")
    }


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


@pytest.fixture()
def fleet_hub(tmp_path, replicas):
    server = HubServer(
        tmp_path / "fleet-runs", replica_urls=[s.url for s in replicas]
    )
    server.start()
    try:
        yield server
    finally:
        server.stop()


def frames_under_traffic(tiny_network, replicas, sample_hw, source):
    """Two ``fleet top`` frames of ``source`` (replica URLs or ``--hub``
    and a URL) while every replica serves queries."""
    drive_queries(tiny_network, replicas, sample_hw)
    stop = threading.Event()

    def traffic():  # repeats: each query is also a replica cache hit
        while not stop.is_set():
            drive_queries(tiny_network, replicas, sample_hw)

    sender = threading.Thread(target=traffic)
    sender.start()
    try:
        assert main(
            ["fleet", "top", *source,
             "--interval", "0.3", "--iterations", "2", "--no-clear"]
        ) == 0
    finally:
        stop.set()
        sender.join(timeout=30.0)
    assert not sender.is_alive()


def assert_rates_hit_rate_and_scrape(out):
    first, second = frames_of(out)
    assert "2/2 replicas up" in second and "cache hit rate" in second
    assert "hit rate" in first and "scrape" in first
    rows = replica_rows(second)
    assert len(rows) == 2
    for cols in rows.values():
        state, evals_per_s, hit_rate, scrape = (
            cols[1], cols[2], cols[-3], cols[-2]
        )
        assert state == "up"
        assert float(evals_per_s) > 0.0, second
        assert hit_rate.endswith("%") and float(hit_rate[:-1]) > 0.0
        assert scrape.endswith("ms")


def assert_second_replica_down(frame, replicas):
    assert "1/2 replicas up" in frame
    rows = replica_rows(frame)
    assert rows[f"replica:{replicas[0].url.split('//')[1]}"][1] == "up"
    assert rows[f"replica:{replicas[1].url.split('//')[1]}"][1] == "DOWN"


class TestSplitFleetText:
    def test_merged_exposition_splits_into_fleet_and_replicas(self):
        fleet, replicas = _split_fleet_text(
            "# TYPE engine_queries_total counter\n"
            'engine_queries_total{replica="a:1"} 4\n'
            "# TYPE fleet:engine_queries_total counter\n"
            "fleet:engine_queries_total 4\n"
            "# TYPE service_requests_total counter\n"
            'service_requests_total{path="/health",replica="a:1"} 2\n'
            'service_requests_total{path="/metrics",replica="a:1"} 3\n'
            "# TYPE up gauge\n"
            'up{replica="a:1"} 1\n'
            'up{replica="b:2"} 0\n'
        )
        assert fleet == {"engine_queries_total": 4.0}
        assert list(replicas) == ["a:1", "b:2"]  # in ``up`` order
        assert replicas["a:1"] == {
            "engine_queries_total": 4.0,
            "service_requests_total": 5.0,  # summed over ``path``
            "up": 1.0,
        }
        assert replicas["b:2"] == {"up": 0.0}


class TestCounterIncrease:
    def test_monotone(self):
        assert counter_increase([(0, 1.0), (1, 4.0), (2, 9.0)]) == 8.0

    def test_reset_counts_post_restart_value(self):
        # 10 -> 2 is a restart: the 2 is new growth, not a -8 delta
        assert counter_increase([(0, 10.0), (1, 2.0), (2, 5.0)]) == 5.0

    def test_single_point_is_zero(self):
        assert counter_increase([(0, 10.0)]) == 0.0


class TestFleetDashboard:
    def test_dashboard_without_sources_errors(self, capsys):
        assert main(["fleet", "top"]) == 2
        assert "needs replica URLs or --hub" in capsys.readouterr().err

    def test_status_is_the_one_shot_health_check_only(self):
        for argv in (["fleet", "status"],
                     ["fleet", "status", "--watch"],
                     ["fleet", "status", "--hub", "http://127.0.0.1:9"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2

    def test_one_shot_dashboard_via_hub(self, fleet_hub, replicas, capsys):
        assert main(
            ["fleet", "top", "--hub", fleet_hub.url,
             "--iterations", "1", "--no-clear"]
        ) == 0
        (frame,) = frames_of(capsys.readouterr().out)
        assert "2/2 replicas up" in frame
        rows = replica_rows(frame)
        for server in replicas:
            assert rows[f"replica:{server.url.split('//')[1]}"][1] == "up"

    def test_hub_frames_show_rates_hit_rate_and_scrape(
        self, tiny_network, replicas, sample_hw, fleet_hub, capsys
    ):
        frames_under_traffic(
            tiny_network, replicas, sample_hw, ["--hub", fleet_hub.url]
        )
        assert_rates_hit_rate_and_scrape(capsys.readouterr().out)

    def test_hub_without_replicas_exits_2(self, hub, capsys):
        assert main(
            ["fleet", "top", "--hub", hub.url, "--iterations", "1",
             "--no-clear"]
        ) == 2
        err = capsys.readouterr().err
        assert "(404)" in err and "hub has no fleet configured" in err

    def test_stopped_replica_renders_down_via_hub(
        self, fleet_hub, replicas, capsys
    ):
        replicas[1].stop()
        assert main(
            ["fleet", "top", "--hub", fleet_hub.url,
             "--iterations", "1", "--no-clear"]
        ) == 0
        (frame,) = frames_of(capsys.readouterr().out)
        assert_second_replica_down(frame, replicas)

    def test_local_frames_show_rates_hit_rate_and_scrape(
        self, tiny_network, replicas, sample_hw, capsys
    ):
        frames_under_traffic(
            tiny_network, replicas, sample_hw, [s.url for s in replicas]
        )
        assert_rates_hit_rate_and_scrape(capsys.readouterr().out)

    def test_stopped_replica_renders_down(self, replicas, capsys):
        replicas[1].stop()
        assert main(
            ["fleet", "top", *[s.url for s in replicas], "--timeout", "0.5",
             "--iterations", "1", "--no-clear"]
        ) == 0
        (frame,) = frames_of(capsys.readouterr().out)
        assert_second_replica_down(frame, replicas)

    def test_fleet_top_frames_leave_no_threads_or_fds(self, replicas):
        """A bounded ``repro fleet top`` session cleans up."""
        before_threads = set(threading.enumerate())
        before_fds = open_fd_count()
        code = main([
            "fleet", "top", *[s.url for s in replicas],
            "--interval", "0.05", "--iterations", "2", "--no-clear",
        ])
        assert code == 0
        assert_no_leaks(before_threads, before_fds)

    def test_one_shot_dashboard_exits_nonzero_on_down_replica(
        self, replicas
    ):
        # the per-URL health check: a down replica fails the exit code
        assert main(
            ["fleet", "status", replicas[0].url, "http://127.0.0.1:9"]
        ) == 1
