"""Hub observability gates: SSE streaming overhead and fleet-merge latency.

Two promises the hub makes, measured:

1. **Watching a run must not slow it down.**  A live SSE consumer reads
   the run's journal from the side — the writer path (one ``O_APPEND``
   write per event) is untouched, so the only possible costs are server
   poll threads and filesystem contention.  The gate runs the same
   tracked co-search with and without a streaming client attached,
   paired round-robin with best-of-N per arm (robust to one-sided
   scheduler noise), and requires the streamed arm within
   ``MAX_OVERHEAD`` of the plain arm.  The run is sized to ~1s (a
   scaled-up smoke preset) so the gate measures relative drag, not
   timing noise on a 25ms sprint.  The stream itself is validated —
   every journal event must actually arrive, in order, or the "overhead"
   number measures a broken stream.

2. **A fleet dashboard refresh must feel instant.**  One
   ``scrape + merge`` sweep over 4 live replicas — parallel scrapes,
   strict parse, per-replica relabeling, ``fleet:*`` rollups — must
   complete in under ``MAX_MERGE_MS`` (best of ``ROUNDS``; the dashboard
   refreshes every ~2s, so 50ms is >97% idle).

Results land in ``BENCH_hub.json``.
"""

import dataclasses
import json
import threading
import time

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import PPAServiceServer
from repro.experiments.harness import run_method
from repro.experiments.presets import get_preset
from repro.hub.aggregate import FleetAggregator
from repro.hub.client import HubClient
from repro.hub.server import HubServer
from repro.tracking.journal import read_events
from repro.tracking.store import RunStore
from repro.tracking.tracker import JournalTracker
from repro.utils.prom import parse_prometheus_text

WORKLOAD = "fsrcnn_120x320"
ROUNDS = 3
MAX_OVERHEAD = 0.05   # streamed run within 5% of unstreamed
MAX_MERGE_MS = 50.0   # one 4-replica scrape+merge sweep
MERGE_REPLICAS = 4


def _bench_preset():
    """A ~1s co-search (vs ~25ms smoke): long enough that the gate
    measures streaming drag, not scheduler jitter."""
    return dataclasses.replace(
        get_preset("smoke"), name="bench",
        unico_batch=12, unico_iterations=8, unico_budget=200,
    )


def _tracked_run(store, seed, client=None):
    """One tracked bench co-search; returns (elapsed_s, run, streamed)."""
    manifest = {
        "method": "unico", "scenario": "edge", "workload": WORKLOAD,
        "preset": "bench", "seed": seed, "status": "created",
    }
    run = store.create_run(manifest, run_id=f"bench-{seed}-{time.time_ns()}")
    streamed = []
    consumer = None
    if client is not None:
        ready = threading.Event()

        def consume():
            ready.set()
            for event in client.stream_events(run.run_id):
                streamed.append(event)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        ready.wait()
    tracker = JournalTracker(run)
    start = time.perf_counter()
    run_method("unico", "edge", WORKLOAD, _bench_preset(), seed=seed,
               tracker=tracker)
    elapsed = time.perf_counter() - start
    if consumer is not None:
        consumer.join(timeout=60.0)
        assert not consumer.is_alive(), "SSE stream never reached run_end"
    return elapsed, run, streamed


def test_sse_streaming_overhead(results_dir, tmp_path):
    store = RunStore(tmp_path / "runs")
    server = HubServer(store, sse_poll_interval_s=0.02,
                       reconcile_on_start=False)
    server.start()
    client = HubClient(server.url)
    try:
        # warmup arm: JIT-ish caches (imports, engine constants) off the clock
        _tracked_run(store, seed=99)

        plain_times, streamed_times = [], []
        for round_index in range(ROUNDS):
            elapsed, _run, _ = _tracked_run(store, seed=2 * round_index)
            plain_times.append(elapsed)
            elapsed, run, streamed = _tracked_run(
                store, seed=2 * round_index + 1, client=client
            )
            streamed_times.append(elapsed)
            # the stream must be exact, or the timing is meaningless
            scan = read_events(run.journal_path)
            assert [e.event for e in streamed] == scan.events
    finally:
        client.close()
        server.stop()

    plain, streamed_best = min(plain_times), min(streamed_times)
    overhead = streamed_best / plain - 1.0

    record_path = results_dir / "BENCH_hub.json"
    record = (
        json.loads(record_path.read_text()) if record_path.exists() else {}
    )
    record["sse_streaming_overhead"] = {
        "rounds": ROUNDS,
        "plain_best_s": plain,
        "streamed_best_s": streamed_best,
        "overhead_fraction": overhead,
        "events_per_run": len(read_events(run.journal_path).events),
    }
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))

    assert overhead <= MAX_OVERHEAD, (
        f"live SSE streaming slowed the tracked co-search by "
        f"{overhead:.1%} (plain {plain:.3f}s vs streamed "
        f"{streamed_best:.3f}s); gate is {MAX_OVERHEAD:.0%}"
    )


def test_fleet_scrape_merge_latency(results_dir):
    from repro.workloads.layers import Gemm
    from repro.workloads.network import Network

    network = Network(
        name="hubbench",
        layers=(Gemm(name="gemm", m=32, n=64, k=48),),
        family="bench",
        year=2023,
    )
    servers = [
        PPAServiceServer(MaestroEngine(network))
        for _ in range(MERGE_REPLICAS)
    ]
    for server in servers:
        server.start()
    aggregator = FleetAggregator([server.url for server in servers])
    try:
        # prime keep-alive connections + replica counters, off the clock
        merged = aggregator.merge(aggregator.scrape())
        parse_prometheus_text(merged)  # the merge must be strictly valid

        best_ms = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            scrapes = aggregator.scrape()
            merged = aggregator.merge(scrapes)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            assert all(s.ok for s in scrapes)
            best_ms = min(best_ms, elapsed_ms)
    finally:
        aggregator.close()
        for server in servers:
            server.stop()

    record_path = results_dir / "BENCH_hub.json"
    record = (
        json.loads(record_path.read_text()) if record_path.exists() else {}
    )
    record["fleet_scrape_merge"] = {
        "replicas": MERGE_REPLICAS,
        "rounds": ROUNDS,
        "best_ms": best_ms,
        "merged_families": len(parse_prometheus_text(merged)),
    }
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))

    assert best_ms < MAX_MERGE_MS, (
        f"4-replica scrape+merge took {best_ms:.1f}ms; "
        f"gate is {MAX_MERGE_MS:.0f}ms"
    )
