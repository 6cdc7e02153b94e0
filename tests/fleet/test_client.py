"""The remote engine over N replicas: parity with local engines, fan-out,
failover, draining — and one replica paying nothing for placement."""

import socket
import sys
import threading

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.errors import EvaluationError
import repro.fleet.hashing as hashing
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gemm_mapping import GemmMapping

MAPPINGS = [
    GemmMapping(4, 8, 4),
    GemmMapping(8, 8, 8),
    GemmMapping(16, 16, 8),
    GemmMapping(4, 16, 16),
    GemmMapping(8, 32, 8),
    GemmMapping(16, 8, 16),
]
REQUESTS = [(mapping, "gemm") for mapping in MAPPINGS]


@pytest.fixture()
def fleet(tiny_network):
    servers = [PPAServiceServer(MaestroEngine(tiny_network)) for _ in range(3)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


def _sharded(tiny_network, fleet, **overrides):
    kwargs = dict(
        timeout_s=2.0,
        max_network_retries=0,
        backoff_base_s=0.001,
        backoff_max_s=0.002,
        batch_size=2,
    )
    kwargs.update(overrides)
    return RemotePPAEngine(
        tiny_network,
        [server.url for server in fleet],
        area_fn=spatial_area_mm2,
        **kwargs,
    )


class TestParity:
    def test_candidates_match_local_engine(self, tiny_network, fleet, sample_hw):
        local = MaestroEngine(tiny_network)
        sharded = _sharded(tiny_network, fleet)
        expected = local.evaluate_layers(sample_hw, REQUESTS)
        assert sharded.evaluate_layers(sample_hw, REQUESTS) == expected
        assert sharded.num_queries == local.num_queries
        sharded.close()

    def test_layers_match_local_engine(self, tiny_network, fleet, sample_hw):
        local = MaestroEngine(tiny_network)
        sharded = _sharded(tiny_network, fleet)
        requests = REQUESTS
        assert sharded.evaluate_layers(
            sample_hw, requests
        ) == local.evaluate_layers(sample_hw, requests)
        assert sharded.num_queries == local.num_queries
        sharded.close()

    def test_repeat_served_from_client_cache(self, tiny_network, fleet, sample_hw):
        sharded = _sharded(tiny_network, fleet)
        first = sharded.evaluate_layers(sample_hw, REQUESTS)
        backend_queries = [server.engine.num_queries for server in fleet]
        again = sharded.evaluate_layers(sample_hw, REQUESTS)
        assert again == first
        assert [server.engine.num_queries for server in fleet] == backend_queries
        assert sharded.num_cache_hits == len(MAPPINGS)
        sharded.close()

    def test_full_search_bit_identical_to_local(
        self, tiny_network, fleet, sample_hw
    ):
        """The tentpole parity gate: a search sees identical bytes."""
        local_search = FlexTensorSearch(
            tiny_network, sample_hw, MaestroEngine(tiny_network), seed=7
        )
        local_search.run(20)
        sharded = _sharded(tiny_network, fleet)
        remote_search = FlexTensorSearch(tiny_network, sample_hw, sharded, seed=7)
        remote_search.run(20)
        assert np.array_equal(
            remote_search.best_curve(), local_search.best_curve()
        )
        assert remote_search.best_objective == local_search.best_objective
        sharded.close()

    def test_work_spreads_across_replicas(self, tiny_network, fleet, sample_hw):
        sharded = _sharded(tiny_network, fleet)
        sharded.evaluate_layers(sample_hw, REQUESTS)
        served = [server.engine.num_queries for server in fleet]
        assert sum(served) == len(MAPPINGS)
        assert sum(1 for count in served if count > 0) >= 2
        sharded.close()


class TestFailover:
    def test_dead_replica_fails_over(self, tiny_network, fleet, sample_hw):
        local = MaestroEngine(tiny_network)
        sharded = _sharded(tiny_network, fleet)
        fleet[0].stop()
        results = sharded.evaluate_layers(sample_hw, REQUESTS)
        assert results == local.evaluate_layers(sample_hw, REQUESTS)
        sharded.close()

    def test_draining_replica_rerouted_without_breaker_charge(
        self, tiny_network, fleet, sample_hw
    ):
        local = MaestroEngine(tiny_network)
        sharded = _sharded(tiny_network, fleet)
        fleet[1].begin_drain()
        results = sharded.evaluate_layers(sample_hw, REQUESTS)
        assert results == local.evaluate_layers(sample_hw, REQUESTS)
        # a drain is routine: no breaker may have opened anywhere
        assert all(
            shard.breaker.num_opens == 0 for shard in sharded.router.shards
        )
        sharded.close()

    def test_single_url_degenerates_to_remote_engine(
        self, tiny_network, fleet, sample_hw, monkeypatch
    ):
        """One URL is the plain remote engine: nothing is placed, so nothing
        is hashed, no worker thread exists and one connection is opened."""
        scored = []
        real_score = hashing.rendezvous_score
        monkeypatch.setattr(
            hashing,
            "rendezvous_score",
            lambda key, shard_id: scored.append(key) or real_score(key, shard_id),
        )
        local_search = FlexTensorSearch(
            tiny_network, sample_hw, MaestroEngine(tiny_network), seed=7
        )
        local_search.run(20)
        with RemotePPAEngine(
            tiny_network, fleet[0].url, area_fn=spatial_area_mm2
        ) as remote:
            remote_search = FlexTensorSearch(tiny_network, sample_hw, remote, seed=7)
            remote_search.run(20)
            assert np.array_equal(
                remote_search.best_curve(), local_search.best_curve()
            )
            assert remote_search.best_objective == local_search.best_objective
            assert fleet[0].engine.num_queries > 0
            # ... and a batch of several chunks changes none of that
            remote.batch_size = 2
            expected = MaestroEngine(tiny_network).evaluate_layers(sample_hw, REQUESTS)
            assert remote.evaluate_layers(sample_hw, REQUESTS) == expected
            assert scored == []
            assert remote._executor is None
            assert remote.stats()["pool"]["num_created"] == 1
        # the counter does see placement when there is something to place
        sharded = _sharded(tiny_network, fleet)
        sharded.evaluate_layers(sample_hw, REQUESTS)
        sharded.close()
        assert scored

    def test_no_urls_rejected(self, tiny_network):
        with pytest.raises(EvaluationError):
            RemotePPAEngine(tiny_network, [], area_fn=spatial_area_mm2)


def _dead_url() -> str:
    """A URL nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


class TestCountersUnderFanout:
    """The transport counters are bumped on ``fleet-client`` worker threads."""

    CHUNKS = 64
    WORKERS = 8
    RETRIES = 2

    @pytest.fixture(autouse=True)
    def eager_thread_switches(self):
        """Switch threads as often as the interpreter allows."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def _failing(self, tiny_network, **overrides):
        return RemotePPAEngine(
            tiny_network,
            [_dead_url(), _dead_url()],
            area_fn=spatial_area_mm2,
            timeout_s=0.5,
            max_network_retries=self.RETRIES,
            backoff_base_s=0.0005,
            backoff_max_s=0.001,
            batch_size=1,
            max_inflight=self.WORKERS,
            **overrides,
        )

    def _requests(self):
        return [
            (GemmMapping(1 + index % 8, 1 + index // 8, 1), "gemm")
            for index in range(self.CHUNKS)
        ]

    def test_retry_and_failover_totals_are_exact(self, tiny_network, sample_hw):
        # breakers that never open: every chunk tries both dead shards,
        # each with the full retry budget
        with self._failing(tiny_network, breaker_threshold=10**6) as remote:
            with pytest.raises(EvaluationError, match="network failure"):
                remote.evaluate_layers(sample_hw, self._requests())
            threads = [t.name for t in threading.enumerate()]
            assert sum(name.startswith("fleet-client") for name in threads) > 1
            assert remote.num_network_retries == self.CHUNKS * 2 * self.RETRIES
            assert remote.router.num_failovers == self.CHUNKS * 2
            assert remote.num_circuit_rejections == 0
            counter = remote.metrics.counter_value
            assert counter("remote_network_retries_total") == (
                remote.num_network_retries
            )
            assert sum(
                counter(f"fleet_failovers_total[shard=shard-{index}]")
                for index in range(2)
            ) == remote.router.num_failovers

    def test_circuit_rejection_totals_are_exact(self, tiny_network, sample_hw):
        with self._failing(tiny_network, breaker_cooldown_s=60.0) as remote:
            for shard in remote.router.shards:
                for _ in range(shard.breaker.threshold):
                    shard.breaker.record(False)
            # both breakers open: each chunk skips its owner and is failed
            # fast by the last shard of its ranking — one rejection each
            with pytest.raises(EvaluationError, match="circuit breaker open"):
                remote.evaluate_layers(sample_hw, self._requests())
            assert remote.num_circuit_rejections == self.CHUNKS
            assert remote.router.num_failovers == self.CHUNKS
            assert remote.num_network_retries == 0
            assert remote.metrics.counter_value(
                "remote_circuit_rejections_total"
            ) == self.CHUNKS
            assert remote.stats()["num_circuit_rejections"] == self.CHUNKS


class TestStatsAndPickle:
    def test_stats_report_fleet_block(self, tiny_network, fleet, sample_hw):
        sharded = _sharded(tiny_network, fleet)
        sharded.evaluate_layers(sample_hw, REQUESTS)
        stats = sharded.stats()
        assert stats["fleet"]["replicas"] == 3
        assert len(stats["fleet"]["shards"]) == 3
        assert any(
            shard["pool"]["num_created"] > 0
            for shard in stats["fleet"]["shards"]
        )
        sharded.close()

    def test_health_probes_every_shard(self, tiny_network, fleet):
        sharded = _sharded(tiny_network, fleet)
        report = sharded.health()
        assert set(report) == {"shard-0", "shard-1", "shard-2"}
        assert all(payload["status"] == "ok" for payload in report.values())
        sharded.close()
