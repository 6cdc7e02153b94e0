"""Tests for the PPA estimation-service layer: an engine counts and
computes every query; a served replica caches in front of its engine."""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import DEFAULT_CACHE_CAPACITY, PPAServiceServer
from repro.errors import ConfigurationError, EvaluationError, TransportError
from repro.mapping.gemm_mapping import GemmMapping
from tests.costmodel.network_ppa import network_ppa
from tests.costmodel.served import served
from tests.costmodel.transport import FAST, tune


@pytest.fixture()
def engine(tiny_network):
    return MaestroEngine(tiny_network)


MAPPING = GemmMapping(8, 16, 8)


class _FailsOnUnroll8(MaestroEngine):
    """An engine whose kernel fails on ``MAPPINGS[3]``."""

    def _compute_layer(self, hw, mapping, shape):
        if mapping.unroll == 8:
            raise RuntimeError("kernel down")
        return super()._compute_layer(hw, mapping, shape)


class _CountingKernel(MaestroEngine):
    """Counts the scalar kernel calls an engine makes."""

    kernel_calls = 0

    def _compute_layer(self, hw, mapping, shape):
        self.kernel_calls += 1
        return super()._compute_layer(hw, mapping, shape)


class TestEvaluateLayer:
    def test_basic_result(self, engine, sample_hw):
        result = engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert result.feasible
        assert result.latency_s > 0

    def test_unknown_layer_raises(self, engine, sample_hw):
        with pytest.raises(EvaluationError):
            engine.evaluate_layer(sample_hw, MAPPING, "nope")
        assert engine.num_queries == 0

    def test_cache_hit_on_repeat(self, tiny_network, sample_hw):
        """A replica's cache answers a repeat; its engine is not asked."""
        with served(tiny_network) as (server, client):
            client.evaluate_layer(sample_hw, MAPPING, "gemm")
            client.evaluate_layer(sample_hw, MAPPING, "gemm")
            assert server.num_queries == 2
            assert server.num_cache_hits == 1
            assert server.engine_stats()["cache_hit_rate"] == 0.5
            assert server.engine.num_queries == 1

    def test_repeat_is_computed_again(self, tiny_network, sample_hw):
        """An engine keeps no cache: a repeat, in one call or across two,
        is one more kernel call and one more query, with the same bits."""
        counting = _CountingKernel(tiny_network)
        first, again = counting.evaluate_layers(
            sample_hw, [(MAPPING, "gemm"), (MAPPING, "gemm")]
        )
        assert counting.kernel_calls == 2
        assert counting.num_queries == 2
        assert counting.evaluate_layer(sample_hw, MAPPING, "gemm") == first == again
        assert counting.kernel_calls == 3
        assert counting.num_queries == 3
        assert counting.stats()["cache_hit_rate"] == 0.0

    def test_clock_charged_per_call_even_cached(self, engine, sample_hw):
        """A repeat is still a query, which a co-optimizer's clock charges
        ``eval_cost_s`` for, whether a replica's cache answers it or not."""
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert engine.num_queries == 2
        with served(engine.network) as (_server, client):
            client.evaluate_layer(sample_hw, MAPPING, "gemm")
            client.evaluate_layer(sample_hw, MAPPING, "gemm")
            assert client.num_queries == 2

    def test_different_hw_not_cached_together(
        self, tiny_network, sample_hw, edge_space
    ):
        other = edge_space.mutate(sample_hw, seed=0)
        with served(tiny_network) as (server, client):
            client.evaluate_layer(sample_hw, MAPPING, "gemm")
            client.evaluate_layer(other, MAPPING, "gemm")
            assert server.num_cache_hits == 0
            assert server.engine.num_queries == 2


class TestAggregate:
    def _full_mapping(self, engine):
        return {name: GemmMapping(4, 8, 4) for name in engine.layer_shapes}

    def test_network_evaluation(self, engine, sample_hw):
        mappings = self._full_mapping(engine)
        ppa = network_ppa(engine, sample_hw, mappings)
        assert ppa.feasible
        assert ppa.latency_s > 0
        assert ppa.area_mm2 > 0
        assert engine.num_queries == len(mappings)
        assert ppa.layer_results == {
            name: engine.evaluate_layer(sample_hw, mapping, name)
            for name, mapping in mappings.items()
        }

    def test_counts_weight_latency(self, engine, sample_hw):
        mappings = self._full_mapping(engine)
        ppa = network_ppa(engine, sample_hw, mappings)
        gemm_result = ppa.layer_results["gemm"]
        # gemm has count=2 so contributes twice
        manual = sum(
            count * ppa.layer_results[name].latency_s
            for name, (_shape, count) in engine.layer_shapes.items()
        )
        assert ppa.latency_s == pytest.approx(manual)
        assert gemm_result.feasible

    def test_partial_mapping_infeasible(self, engine, sample_hw):
        ppa = network_ppa(engine, sample_hw, {"gemm": MAPPING})
        assert not ppa.feasible
        assert np.isinf(ppa.latency_s)


MAPPINGS = [GemmMapping(4, 8, 4, unroll=u) for u in (1, 2, 4, 8)]


class TestCacheBounds:
    """The replica's LRU, in front of its engine in ``PPAServiceServer``."""

    def test_default_capacity(self, tiny_network):
        with served(tiny_network) as (server, _client):
            assert server.cache_capacity == DEFAULT_CACHE_CAPACITY

    def test_eviction_when_full(self, tiny_network, sample_hw):
        with served(tiny_network, cache_capacity=2) as (server, client):
            for mapping in MAPPINGS[:3]:
                client.evaluate_layer(sample_hw, mapping, "gemm")
            assert len(server._cache) == 2
            assert server.num_cache_evictions == 1
            # the oldest entry (MAPPINGS[0]) was evicted: re-query misses
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            assert server.num_cache_hits == 0
            assert server.num_cache_evictions == 2
            assert server.engine.num_queries == 4

    def test_lru_order_respects_recent_use(self, tiny_network, sample_hw):
        with served(tiny_network, cache_capacity=2) as (server, client):
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            client.evaluate_layer(sample_hw, MAPPINGS[1], "gemm")
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")  # refresh [0]
            client.evaluate_layer(sample_hw, MAPPINGS[2], "gemm")  # evicts [1]
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            assert server.num_cache_hits == 2  # the refresh and the last call

    def test_unbounded_cache(self, tiny_network, sample_hw):
        with served(tiny_network, cache_capacity=None) as (server, client):
            for mapping in MAPPINGS:
                client.evaluate_layer(sample_hw, mapping, "gemm")
            assert server.num_cache_evictions == 0
            assert len(server._cache) == len(MAPPINGS)

    def test_scan_past_the_bound_rehits_nothing(self, tiny_network, sample_hw):
        """The LRU sees a request's items in order, as one-item requests:
        a scan of more keys than it holds evicts each before it is asked
        again, and a repeat inside a request is a hit while it holds."""
        requests = [(mapping, "gemm") for mapping in MAPPINGS[:3]]
        with served(tiny_network, cache_capacity=2) as (server, client):
            first = client.evaluate_layers(sample_hw, requests)
            assert client.evaluate_layers(sample_hw, requests) == first
            assert server.num_cache_hits == 0
            assert server.num_cache_evictions == 4
            assert server.engine.num_queries == 6
            repeats = [requests[2], requests[2], requests[0]]
            assert client.evaluate_layers(sample_hw, repeats) == [first[2]] * 2 + [
                first[0]
            ]
            assert server.num_cache_hits == 2
            assert list(server._cache) == [
                (server.engine.hw_key(sample_hw), "gemm", mapping.key())
                for mapping in (MAPPINGS[2], MAPPINGS[0])
            ]

    def test_a_failed_engine_call_caches_nothing(self, tiny_network, sample_hw,
                                                 monkeypatch):
        tune(monkeypatch, **FAST)
        with served(tiny_network, engine_cls=_FailsOnUnroll8) as (server, client):
            with pytest.raises(TransportError):
                client.evaluate_layers(sample_hw, [(m, "gemm") for m in MAPPINGS])
            assert len(server._cache) == 0
            client.evaluate_layers(sample_hw, [(m, "gemm") for m in MAPPINGS[:3]])
            assert len(server._cache) == 3

    def test_invalid_capacity(self, tiny_network):
        backend = MaestroEngine(tiny_network)
        backend.cache_capacity = 0
        with pytest.raises(ConfigurationError):
            PPAServiceServer(backend)

    def test_stats_surface(self, tiny_network, sample_hw):
        with served(tiny_network, cache_capacity=8) as (server, client):
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            stats = server.engine_stats()
        assert stats["engine"] == "MaestroEngine"
        assert stats["workload"] == tiny_network.name
        assert stats["num_queries"] == 2
        assert stats["num_cache_hits"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["num_cache_evictions"] == 0
        assert stats["cache_size"] == 1
        assert stats["cache_capacity"] == 8
        # the engine behind the cache was asked the miss alone
        assert stats["batch_items"] == 1

    def test_metrics_counters_track_queries(self, tiny_network, sample_hw):
        with served(tiny_network) as (server, client):
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            assert server.metrics.counter_value("engine_queries_total") == 2
            assert server.metrics.counter_value("engine_cache_hits_total") == 1
            assert server.metrics.counter_value("engine_cache_misses_total") == 1

    def test_batched_evaluate_layers_matches_singles(self, tiny_network, sample_hw):
        single = MaestroEngine(tiny_network)
        batched = MaestroEngine(tiny_network)
        requests = [(mapping, "gemm") for mapping in MAPPINGS]
        singles = [single.evaluate_layer(sample_hw, m, name) for m, name in requests]
        batch = batched.evaluate_layers(sample_hw, requests)
        assert [r.latency_s for r in batch] == [r.latency_s for r in singles]
        assert batched.num_queries == single.num_queries


class TestHeldInstruments:
    """The replica holds its registry instruments instead of looking them
    up by name per event — without changing what a snapshot lists."""

    def test_an_instrument_appears_with_its_first_event(self, tiny_network, sample_hw):
        def engine_counters(server):
            return {
                name: value
                for name, value in server.metrics.snapshot()["counters"].items()
                if name.startswith("engine_")
            }

        with served(tiny_network, cache_capacity=1) as (server, client):
            assert server.metrics.snapshot() == {"counters": {}, "histograms": {}}
            client.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
            assert engine_counters(server) == {
                "engine_queries_total": 1.0,
                "engine_cache_misses_total": 1.0,
            }
            assert "engine_compute_seconds" in server.metrics.snapshot()["histograms"]
            client.evaluate_layers(
                sample_hw, [(MAPPINGS[0], "gemm"), (MAPPINGS[1], "gemm")]
            )
            assert engine_counters(server) == {
                "engine_queries_total": 3.0,
                "engine_cache_misses_total": 2.0,
                "engine_cache_hits_total": 1.0,
                "engine_cache_evictions_total": 1.0,
            }

    def test_an_engine_records_no_instrument(self, engine, sample_hw):
        engine.evaluate_layers(sample_hw, [(m, "gemm") for m in MAPPINGS])
        assert engine.metrics.snapshot() == {"counters": {}, "histograms": {}}


def test_hw_key_memo_is_safe_under_concurrent_hardware(tiny_network, edge_space):
    """One engine, a thread per hardware config: every key is its own hw's."""
    import sys
    import threading

    engine = MaestroEngine(tiny_network)
    configs = [edge_space.sample(seed) for seed in range(4)]
    expected = [tuple(sorted(vars(hw).items())) for hw in configs]
    wrong = []

    def worker(hw, want):
        for _ in range(3000):
            if engine.hw_key(hw) != want:
                wrong.append((hw, want))

    threads = [
        threading.Thread(target=worker, args=pair) for pair in zip(configs, expected)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
