"""Tests for the PPA estimation-service layer (caching, clock, aggregation)."""

import numpy as np
import pytest

from repro.costmodel.engine import DEFAULT_CACHE_CAPACITY, MaestroEngine
from repro.errors import ConfigurationError, EvaluationError
from repro.mapping.gemm_mapping import GemmMapping


@pytest.fixture()
def engine(tiny_network):
    return MaestroEngine(tiny_network)


MAPPING = GemmMapping(8, 16, 8)


class TestEvaluateLayer:
    def test_basic_result(self, engine, sample_hw):
        result = engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert result.feasible
        assert result.latency_s > 0

    def test_unknown_layer_raises(self, engine, sample_hw):
        with pytest.raises(EvaluationError):
            engine.evaluate_layer(sample_hw, MAPPING, "nope")

    def test_cache_hit_on_repeat(self, engine, sample_hw):
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert engine.num_queries == 2
        assert engine.num_cache_hits == 1
        assert engine.cache_hit_rate == 0.5

    def test_clock_charged_per_call_even_cached(self, engine, sample_hw):
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert engine.clock.now_s == pytest.approx(2 * engine.eval_cost_s)

    def test_charge_clock_flag(self, engine, sample_hw):
        engine.charge_clock = False
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert engine.clock.now_s == 0.0
        assert engine.num_queries == 1

    def test_different_hw_not_cached_together(self, engine, sample_hw, edge_space):
        other = edge_space.mutate(sample_hw, seed=0)
        engine.evaluate_layer(sample_hw, MAPPING, "gemm")
        engine.evaluate_layer(other, MAPPING, "gemm")
        assert engine.num_cache_hits == 0


class TestAggregate:
    def _full_mapping(self, engine):
        return {name: GemmMapping(4, 8, 4) for name in engine.layer_shapes}

    def test_network_evaluation(self, engine, sample_hw):
        mappings = self._full_mapping(engine)
        ppa = engine.aggregate(sample_hw, mappings)
        assert ppa.feasible
        assert ppa.latency_s > 0
        assert ppa.area_mm2 > 0
        # the uncached layers were computed and cached, but asked nothing
        assert engine.num_queries == 0
        assert len(engine._cache) == len(mappings)
        assert ppa.layer_results == {
            name: engine.evaluate_layer(sample_hw, mapping, name)
            for name, mapping in mappings.items()
        }
        assert engine.num_cache_hits == len(mappings)

    def test_counts_weight_latency(self, engine, sample_hw):
        mappings = self._full_mapping(engine)
        ppa = engine.aggregate(sample_hw, mappings)
        gemm_result = ppa.layer_results["gemm"]
        # gemm has count=2 so contributes twice
        manual = sum(
            count * ppa.layer_results[name].latency_s
            for name, (_shape, count) in engine.layer_shapes.items()
        )
        assert ppa.latency_s == pytest.approx(manual)
        assert gemm_result.feasible

    def test_aggregate_does_not_charge_clock(self, engine, sample_hw):
        mappings = self._full_mapping(engine)
        engine.evaluate_layers(sample_hw, [(m, name) for name, m in mappings.items()])
        before = engine.clock.now_s
        engine.aggregate(sample_hw, mappings)
        assert engine.clock.now_s == before

    def test_partial_mapping_infeasible(self, engine, sample_hw):
        ppa = engine.aggregate(sample_hw, {"gemm": MAPPING})
        assert not ppa.feasible
        assert np.isinf(ppa.latency_s)


MAPPINGS = [GemmMapping(4, 8, 4, unroll=u) for u in (1, 2, 4, 8)]


class TestCacheBounds:
    def test_default_capacity(self, tiny_network):
        engine = MaestroEngine(tiny_network)
        assert engine.cache_capacity == DEFAULT_CACHE_CAPACITY

    def test_eviction_when_full(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network, cache_capacity=2)
        for mapping in MAPPINGS[:3]:
            engine.evaluate_layer(sample_hw, mapping, "gemm")
        assert len(engine._cache) == 2
        assert engine.num_cache_evictions == 1
        # the oldest entry (MAPPINGS[0]) was evicted: re-query misses
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        assert engine.num_cache_hits == 0
        assert engine.num_cache_evictions == 2

    def test_lru_order_respects_recent_use(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network, cache_capacity=2)
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        engine.evaluate_layer(sample_hw, MAPPINGS[1], "gemm")
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")  # refresh [0]
        engine.evaluate_layer(sample_hw, MAPPINGS[2], "gemm")  # evicts [1]
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        assert engine.num_cache_hits == 2  # the refresh and the last call

    def test_unbounded_cache(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network, cache_capacity=None)
        for mapping in MAPPINGS:
            engine.evaluate_layer(sample_hw, mapping, "gemm")
        assert engine.num_cache_evictions == 0
        assert len(engine._cache) == len(MAPPINGS)

    def test_invalid_capacity(self, tiny_network):
        with pytest.raises(ConfigurationError):
            MaestroEngine(tiny_network, cache_capacity=0)

    def test_stats_surface(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network, cache_capacity=8)
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        stats = engine.stats()
        assert stats["engine"] == "MaestroEngine"
        assert stats["workload"] == tiny_network.name
        assert stats["num_queries"] == 2
        assert stats["num_cache_hits"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["num_cache_evictions"] == 0
        assert stats["cache_size"] == 1
        assert stats["cache_capacity"] == 8

    def test_metrics_counters_track_queries(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        assert engine.metrics.counter_value("engine_queries_total") == 2
        assert engine.metrics.counter_value("engine_cache_hits_total") == 1
        assert engine.metrics.counter_value("engine_cache_misses_total") == 1

    def test_batched_evaluate_layers_matches_singles(self, tiny_network, sample_hw):
        single = MaestroEngine(tiny_network)
        batched = MaestroEngine(tiny_network)
        requests = [(mapping, "gemm") for mapping in MAPPINGS]
        singles = [single.evaluate_layer(sample_hw, m, name) for m, name in requests]
        batch = batched.evaluate_layers(sample_hw, requests)
        assert [r.latency_s for r in batch] == [r.latency_s for r in singles]
        assert batched.num_queries == single.num_queries


class TestHeldInstruments:
    """The engine holds its registry instruments instead of looking them
    up by name per event — without changing what a snapshot lists."""

    def test_an_instrument_appears_with_its_first_event(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network, cache_capacity=1)
        assert engine.metrics.snapshot() == {"counters": {}, "histograms": {}}
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"] == {
            "engine_queries_total": 1.0,
            "engine_batch_queries_total": 1.0,
            "engine_cache_misses_total": 1.0,
        }
        assert sorted(snapshot["histograms"]) == [
            "engine_batch_compute_seconds_per_item",
            "engine_batch_size",
            "engine_compute_seconds",
        ]
        engine.evaluate_layers(sample_hw, [(MAPPINGS[0], "gemm"), (MAPPINGS[1], "gemm")])
        assert engine.metrics.snapshot()["counters"] == {
            "engine_queries_total": 3.0,
            "engine_batch_queries_total": 2.0,
            "engine_cache_misses_total": 2.0,
            "engine_cache_hits_total": 1.0,
            "engine_cache_evictions_total": 1.0,
        }

    def test_swapping_the_registry_rebinds(self, tiny_network, sample_hw):
        from repro.utils.metrics import MetricsRegistry

        engine = MaestroEngine(tiny_network)
        first = engine.metrics
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        engine.metrics = second = MetricsRegistry()
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        assert first.counter_value("engine_queries_total") == 1
        assert second.counter_value("engine_queries_total") == 1
        assert second.counter_value("engine_cache_hits_total") == 1


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
