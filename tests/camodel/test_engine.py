"""Tests for the cycle-accurate engine wrapper (noise, cost, caching)."""

import pytest

from repro.camodel.engine import CAMODEL_EVAL_COST_S, AscendCAEngine
from repro.costmodel.engine import ANALYTICAL_EVAL_COST_S
from repro.hw.ascend import default_ascend_config
from repro.mapping.ascend_mapping import AscendMapping
from repro.workloads.registry import get_network

MAPPING = AscendMapping(tile_m=8, tile_n=64, tile_k=12)


@pytest.fixture(scope="module")
def network():
    return get_network("fsrcnn_120x320")


class TestCost:
    def test_much_more_expensive_than_analytical(self):
        assert CAMODEL_EVAL_COST_S > 5 * ANALYTICAL_EVAL_COST_S

    def test_clock_charged(self, network):
        engine = AscendCAEngine(network)
        engine.evaluate_layer(default_ascend_config(), MAPPING, "shrink")
        assert engine.clock.now_s == pytest.approx(CAMODEL_EVAL_COST_S)


class TestNoise:
    def test_zero_noise_deterministic(self, network):
        engine = AscendCAEngine(network, noise_fraction=0.0)
        r1 = engine.evaluate_layer(default_ascend_config(), MAPPING, "shrink")
        assert engine._noise_factor(default_ascend_config(), MAPPING, None) == 1.0
        assert r1.feasible

    def test_noise_repeatable_per_query(self, network):
        """A simulator is deterministic: same query -> same (noisy) answer."""
        e1 = AscendCAEngine(network, noise_fraction=0.08)
        e2 = AscendCAEngine(network, noise_fraction=0.08)
        r1 = e1.evaluate_layer(default_ascend_config(), MAPPING, "shrink")
        r2 = e2.evaluate_layer(default_ascend_config(), MAPPING, "shrink")
        assert r1.latency_s == r2.latency_s

    def test_noise_bounded(self, network):
        clean_engine = AscendCAEngine(network, noise_fraction=0.0)
        noisy_engine = AscendCAEngine(network, noise_fraction=0.08)
        hw = default_ascend_config()
        clean = clean_engine.evaluate_layer(hw, MAPPING, "shrink")
        noisy = noisy_engine.evaluate_layer(hw, MAPPING, "shrink")
        ratio = noisy.latency_s / clean.latency_s
        assert 0.92 <= ratio <= 1.08

    def test_noise_differs_across_designs(self, network):
        engine = AscendCAEngine(network, noise_fraction=0.08)
        hw1 = default_ascend_config()
        hw2 = hw1.with_updates(l0a_kb=128)
        shape = network.layers[0].to_gemm()
        f1 = engine._noise_factor(hw1, MAPPING, shape)
        f2 = engine._noise_factor(hw2, MAPPING, shape)
        assert f1 != f2

    def test_negative_noise_rejected(self, network):
        with pytest.raises(ValueError):
            AscendCAEngine(network, noise_fraction=-0.1)


class TestNetworkEvaluation:
    def test_full_network(self, network):
        engine = AscendCAEngine(network)
        hw = default_ascend_config()
        mappings = {}
        for layer in network.layers:
            shape = layer.to_gemm()
            mappings[layer.name] = AscendMapping(
                tile_m=min(8, shape.m), tile_n=min(64, shape.n), tile_k=min(8, shape.k)
            )
        ppa = engine.aggregate(hw, mappings)
        assert ppa.feasible
        assert ppa.latency_s > 0
        assert ppa.area_mm2 == engine.area_mm2(hw)
