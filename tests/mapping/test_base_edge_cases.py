"""Edge cases of the anytime-search base machinery."""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.mapping import flextensor
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.workloads.layers import Gemm
from repro.workloads.network import Network


@pytest.fixture()
def single_layer_network():
    return Network(
        name="single",
        layers=(Gemm(name="only", m=16, n=24, k=12),),
        family="test",
    )


class TestSingleLayer:
    def test_search_on_single_layer(self, single_layer_network, sample_hw):
        engine = MaestroEngine(single_layer_network)
        search = FlexTensorSearch(single_layer_network, sample_hw, engine, seed=0)
        search.run(30)
        assert np.isfinite(search.best_objective)
        assert set(search.best_mapping) == {"only"}


class TestTrialTotalsConsistency:
    def test_network_objective_matches_layer_sum(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        search = RandomMappingSearch(tiny_network, sample_hw, engine, seed=0)
        search.run(40)
        manual = sum(
            search.layer_counts[name] * search.best_layer_result[name].latency_s
            for name in search.layer_names
        )
        assert search.best_objective == pytest.approx(manual)

    def test_power_includes_leakage(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        search = RandomMappingSearch(tiny_network, sample_hw, engine, seed=0)
        search.run(20)
        point = search.history[-1]
        leakage = DEFAULT_TECHNOLOGY.leakage_w_per_mm2 * engine.area_mm2(sample_hw)
        assert point.best_power_w > leakage

    def test_history_power_matches_aggregate(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        search = RandomMappingSearch(tiny_network, sample_hw, engine, seed=1)
        search.run(30)
        point = search.history[-1]
        ppa = search.best_ppa
        assert point.best_power_w == pytest.approx(ppa.power_w)
        assert point.best_latency_s == pytest.approx(ppa.latency_s)


class TestInfeasibleIncumbentRecovery:
    def test_network_objective_becomes_finite_once_all_layers_feasible(
        self, tiny_network, edge_space
    ):
        """On hardware where the seed must shrink to (1,1,1), the first
        history entries are already finite (init guarantees feasibility)."""
        hw = edge_space.to_config(
            {
                "pe_x": 1,
                "pe_y": 1,
                "l1_bytes": 64,
                "l2_kb": 8,
                "noc_bw": 64,
                "dataflow": "os",
            }
        )
        engine = MaestroEngine(tiny_network)
        search = RandomMappingSearch(tiny_network, hw, engine, seed=2)
        search.run(5)
        assert np.isfinite(search.history[0].best_objective)


class TestLayerWeighting:
    def test_flextensor_prefers_dominant_layer(self, sample_hw, monkeypatch):
        """The layer holding most of the latency receives most proposals."""
        lopsided = Network(
            name="lopsided",
            layers=(
                Gemm(name="huge", m=256, n=512, k=256),
                Gemm(name="tiny", m=4, n=4, k=4),
            ),
            family="test",
        )
        engine = MaestroEngine(lopsided)
        monkeypatch.setattr(flextensor, "EPSILON", 0.0)
        search = FlexTensorSearch(lopsided, sample_hw, engine, seed=0)
        counts = {"huge": 0, "tiny": 0}
        for _ in range(60):
            layer_name, candidate = search._propose()
            counts[layer_name] += 1
            result = engine.evaluate_layer(sample_hw, candidate, layer_name)
            search._on_result(layer_name, candidate, result, False)
        assert counts["huge"] > counts["tiny"]
