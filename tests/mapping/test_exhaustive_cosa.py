"""Regret tests: heuristic tools vs the exhaustive optimum, and the
CoSA-like constructed mapping's quality."""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.errors import MappingError
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.cosa import CosaMapper, construct_mapping
from tests.mapping.exhaustive import enumerate_layer, optimal_network_mapping
from repro.workloads.layers import Gemm
from repro.workloads.network import Network


@pytest.fixture(scope="module")
def micro_network():
    """A single small GEMM whose mapping space is fully enumerable."""
    return Network(
        name="micronet",
        layers=(Gemm(name="g", m=16, n=24, k=12),),
        family="test",
    )


@pytest.fixture(scope="module")
def micro_optimum(micro_network):
    from repro.hw.spatial import edge_design_space

    hw = edge_design_space().to_config(
        {
            "pe_x": 4,
            "pe_y": 4,
            "l1_bytes": 1024,
            "l2_kb": 64,
            "noc_bw": 64,
            "dataflow": "ws",
        }
    )
    engine = MaestroEngine(micro_network)
    outcome = enumerate_layer(engine, hw, "g")
    return hw, outcome


class TestExhaustive:
    def test_optimum_is_feasible(self, micro_optimum):
        _hw, outcome = micro_optimum
        assert outcome.result.feasible
        assert outcome.feasible_count > 0
        assert outcome.evaluated >= outcome.feasible_count

    def test_nothing_beats_the_optimum(self, micro_network, micro_optimum):
        hw, outcome = micro_optimum
        engine = MaestroEngine(micro_network)
        rng = np.random.default_rng(0)
        from repro.mapping.gemm_mapping import GemmMappingSpace

        space = GemmMappingSpace(micro_network.layers[0].to_gemm())
        for _ in range(200):
            result = engine.evaluate_layer(hw, space.sample(rng), "g")
            if result.feasible:
                assert result.latency_s >= outcome.result.latency_s - 1e-15

    def test_oversized_space_refused(self):
        big = Network(
            name="bignet", layers=(Gemm(name="g", m=720, n=720, k=720),)
        )
        engine = MaestroEngine(big)
        from repro.hw.spatial import edge_design_space

        hw = edge_design_space().sample(seed=0)
        with pytest.raises(MappingError):
            enumerate_layer(engine, hw, "g", max_points=1000)

    def test_network_level_optimum(self, micro_network, micro_optimum):
        hw, outcome = micro_optimum
        engine = MaestroEngine(micro_network)
        mappings, details = optimal_network_mapping(engine, hw)
        assert mappings["g"] == outcome.mapping
        assert details["g"].result.latency_s == outcome.result.latency_s


class TestHeuristicRegret:
    @pytest.mark.parametrize("tool_cls", [FlexTensorSearch, GammaSearch])
    def test_regret_bounded(self, tool_cls, micro_network, micro_optimum):
        """With a moderate budget the tools land within 1.5x of optimal
        (averaged over seeds)."""
        hw, outcome = micro_optimum
        ratios = []
        for seed in (0, 1, 2):
            engine = MaestroEngine(micro_network)
            search = tool_cls(micro_network, hw, engine, seed=seed)
            search.run(200)
            ratios.append(search.best_objective / outcome.result.latency_s)
        assert np.mean(ratios) < 1.5

    def test_more_budget_shrinks_regret(self, micro_network, micro_optimum):
        hw, outcome = micro_optimum

        def regret(budget, seed=4):
            engine = MaestroEngine(micro_network)
            search = FlexTensorSearch(micro_network, hw, engine, seed=seed)
            search.run(budget)
            return search.best_objective / outcome.result.latency_s

        assert regret(300) <= regret(20) + 1e-12


class TestCosaMapper:
    def test_constructed_mapping_feasible(self, micro_network, micro_optimum):
        hw, _outcome = micro_optimum
        engine = MaestroEngine(micro_network)
        mapper = CosaMapper(micro_network, hw, engine, seed=0)
        mapper.run(len(micro_network.layers))
        assert np.isfinite(mapper.best_objective)

    def test_construction_quality(self, micro_network, micro_optimum):
        """The one-shot construction lands within 3x of the true optimum."""
        hw, outcome = micro_optimum
        engine = MaestroEngine(micro_network)
        mapper = CosaMapper(micro_network, hw, engine, seed=0)
        mapper.run(1)
        assert mapper.best_objective <= 3.0 * outcome.result.latency_s

    def test_beats_single_random_sample_on_average(self, tiny_network, sample_hw):
        from repro.mapping.random_search import RandomMappingSearch

        engine_a = MaestroEngine(tiny_network)
        cosa = CosaMapper(tiny_network, sample_hw, engine_a, seed=0)
        cosa.run(len(tiny_network.layers))
        objectives = []
        for seed in range(5):
            engine_b = MaestroEngine(tiny_network)
            rand = RandomMappingSearch(tiny_network, sample_hw, engine_b, seed=seed)
            rand.run(len(tiny_network.layers))
            objectives.append(rand.best_objective)
        assert cosa.best_objective <= np.mean(objectives)

    def test_idle_after_construction(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        mapper = CosaMapper(tiny_network, sample_hw, engine, seed=0)
        mapper.run(len(tiny_network.layers))
        converged = mapper.best_objective
        mapper.run(20)
        assert mapper.best_objective == converged

    def test_construct_mapping_respects_l1(self, sample_hw):
        from repro.costmodel.maestro import analyze_gemm
        from repro.workloads.layers import GemmShape

        for dims in ((64, 4096, 512), (8, 8, 8), (256, 49, 1152)):
            shape = GemmShape(*dims)
            mapping = construct_mapping(shape, sample_hw)
            result = analyze_gemm(sample_hw, mapping, shape)
            assert result.feasible, (dims, mapping)
