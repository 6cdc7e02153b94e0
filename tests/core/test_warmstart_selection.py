"""Tests for warm-start seeding and the experiment selection rules."""

import numpy as np
import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.core.base import CoSearchResult, HWDesign
from repro.core.robustness import RobustnessResult
from repro.costmodel.engine import MaestroEngine
from repro.experiments.fig9 import ppa_distance, shared_scale_best
from repro.experiments.fig11 import select_deployment_design
from repro.optim.pareto import ParetoFront
from repro.ppa import NetworkPPA


class TestInitialConfigs:
    def test_warm_start_config_is_evaluated(self, tiny_network, edge_space):
        seed_hw = edge_space.to_config(
            {
                "pe_x": 8,
                "pe_y": 8,
                "l1_bytes": 4096,
                "l2_kb": 256,
                "noc_bw": 128,
                "dataflow": "ws",
            }
        )
        engine = MaestroEngine(tiny_network)
        unico = Unico(
            edge_space,
            tiny_network,
            engine,
            UnicoConfig(
                batch_size=4,
                max_iterations=1,
                max_budget=12,
                initial_configs=(seed_hw,),
            ),
            power_cap_w=100.0,
            seed=0,
        )
        unico.optimize()
        evaluated = {edge_space.config_key(e.hw) for e in unico.evaluations}
        assert edge_space.config_key(seed_hw) in evaluated

    def test_without_warm_start_config_usually_absent(self, tiny_network, edge_space):
        seed_hw = edge_space.to_config(
            {
                "pe_x": 8,
                "pe_y": 8,
                "l1_bytes": 4096,
                "l2_kb": 256,
                "noc_bw": 128,
                "dataflow": "ws",
            }
        )
        engine = MaestroEngine(tiny_network)
        unico = Unico(
            edge_space,
            tiny_network,
            engine,
            UnicoConfig(batch_size=4, max_iterations=1, max_budget=12),
            power_cap_w=100.0,
            seed=0,
        )
        unico.optimize()
        evaluated = {edge_space.config_key(e.hw) for e in unico.evaluations}
        assert edge_space.config_key(seed_hw) not in evaluated


def _design(latency, power, area, r=0.0):
    ppa = NetworkPPA(
        latency_s=latency, energy_j=latency * power, power_w=power,
        area_mm2=area, feasible=True,
    )
    robustness = RobustnessResult(
        r_value=r, delta=r, theta=np.pi / 2,
        optimal_latency_s=latency, optimal_power_w=power,
        suboptimal_latency_s=latency, suboptimal_power_w=power,
    )
    return HWDesign(hw=f"hw-{latency}-{power}", mapping={}, ppa=ppa, robustness=robustness)


def _result(designs):
    front = ParetoFront(num_objectives=3)
    for design in designs:
        front.add(design, design.ppa_vector)
    return CoSearchResult(method="m", network="n", pareto=front)


class TestSharedScaleBest:
    def test_shared_scale_picks_comparable_knees(self):
        result_a = _result([_design(1.0, 10.0, 1.0), _design(10.0, 1.0, 1.0)])
        result_b = _result([_design(2.0, 2.0, 1.0)])
        best_a, best_b = shared_scale_best(result_a, result_b)
        assert best_b.ppa.latency_s == 2.0
        # a's knee under the shared scale is one of its two extremes
        assert best_a.ppa.latency_s in (1.0, 10.0)

    def test_wider_front_not_penalized(self):
        """The method with a strictly better extra point should win it."""
        good = _design(0.5, 1.5, 1.0)
        result_a = _result([good, _design(50.0, 0.1, 1.0)])
        result_b = _result([_design(2.0, 2.0, 1.0)])
        best_a, _best_b = shared_scale_best(result_a, result_b)
        assert best_a.ppa.latency_s == pytest.approx(0.5)

    def test_empty_front_fallback(self):
        result_a = _result([])
        result_b = _result([_design(1.0, 1.0, 1.0)])
        best_a, best_b = shared_scale_best(result_a, result_b)
        assert best_a is None
        assert best_b is not None


class TestPpaDistance:
    def test_symmetric(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 1.0, 3.0])
        d = ppa_distance(a, b)
        d_swapped = ppa_distance(b, a)
        assert d["a"] == pytest.approx(d_swapped["b"])

    def test_bounded_ratio_when_nearly_equal(self):
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([1.0 + 1e-12, 1.0, 1.0])
        d = ppa_distance(a, b)
        assert 0.5 < d["a"] / d["b"] < 2.0

    def test_dominating_vector_has_smaller_distance(self):
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([2.0, 2.0, 2.0])
        d = ppa_distance(a, b)
        assert d["a"] < d["b"]


class TestDeploymentSelection:
    def test_minimizes_worst_ratio(self):
        default = _design(10.0, 10.0, 1.0).ppa
        balanced = _design(9.0, 9.0, 1.0)  # worst ratio 0.9
        lopsided = _design(2.0, 12.0, 1.0)  # worst ratio 1.2
        result = _result([balanced, lopsided])
        chosen = select_deployment_design(result, default)
        assert chosen is balanced

    def test_empty_front_returns_none(self):
        default = _design(1.0, 1.0, 1.0).ppa
        assert select_deployment_design(_result([]), default) is None


class TestCapacityAwareSeed:
    def test_seed_fits_l1(self, sample_hw):
        from repro.costmodel.maestro import analyze_gemm
        from repro.mapping.gemm_mapping import GemmMappingSpace
        from repro.workloads.layers import GemmShape

        shape = GemmShape(m=256, n=4096, k=512)
        space = GemmMappingSpace(shape)
        seed = space.seeded_mapping_for(sample_hw)
        result = analyze_gemm(sample_hw, seed, shape)
        assert result.feasible

    def test_seed_uses_pe_array(self, sample_hw):
        from repro.mapping.gemm_mapping import GemmMappingSpace
        from repro.workloads.layers import GemmShape

        space = GemmMappingSpace(GemmShape(m=256, n=4096, k=512))
        seed = space.seeded_mapping_for(sample_hw)
        # tiles at least cover the PE array (no immediate under-utilization)
        assert seed.tile_m >= sample_hw.pe_x
        assert seed.tile_n >= sample_hw.pe_y

    def test_fallback_without_capacity_attrs(self):
        from repro.mapping.gemm_mapping import GemmMappingSpace
        from repro.workloads.layers import GemmShape

        class BarePE:
            pe_x, pe_y = 4, 4

        space = GemmMappingSpace(GemmShape(m=64, n=64, k=64))
        seed = space.seeded_mapping_for(BarePE())
        assert seed.tile_m >= 1
