"""Tests for the MAESTRO-like analytical model.

These check the *physics* the co-optimizer relies on: monotone effects of
hardware resources, reuse-driven traffic differences between loop orders,
capacity feasibility, and energy/area accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import analyze_gemm, spatial_area_mm2
from repro.hw.spatial import SpatialHWConfig
from repro.hw.technology import DEFAULT_TECHNOLOGY
from repro.mapping.gemm_mapping import GemmMapping
from repro.workloads.layers import Gemm, GemmShape
from repro.workloads.network import Network
from tests.costmodel.network_ppa import network_ppa


def _hw(**overrides) -> SpatialHWConfig:
    base = dict(
        pe_x=8, pe_y=8, l1_bytes=4096, l2_kb=512, noc_bw=64, dataflow="ws"
    )
    base.update(overrides)
    return SpatialHWConfig(**base)


SHAPE = GemmShape(m=64, n=256, k=128)
MAPPING = GemmMapping(tile_m=32, tile_n=32, tile_k=32)


class TestFeasibility:
    def test_feasible_case(self):
        result = analyze_gemm(_hw(), MAPPING, SHAPE)
        assert result.feasible
        assert np.isfinite(result.latency_s)

    def test_l1_overflow(self):
        result = analyze_gemm(_hw(l1_bytes=64), GemmMapping(64, 64, 128), SHAPE)
        assert not result.feasible
        assert "L1" in result.infeasible_reason

    def test_l2_overflow(self):
        result = analyze_gemm(
            _hw(l2_kb=8, l1_bytes=36864), GemmMapping(64, 256, 128), SHAPE
        )
        assert not result.feasible
        assert "L2" in result.infeasible_reason

    def test_minimal_tile_always_feasible(self):
        result = analyze_gemm(_hw(l1_bytes=64, l2_kb=8), GemmMapping(1, 1, 1), SHAPE)
        assert result.feasible


class TestMonotonicity:
    def test_more_pes_not_slower_compute(self):
        small = analyze_gemm(_hw(pe_x=4, pe_y=4), MAPPING, SHAPE)
        large = analyze_gemm(_hw(pe_x=16, pe_y=16), MAPPING, SHAPE)
        assert large.compute_cycles <= small.compute_cycles

    def test_more_noc_bw_not_slower(self):
        slow = analyze_gemm(_hw(noc_bw=64), MAPPING, SHAPE)
        fast = analyze_gemm(_hw(noc_bw=128), MAPPING, SHAPE)
        assert fast.noc_cycles <= slow.noc_cycles

    def test_tile_clipping_to_shape(self):
        oversized = GemmMapping(tile_m=4096, tile_n=4096, tile_k=4096)
        huge_hw = _hw(l1_bytes=10**7, l2_kb=10**6)
        result = analyze_gemm(huge_hw, oversized, SHAPE)
        exact = analyze_gemm(
            huge_hw, GemmMapping(SHAPE.m, SHAPE.n, SHAPE.k), SHAPE
        )
        assert result.latency_s == pytest.approx(exact.latency_s)


class TestReuseAnalysis:
    def test_single_tile_has_minimal_dram_traffic(self):
        """One tile covering the whole GEMM moves each operand once."""
        hw = _hw(l1_bytes=10**7, l2_kb=10**6)
        result = analyze_gemm(hw, GemmMapping(SHAPE.m, SHAPE.n, SHAPE.k), SHAPE)
        minimum = SHAPE.m * SHAPE.k + SHAPE.k * SHAPE.n + SHAPE.m * SHAPE.n
        assert result.dram_bytes == pytest.approx(minimum)

    def test_loop_order_changes_traffic(self):
        tiles = dict(tile_m=16, tile_n=16, tile_k=16)
        orders = {}
        for order in (("m", "n", "k"), ("k", "n", "m"), ("n", "k", "m")):
            result = analyze_gemm(
                _hw(), GemmMapping(loop_order=order, **tiles), SHAPE
            )
            orders[order] = result.dram_bytes
        assert len(set(orders.values())) > 1

    def test_k_innermost_avoids_partial_spills(self):
        """With the reduction innermost, C is written to DRAM exactly once."""
        k_inner = analyze_gemm(
            _hw(), GemmMapping(16, 16, 16, loop_order=("m", "n", "k")), SHAPE
        )
        k_outer = analyze_gemm(
            _hw(), GemmMapping(16, 16, 16, loop_order=("k", "m", "n")), SHAPE
        )
        assert k_inner.dram_bytes < k_outer.dram_bytes

    def test_reuse_penalty_increases_traffic(self):
        dense = analyze_gemm(_hw(), MAPPING, GemmShape(64, 256, 128))
        penalized = analyze_gemm(
            _hw(), MAPPING, GemmShape(64, 256, 128, reuse_penalty=0.35)
        )
        assert penalized.dram_bytes > dense.dram_bytes

    def test_dataflow_changes_noc_traffic(self):
        ws = analyze_gemm(_hw(dataflow="ws"), MAPPING, SHAPE)
        os_ = analyze_gemm(_hw(dataflow="os"), MAPPING, SHAPE)
        assert ws.noc_cycles != os_.noc_cycles


class TestEnergyAndArea:
    def test_energy_positive_and_finite(self):
        result = analyze_gemm(_hw(), MAPPING, SHAPE)
        assert 0 < result.energy_j < 1.0

    def test_energy_at_least_mac_energy(self):
        result = analyze_gemm(_hw(), MAPPING, SHAPE)
        assert result.energy_j >= SHAPE.macs * DEFAULT_TECHNOLOGY.mac_energy_j

    def test_area_grows_with_pes(self):
        assert spatial_area_mm2(_hw(pe_x=16, pe_y=16)) > spatial_area_mm2(
            _hw(pe_x=4, pe_y=4)
        )

    def test_area_grows_with_buffers(self):
        assert spatial_area_mm2(_hw(l2_kb=4096)) > spatial_area_mm2(_hw(l2_kb=64))

    def test_banking_costs_area(self):
        assert spatial_area_mm2(_hw(l2_banks=8)) > spatial_area_mm2(_hw(l2_banks=1))

    def test_realistic_area_range(self):
        """Edge-class configs land in the paper's few-mm^2 regime."""
        area = spatial_area_mm2(_hw())
        assert 0.3 < area < 10.0


def evaluate_network(hw, layers, mappings):
    """A ``MaestroEngine``'s network PPA over ``{name: (shape, count)}``."""
    network = Network(
        "t",
        tuple(
            Gemm(name, count=count, m=shape.m, n=shape.n, k=shape.k)
            for name, (shape, count) in layers.items()
        ),
    )
    return network_ppa(MaestroEngine(network), hw, mappings)


class TestEvaluateNetwork:
    def test_aggregates_counts(self):
        shapes = {"a": (SHAPE, 2), "b": (GemmShape(32, 64, 32), 1)}
        mappings = {"a": MAPPING, "b": GemmMapping(16, 16, 16)}
        network_ppa = evaluate_network(_hw(), shapes, mappings)
        a = analyze_gemm(_hw(), MAPPING, SHAPE)
        assert network_ppa.feasible
        assert network_ppa.latency_s > 2 * a.latency_s  # includes layer b

    def test_missing_mapping_infeasible(self):
        shapes = {"a": (SHAPE, 1)}
        network_ppa = evaluate_network(_hw(), shapes, {})
        assert not network_ppa.feasible
        assert network_ppa.latency_s == float("inf")

    def test_power_includes_leakage(self):
        shapes = {"a": (SHAPE, 1)}
        network_ppa = evaluate_network(_hw(), shapes, {"a": MAPPING})
        leakage = DEFAULT_TECHNOLOGY.leakage_w_per_mm2 * network_ppa.area_mm2
        assert network_ppa.power_w > leakage

    def test_energy_sums_counts(self):
        shapes = {"a": (SHAPE, 3)}
        network_ppa = evaluate_network(_hw(), shapes, {"a": MAPPING})
        a = analyze_gemm(_hw(), MAPPING, SHAPE)
        assert network_ppa.energy_j == pytest.approx(3 * a.energy_j)


@given(
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from([16, 32, 64]),
)
@settings(max_examples=40)
def test_latency_bounded_below_by_ideal(tile_m, tile_n, tile_k):
    """No mapping beats the ideal compute bound MACs / (PEs * freq)."""
    hw = _hw(l1_bytes=10**6, l2_kb=10**5)
    shape = GemmShape(m=64, n=128, k=64)
    mapping = GemmMapping(tile_m, tile_n, tile_k)
    result = analyze_gemm(hw, mapping, shape)
    assert result.feasible
    ideal_s = shape.macs / (hw.num_pes * DEFAULT_TECHNOLOGY.frequency_hz)
    assert result.latency_s >= ideal_s * 0.99
