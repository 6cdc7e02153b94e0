"""Tests for the Ascend-like cycle-level simulator."""

import numpy as np
import pytest

from repro.camodel.ascend_sim import _TileCosts, _pipeline_cycles, ascend_area_mm2, simulate_layer
from repro.hw.ascend import default_ascend_config
from repro.mapping.ascend_mapping import AscendMapping
from repro.workloads.layers import GemmShape

SHAPE = GemmShape(m=64, n=1024, k=128)


def _mapping(**overrides) -> AscendMapping:
    base = dict(tile_m=32, tile_n=128, tile_k=64)
    base.update(overrides)
    return AscendMapping(**base)


class TestCapacity:
    def test_default_config_feasible(self):
        result = simulate_layer(default_ascend_config(), _mapping(), SHAPE)
        assert result.feasible

    def test_l0a_overflow(self):
        hw = default_ascend_config().with_updates(l0a_kb=1)
        result = simulate_layer(hw, _mapping(), SHAPE)
        assert not result.feasible
        assert "L0A" in result.infeasible_reason

    def test_l0b_overflow(self):
        hw = default_ascend_config().with_updates(l0b_kb=1)
        result = simulate_layer(hw, _mapping(), SHAPE)
        assert not result.feasible
        assert "L0B" in result.infeasible_reason

    def test_l0c_overflow(self):
        hw = default_ascend_config().with_updates(l0c_kb=1)
        result = simulate_layer(hw, _mapping(), SHAPE)
        assert not result.feasible
        assert "L0C" in result.infeasible_reason

    def test_fusion_needs_more_l1(self):
        hw = default_ascend_config().with_updates(l1_kb=256)
        big = _mapping(tile_m=64, tile_n=1024, tile_k=128, fuse_output=True)
        fused = simulate_layer(hw, big, SHAPE)
        unfused = simulate_layer(
            hw, _mapping(tile_m=64, tile_n=1024, tile_k=128), SHAPE
        )
        # the fused variant is the one that can overflow L1
        assert unfused.feasible or not fused.feasible


class TestPipeline:
    def test_more_banks_not_slower(self):
        hw1 = default_ascend_config().with_updates(
            l0a_banks=1, l0b_banks=1, l0c_banks=1
        )
        hw2 = default_ascend_config().with_updates(
            l0a_banks=2, l0b_banks=2, l0c_banks=2
        )
        r1 = simulate_layer(hw1, _mapping(), SHAPE)
        r2 = simulate_layer(hw2, _mapping(), SHAPE)
        assert r2.latency_s <= r1.latency_s

    def test_bigger_cube_not_slower(self):
        small = default_ascend_config().with_updates(cube_m=8, cube_k=8, cube_n=8)
        large = default_ascend_config().with_updates(cube_m=32, cube_k=32, cube_n=32)
        r_small = simulate_layer(small, _mapping(), SHAPE)
        r_large = simulate_layer(large, _mapping(), SHAPE)
        assert r_large.latency_s <= r_small.latency_s

    def test_fusion_reduces_latency_when_ddr_bound(self):
        hw = default_ascend_config()
        # a skinny GEMM is DMA-bound: fusing away DDR traffic must help
        skinny = GemmShape(m=8, n=4096, k=16)
        mapping = AscendMapping(tile_m=8, tile_n=512, tile_k=16)
        fused = AscendMapping(
            tile_m=8, tile_n=512, tile_k=16, fuse_input=True, fuse_output=True
        )
        assert (
            simulate_layer(hw, fused, skinny).latency_s
            <= simulate_layer(hw, mapping, skinny).latency_s
        )

    def test_small_icache_slower(self):
        """ICache pressure surfaces as scalar-issue overhead."""
        big = default_ascend_config().with_updates(icache_kb=64)
        tiny = default_ascend_config().with_updates(icache_kb=8)
        # many small tiles make the scalar stage matter
        mapping = AscendMapping(tile_m=16, tile_n=16, tile_k=16)
        r_big = simulate_layer(big, mapping, SHAPE)
        r_tiny = simulate_layer(tiny, mapping, SHAPE)
        assert r_tiny.latency_s >= r_big.latency_s

    def test_extrapolation_consistent(self):
        """Latency grows ~linearly in tile count past the simulated window."""
        hw = default_ascend_config()
        mapping = AscendMapping(tile_m=8, tile_n=8, tile_k=8)
        small = simulate_layer(hw, mapping, GemmShape(64, 512, 64))
        large = simulate_layer(hw, mapping, GemmShape(64, 2048, 64))
        ratio = large.latency_s / small.latency_s
        assert 3.0 < ratio < 5.5  # ~4x the tiles


class TestPipelineRecurrence:
    def test_single_tile_is_sum_of_stages(self):
        costs = _TileCosts(1, 2, 3, 4, 5, 6)
        total = _pipeline_cycles(costs, 1, 1, (2, 2, 2, 2, 2))
        assert total == pytest.approx(21.0)

    def test_double_buffering_approaches_bottleneck(self):
        costs = _TileCosts(1, 1, 1, 10, 1, 1)
        n = 200
        total = _pipeline_cycles(costs, n, 1, (2, 2, 2, 2, 2))
        assert total == pytest.approx(10 * n, rel=0.1)

    def test_single_bank_serializes(self):
        costs = _TileCosts(1, 1, 1, 10, 1, 1)
        overlapped = _pipeline_cycles(costs, 50, 1, (2, 2, 2, 2, 2))
        serialized = _pipeline_cycles(costs, 50, 1, (1, 1, 1, 1, 1))
        assert serialized > overlapped

    def test_k_completion_gates_writeback(self):
        costs = _TileCosts(0, 0, 0, 10, 100, 100)
        every_tile = _pipeline_cycles(costs, 16, 1, (2, 2, 2, 2, 2))
        on_completion = _pipeline_cycles(costs, 16, 4, (2, 2, 2, 2, 2))
        assert on_completion < every_tile


class TestAreaEnergy:
    def test_default_area_reasonable(self):
        area = ascend_area_mm2(default_ascend_config())
        assert 5.0 < area < 50.0

    def test_area_under_fig11_cap(self):
        assert ascend_area_mm2(default_ascend_config()) < 200.0

    def test_cube_dominates_area_growth(self):
        small = default_ascend_config().with_updates(cube_m=8, cube_k=8, cube_n=8)
        large = default_ascend_config().with_updates(cube_m=32, cube_k=32, cube_n=32)
        assert ascend_area_mm2(large) > 4 * ascend_area_mm2(small)

    def test_energy_finite_positive(self):
        result = simulate_layer(default_ascend_config(), _mapping(), SHAPE)
        assert np.isfinite(result.energy_j)
        assert result.energy_j > 0
