"""Tests for the CA-model pipeline trace / bottleneck analysis."""

import pytest

from repro.camodel.ascend_sim import simulate_layer
from repro.camodel.trace import PipelineTrace, explain_layer, trace_layer
from repro.errors import EvaluationError
from repro.hw.ascend import default_ascend_config
from repro.mapping.ascend_mapping import AscendMapping
from repro.workloads.layers import GemmShape

SHAPE = GemmShape(m=64, n=1024, k=128)
MAPPING = AscendMapping(tile_m=32, tile_n=128, tile_k=64)


class TestTraceLayer:
    def test_trace_matches_simulator_latency(self):
        hw = default_ascend_config()
        trace = trace_layer(hw, MAPPING, SHAPE)
        sim = simulate_layer(hw, MAPPING, SHAPE)
        if trace.n_tiles <= trace.simulated_tiles:
            assert trace.total_cycles == pytest.approx(
                sim.latency_s * 1e9, rel=1e-9
            )

    def test_stage_names(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        names = [stage.name for stage in trace.stages]
        assert names == ["scalar", "dma_in", "mte", "cube", "vector", "dma_out"]

    def test_utilizations_bounded(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        for stage in trace.stages:
            assert 0.0 <= stage.utilization <= 1.0 + 1e-9
            assert stage.stall_cycles >= 0.0

    def test_bottleneck_is_max_utilization(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        assert trace.bottleneck.utilization == max(
            stage.utilization for stage in trace.stages
        )

    def test_compute_bound_case_has_cube_bottleneck(self):
        """A tall fused tile amortizes operand loads: cube-bound.

        Per tile, cube cycles / DMA cycles ~ tile_m / 128 for the default
        16^3 cube at 32 B/cy DDR, so tile_m = 256 is compute-bound.
        """
        hw = default_ascend_config()
        mapping = AscendMapping(
            tile_m=256, tile_n=128, tile_k=128, fuse_input=True, fuse_output=True
        )
        trace = trace_layer(hw, mapping, GemmShape(m=256, n=1024, k=2048))
        assert trace.bottleneck.name == "cube"

    def test_bandwidth_bound_case_has_dma_bottleneck(self):
        """A tiny cube makes compute cheap; skinny operands load-bound."""
        hw = default_ascend_config().with_updates(cube_m=32, cube_k=32, cube_n=32)
        mapping = AscendMapping(tile_m=32, tile_n=32, tile_k=32)
        trace = trace_layer(hw, mapping, GemmShape(m=32, n=8192, k=32))
        assert trace.bottleneck.name in ("dma_in", "dma_out", "scalar")

    def test_infeasible_raises(self):
        hw = default_ascend_config().with_updates(l0a_kb=1)
        with pytest.raises(EvaluationError):
            trace_layer(hw, MAPPING, SHAPE)

    def test_stage_lookup(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        assert trace.stage("cube").name == "cube"
        with pytest.raises(EvaluationError):
            trace.stage("tensor-core")


class TestExplainLayer:
    def test_report_mentions_bottleneck(self):
        report = explain_layer(default_ascend_config(), MAPPING, SHAPE)
        assert "bottleneck:" in report
        assert "util" in report
        assert "tiles:" in report
