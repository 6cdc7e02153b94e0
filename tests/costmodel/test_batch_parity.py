"""Batch-vs-scalar parity of the vectorized analytical kernels.

The acceptance bar of the batched evaluation path is *exact* agreement
with the scalar kernels: zero tolerance on feasibility (including the
infeasibility reason strings) and bit-level equality on latency/energy —
the vectorized code replicates the scalar expression evaluation order, so
nothing weaker is needed.  The sweep covers both dataflows, both spatial
orientations, feasible and infeasible candidates, divisor-aligned and
arbitrary clipped tiles, and unit and non-unit reuse penalties.
"""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.timeloop import TimeloopEngine, analyze_gemm_loopnest
from repro.costmodel.maestro import analyze_gemm
from repro.costmodel.maestro_batch import analyze_gemm_batch
from repro.costmodel.timeloop_batch import analyze_gemm_loopnest_batch
from repro.hw.spatial import SpatialHWConfig
from repro.mapping.gemm_mapping import (
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
    GemmMapping,
    GemmMappingSpace,
)
from repro.workloads.layers import GemmShape


def _random_hw(rng) -> SpatialHWConfig:
    return SpatialHWConfig(
        pe_x=int(rng.choice([2, 4, 8, 12, 16])),
        pe_y=int(rng.choice([2, 4, 8, 12, 16])),
        l1_bytes=int(rng.choice([512, 2048, 6144, 16384])),
        l2_kb=int(rng.choice([32, 128, 512, 1024])),
        noc_bw=int(rng.choice([32, 64, 128, 256])),
        dataflow=str(rng.choice(["ws", "os"])),
        l1_banks=int(rng.choice([1, 2, 4])),
    )


def _random_shape(rng) -> GemmShape:
    return GemmShape(
        m=int(rng.integers(1, 512)),
        n=int(rng.integers(1, 512)),
        k=int(rng.integers(1, 512)),
        reuse_penalty=float(rng.choice([1.0, 0.6])),
    )


def _random_mappings(rng, shape, count):
    """Half space-sampled (divisor-aligned), half arbitrary tiles."""
    space = GemmMappingSpace(shape)
    mappings = [space.sample(rng) for _ in range(count // 2)]
    for _ in range(count - len(mappings)):
        mappings.append(
            GemmMapping(
                tile_m=int(rng.integers(1, 2 * shape.m + 1)),
                tile_n=int(rng.integers(1, 2 * shape.n + 1)),
                tile_k=int(rng.integers(1, 2 * shape.k + 1)),
                loop_order=LOOP_ORDERS[int(rng.integers(0, len(LOOP_ORDERS)))],
                spatial=SPATIAL_CHOICES[int(rng.integers(0, len(SPATIAL_CHOICES)))],
                unroll=int(rng.choice(UNROLL_CHOICES)),
            )
        )
    return mappings


@pytest.mark.parametrize(
    "scalar_fn, batch_fn",
    [
        (analyze_gemm, analyze_gemm_batch),
        (analyze_gemm_loopnest, analyze_gemm_loopnest_batch),
    ],
    ids=["maestro", "timeloop"],
)
def test_batch_matches_scalar_exactly(scalar_fn, batch_fn):
    rng = np.random.default_rng(20260805)
    feasible_seen = infeasible_seen = 0
    for _case in range(40):
        hw = _random_hw(rng)
        shape = _random_shape(rng)
        mappings = _random_mappings(rng, shape, 24)
        batched = batch_fn(hw, mappings, shape)
        assert len(batched) == len(mappings)
        for mapping, got in zip(mappings, batched):
            expected = scalar_fn(hw, mapping, shape)
            # dataclass equality covers every field bit-for-bit, including
            # inf markers and the exact infeasibility reason string
            assert got == expected, (hw, shape, mapping)
            if expected.feasible:
                feasible_seen += 1
            else:
                infeasible_seen += 1
    # the sweep must genuinely exercise both outcomes
    assert feasible_seen > 100
    assert infeasible_seen > 100


def test_batch_reason_strings_cover_both_levels():
    """L1-before-L2 reason precedence matches the scalar early returns."""
    hw = SpatialHWConfig(
        pe_x=16, pe_y=16, l1_bytes=512, l2_kb=32, noc_bw=64, dataflow="ws"
    )
    shape = GemmShape(m=256, n=256, k=256)
    l1_blown = GemmMapping(64, 64, 64)  # per-PE slice alone overflows L1
    l2_blown = GemmMapping(128, 128, 1)  # fits L1 per-PE, overflows L2
    for batch_fn, scalar_fn in (
        (analyze_gemm_batch, analyze_gemm),
        (analyze_gemm_loopnest_batch, analyze_gemm_loopnest),
    ):
        got = batch_fn(hw, [l1_blown, l2_blown], shape)
        assert got[0].infeasible_reason.startswith("L1 overflow")
        assert got[1].infeasible_reason.startswith("L2 overflow")
        for mapping, result in zip([l1_blown, l2_blown], got):
            assert result == scalar_fn(hw, mapping, shape)


def test_empty_batch():
    hw = SpatialHWConfig(
        pe_x=4, pe_y=4, l1_bytes=4096, l2_kb=256, noc_bw=64, dataflow="ws"
    )
    shape = GemmShape(m=8, n=8, k=8)
    assert analyze_gemm_batch(hw, [], shape) == []
    assert analyze_gemm_loopnest_batch(hw, [], shape) == []


# --------------------------------------------------------------------------
# single-layer evaluate_layers: results and accounting vs the sequential path
# --------------------------------------------------------------------------
class TestEvaluateCandidates:
    @pytest.mark.parametrize("engine_cls", [MaestroEngine, TimeloopEngine])
    def test_results_match_sequential(self, engine_cls, tiny_network, sample_hw, rng):
        batch_engine = engine_cls(tiny_network)
        scalar_engine = engine_cls(tiny_network)
        space = GemmMappingSpace(tiny_network.layers[1].to_gemm())
        mappings = [space.sample(rng) for _ in range(12)]
        batched = batch_engine.evaluate_layers(sample_hw, [(m, "gemm") for m in mappings])
        sequential = [
            scalar_engine.evaluate_layer(sample_hw, m, "gemm") for m in mappings
        ]
        assert batched == sequential
        assert batch_engine.num_queries == scalar_engine.num_queries
        assert batch_engine.num_cache_hits == scalar_engine.num_cache_hits
        assert batch_engine.clock.now_s == scalar_engine.clock.now_s

    def test_within_batch_duplicate_counts_as_hit(self, tiny_engine, sample_hw):
        mapping = GemmMapping(4, 8, 4)
        results = tiny_engine.evaluate_layers(
            sample_hw, [(mapping, "gemm"), (mapping, "gemm")]
        )
        assert results[0] == results[1]
        assert tiny_engine.num_cache_hits == 1
        assert (
            tiny_engine.metrics.counter_value("engine_cache_misses_total") == 1.0
        )

    def test_all_hit_batch_skips_compute(self, tiny_engine, sample_hw, rng):
        space = GemmMappingSpace(tiny_engine.layer_shapes["gemm"][0])
        mappings = [space.sample(rng) for _ in range(6)]
        tiny_engine.evaluate_layers(sample_hw, [(m, "gemm") for m in mappings])
        computes = tiny_engine.metrics.snapshot()["histograms"][
            "engine_compute_seconds"
        ]["count"]
        tiny_engine.evaluate_layers(sample_hw, [(m, "gemm") for m in mappings])
        after = tiny_engine.metrics.snapshot()["histograms"][
            "engine_compute_seconds"
        ]["count"]
        assert after == computes  # all-hit batch observes no compute latency
        assert tiny_engine.num_cache_hits >= len(mappings)

    def test_batch_stats_exposed(self, tiny_engine, sample_hw, rng):
        space = GemmMappingSpace(tiny_engine.layer_shapes["gemm"][0])
        tiny_engine.evaluate_layers(
            sample_hw, [(space.sample(rng), "gemm") for _ in range(8)]
        )
        stats = tiny_engine.stats()
        assert stats["batch_queries"] == 1
        assert stats["batch_items"] == 8
        assert stats["mean_batch_size"] == 8.0
        snapshot = tiny_engine.metrics.snapshot()
        assert snapshot["counters"]["engine_batch_queries_total"] == 1.0
        assert (
            snapshot["histograms"]["engine_batch_compute_seconds_per_item"]["count"]
            == 1
        )

    def test_unknown_layer_rejected(self, tiny_engine, sample_hw):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            tiny_engine.evaluate_layers(sample_hw, [(GemmMapping(2, 2, 2), "nope")])

    def test_scalar_fallback_engine(self, tiny_network, sample_hw, rng):
        """Engines without a batch kernel fall back to the scalar loop."""

        class NoBatchEngine(MaestroEngine):
            def _compute_layer_batch(self, hw, mappings, layer_name, shape):
                return None

        engine = NoBatchEngine(tiny_network)
        reference = MaestroEngine(tiny_network)
        space = GemmMappingSpace(engine.layer_shapes["gemm"][0])
        mappings = [space.sample(rng) for _ in range(5)]
        got = engine.evaluate_layers(sample_hw, [(m, "gemm") for m in mappings])
        want = [reference.evaluate_layer(sample_hw, m, "gemm") for m in mappings]
        assert got == want
        assert engine.stats()["batch_queries"] == 1
