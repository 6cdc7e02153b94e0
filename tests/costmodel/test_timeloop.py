"""Tests for the loop-centric (Timeloop-like) engine, incl. cross-validation
against the data-centric (MAESTRO-like) engine.

The two engines model the same hardware with independent formulations, so
strong rank-correlation between them on random (hw, mapping) pairs is a
meaningful check of both.
"""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import analyze_gemm
from repro.costmodel.timeloop import TimeloopEngine, analyze_gemm_loopnest, _tile_fills, _Loop
from repro.hw.spatial import SpatialHWConfig, edge_design_space
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gemm_mapping import GemmMapping, GemmMappingSpace
from repro.workloads.layers import GemmShape

SHAPE = GemmShape(m=64, n=256, k=128)


def _hw(**overrides) -> SpatialHWConfig:
    base = dict(pe_x=8, pe_y=8, l1_bytes=4096, l2_kb=512, noc_bw=64, dataflow="ws")
    base.update(overrides)
    return SpatialHWConfig(**base)


class TestTileFills:
    def test_no_loops_one_fill(self):
        assert _tile_fills([], ("m", "k")) == 1

    def test_indexing_loops_multiply(self):
        loops = [_Loop("m", 4), _Loop("k", 3)]
        assert _tile_fills(loops, ("m", "k")) == 12

    def test_inner_non_indexing_loop_reuses(self):
        # n innermost: the A tile stays resident across the n loop
        loops = [_Loop("m", 4), _Loop("k", 3), _Loop("n", 5)]
        assert _tile_fills(loops, ("m", "k")) == 12

    def test_outer_non_indexing_loop_refills(self):
        # n outermost: every n iteration revisits all A tiles
        loops = [_Loop("n", 5), _Loop("m", 4), _Loop("k", 3)]
        assert _tile_fills(loops, ("m", "k")) == 60

    def test_middle_non_indexing_loop_refills_outer_part(self):
        loops = [_Loop("m", 4), _Loop("n", 5), _Loop("k", 3)]
        assert _tile_fills(loops, ("m", "k")) == 60


class TestAgainstDataCentricModel:
    def test_feasibility_identical(self):
        """Capacity rules are shared: both engines agree exactly."""
        rng = np.random.default_rng(0)
        space = edge_design_space()
        mapping_space = GemmMappingSpace(SHAPE)
        agreements = 0
        for _ in range(60):
            hw = space.sample(rng)
            mapping = mapping_space.sample(rng)
            a = analyze_gemm(hw, mapping, SHAPE)
            b = analyze_gemm_loopnest(hw, mapping, SHAPE)
            assert a.feasible == b.feasible
            agreements += 1
        assert agreements == 60

    def test_latency_rank_correlation(self):
        """Log-latencies of the two models correlate strongly."""
        rng = np.random.default_rng(1)
        space = edge_design_space()
        mapping_space = GemmMappingSpace(SHAPE)
        lat_a, lat_b = [], []
        while len(lat_a) < 50:
            hw = space.sample(rng)
            mapping = mapping_space.sample(rng)
            a = analyze_gemm(hw, mapping, SHAPE)
            b = analyze_gemm_loopnest(hw, mapping, SHAPE)
            if a.feasible and b.feasible:
                lat_a.append(np.log(a.latency_s))
                lat_b.append(np.log(b.latency_s))
        corr = np.corrcoef(lat_a, lat_b)[0, 1]
        assert corr > 0.9

    def test_energy_rank_correlation(self):
        rng = np.random.default_rng(2)
        space = edge_design_space()
        mapping_space = GemmMappingSpace(SHAPE)
        e_a, e_b = [], []
        while len(e_a) < 50:
            hw = space.sample(rng)
            mapping = mapping_space.sample(rng)
            a = analyze_gemm(hw, mapping, SHAPE)
            b = analyze_gemm_loopnest(hw, mapping, SHAPE)
            if a.feasible and b.feasible:
                e_a.append(np.log(a.energy_j))
                e_b.append(np.log(b.energy_j))
        corr = np.corrcoef(e_a, e_b)[0, 1]
        assert corr > 0.9

    def test_compute_cycles_identical(self):
        """Compute is model-independent: exactly equal by construction."""
        mapping = GemmMapping(32, 32, 32)
        a = analyze_gemm(_hw(), mapping, SHAPE)
        b = analyze_gemm_loopnest(_hw(), mapping, SHAPE)
        assert a.compute_cycles == pytest.approx(b.compute_cycles)

    def test_single_tile_minimal_traffic(self):
        hw = _hw(l1_bytes=10**7, l2_kb=10**6)
        mapping = GemmMapping(SHAPE.m, SHAPE.n, SHAPE.k)
        result = analyze_gemm_loopnest(hw, mapping, SHAPE)
        minimum = SHAPE.m * SHAPE.k + SHAPE.k * SHAPE.n + SHAPE.m * SHAPE.n
        assert result.dram_bytes == pytest.approx(minimum)


class TestTimeloopEngineDropIn:
    def test_search_runs_on_timeloop_engine(self, tiny_network, sample_hw):
        engine = TimeloopEngine(tiny_network)
        search = FlexTensorSearch(tiny_network, sample_hw, engine, seed=0)
        search.run(40)
        assert np.isfinite(search.best_objective)
        assert search.best_ppa.feasible

    def test_engines_prefer_similar_mappings(self, tiny_network, sample_hw):
        """The best mapping found under one model is near-optimal under the
        other (within 2x) — the property that makes analytical engines
        interchangeable for prototyping."""
        results = {}
        for name, engine_cls in (("maestro", MaestroEngine), ("timeloop", TimeloopEngine)):
            engine = engine_cls(tiny_network)
            search = FlexTensorSearch(tiny_network, sample_hw, engine, seed=3)
            search.run(150)
            results[name] = search.best_mapping
        cross = MaestroEngine(tiny_network)
        own = cross.aggregate(sample_hw, results["maestro"]).latency_s
        transferred = cross.aggregate(sample_hw, results["timeloop"]).latency_s
        assert transferred <= 2.0 * own
