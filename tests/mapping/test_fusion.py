"""Tests for the depth-first buffer-fusion search (Ascend-like tool)."""

import numpy as np
import pytest

from repro.camodel.engine import AscendCAEngine
from repro.hw.ascend import default_ascend_config
from repro.mapping import fusion
from repro.mapping.ascend_mapping import AscendMapping, AscendMappingSpace
from repro.mapping.fusion import DepthFirstFusionSearch
from repro.workloads.registry import get_network
from repro.workloads.layers import GemmShape


@pytest.fixture(scope="module")
def network():
    return get_network("fsrcnn_120x320")


@pytest.fixture()
def search(network):
    engine = AscendCAEngine(network)
    return DepthFirstFusionSearch(
        network, default_ascend_config(), engine, seed=9
    )


class TestAscendMappingSpace:
    SHAPE = GemmShape(m=56, n=38400, k=25)

    def test_sample_valid(self, rng):
        space = AscendMappingSpace(self.SHAPE)
        mapping = space.sample(rng)
        assert self.SHAPE.m % mapping.tile_m == 0
        assert self.SHAPE.n % mapping.tile_n == 0

    def test_seeded_for_hw(self):
        space = AscendMappingSpace(self.SHAPE)
        seeded = space.seeded_mapping_for(default_ascend_config())
        assert seeded.tile_m >= 1
        assert not seeded.fuse_input and not seeded.fuse_output

    def test_mutate_can_toggle_fusion(self, rng):
        space = AscendMappingSpace(self.SHAPE)
        base = space.seeded_mapping_for(default_ascend_config())
        toggled = False
        for _ in range(60):
            mutated = space.mutate(base, rng)
            if mutated.fuse_input != base.fuse_input or (
                mutated.fuse_output != base.fuse_output
            ):
                toggled = True
                break
        assert toggled

    def test_size_includes_fusion(self):
        space = AscendMappingSpace(self.SHAPE)
        assert space.size % 4 == 0


class TestDepthFirstFusionSearch:
    def test_monotone_resumable(self, search):
        search.run(30)
        first = search.best_objective
        search.run(30)
        curve = search.best_curve()
        assert np.all(np.diff(curve) <= 1e-18)
        assert search.best_objective <= first

    def test_uses_ascend_mappings(self, search):
        search.run(10)
        for mapping in search.best_mapping.values():
            assert isinstance(mapping, AscendMapping)

    def test_finds_feasible(self, search):
        search.run(20)
        assert np.isfinite(search.best_objective)
        assert search.best_ppa.feasible

    def test_fusion_flags_consistent_pairs(self, network, monkeypatch):
        """When the tool fuses, the producer/consumer flags line up."""
        monkeypatch.setattr(fusion, "FUSION_PROBABILITY", 0.8)
        engine = AscendCAEngine(network)
        search = DepthFirstFusionSearch(network, default_ascend_config(), engine, seed=4)
        search.run(120)
        names = search.layer_names
        current = search._current
        for i in range(len(names) - 1):
            if current[names[i]].fuse_output:
                assert current[names[i + 1]].fuse_input
