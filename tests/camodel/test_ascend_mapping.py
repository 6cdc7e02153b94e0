"""Tests for the Ascend mapping representation itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.camodel.mapping as camodel_mapping
from repro.camodel.mapping import AscendMapping, AscendMappingSpace
from repro.errors import MappingError
from repro.workloads.layers import GemmShape


class TestAscendMapping:
    def test_valid(self):
        mapping = AscendMapping(8, 16, 32, fuse_input=True)
        assert mapping.tiles() == (8, 16, 32)
        assert mapping.fuse_input and not mapping.fuse_output

    def test_invalid_tile(self):
        with pytest.raises(MappingError):
            AscendMapping(0, 1, 1)

    def test_with_tiles_preserves_flags(self):
        mapping = AscendMapping(1, 1, 1, fuse_output=True).with_tiles(2, 4, 8)
        assert mapping.tiles() == (2, 4, 8)
        assert mapping.fuse_output

    def test_key_includes_fusion(self):
        a = AscendMapping(2, 4, 8)
        b = AscendMapping(2, 4, 8, fuse_output=True)
        assert a.key() != b.key()


class TestAscendMappingSpace:
    SHAPE = GemmShape(m=56, n=4800, k=108)

    def test_size_counts_fusion(self):
        space = AscendMappingSpace(self.SHAPE)
        tiles_only = (
            len(space.tile_m_choices)
            * len(space.tile_n_choices)
            * len(space.tile_k_choices)
        )
        assert space.size == 4 * tiles_only

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_samples_divide(self, seed):
        space = AscendMappingSpace(self.SHAPE)
        mapping = space.sample(seed=seed)
        assert self.SHAPE.m % mapping.tile_m == 0
        assert self.SHAPE.n % mapping.tile_n == 0
        assert self.SHAPE.k % mapping.tile_k == 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_mutation_chain_stays_valid(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        space = AscendMappingSpace(self.SHAPE)
        mapping = space.sample(rng)
        for _ in range(6):
            mapping = space.mutate(mapping, rng)
        assert self.SHAPE.m % mapping.tile_m == 0
        assert self.SHAPE.n % mapping.tile_n == 0
        assert self.SHAPE.k % mapping.tile_k == 0

    def test_crossover_fields_from_parents(self, rng):
        space = AscendMappingSpace(self.SHAPE)
        a, b = space.sample(rng), space.sample(rng)
        child = space.crossover(a, b, rng)
        for field in ("tile_m", "tile_n", "tile_k", "fuse_input", "fuse_output"):
            assert getattr(child, field) in (getattr(a, field), getattr(b, field))

    def test_empty_grid_rejected(self, monkeypatch):
        # MAX_TILE below every divisor > 0 cannot happen (1 always divides),
        # so the space is never empty for valid shapes
        monkeypatch.setattr(camodel_mapping, "MAX_TILE", 1)
        space = AscendMappingSpace(GemmShape(m=7, n=11, k=13))
        assert space.size > 0
