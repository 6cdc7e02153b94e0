"""Tests for the GEMM mapping representation and space."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.engine import MaestroEngine
from repro.errors import MappingError
import repro.mapping.gemm_mapping as gemm_mapping
from repro.mapping.gemm_mapping import GemmMapping, GemmMappingSpace, LOOP_ORDERS, UNROLL_CHOICES
from repro.workloads.layers import GemmShape


class TestGemmMapping:
    def test_valid(self):
        mapping = GemmMapping(4, 8, 16)
        assert mapping.tiles() == (4, 8, 16)

    def test_invalid_tile(self):
        with pytest.raises(MappingError):
            GemmMapping(0, 1, 1)

    def test_invalid_order(self):
        with pytest.raises(MappingError):
            GemmMapping(1, 1, 1, loop_order=("m", "m", "k"))

    def test_invalid_spatial(self):
        with pytest.raises(MappingError):
            GemmMapping(1, 1, 1, spatial="xy")

    def test_invalid_unroll(self):
        with pytest.raises(MappingError):
            GemmMapping(1, 1, 1, unroll=3)

    def test_with_tiles(self):
        updated = GemmMapping(1, 1, 1, unroll=4).with_tiles(2, 4, 8)
        assert updated.tiles() == (2, 4, 8)
        assert updated.unroll == 4

    def test_key_is_hashable_identity(self):
        a = GemmMapping(2, 4, 8)
        b = GemmMapping(2, 4, 8)
        assert a.key() == b.key()
        assert hash(a.key()) == hash(b.key())

    def test_list_loop_order_is_the_tuple_form(self, tiny_network, sample_hw):
        """A list validates like its tuple, so it must be stored as one: a
        list field compared unequal and broke the engine's cache key."""
        listed = GemmMapping(4, 8, 16, ["n", "m", "k"])
        tupled = GemmMapping(4, 8, 16, ("n", "m", "k"))
        assert listed.loop_order == ("n", "m", "k")
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        engine = MaestroEngine(tiny_network)
        result = engine.evaluate_layer(sample_hw, listed, "gemm")
        assert result.feasible
        assert result == MaestroEngine(tiny_network).evaluate_layer(
            sample_hw, tupled, "gemm"
        )


class TestGemmMappingSpace:
    SHAPE = GemmShape(m=64, n=360, k=48)

    def test_tile_choices_are_divisors(self):
        space = GemmMappingSpace(self.SHAPE)
        assert all(self.SHAPE.m % t == 0 for t in space.tile_m_choices)
        assert all(self.SHAPE.n % t == 0 for t in space.tile_n_choices)
        assert all(self.SHAPE.k % t == 0 for t in space.tile_k_choices)

    def test_size_counts_primitives(self):
        space = GemmMappingSpace(self.SHAPE)
        expected = (
            len(space.tile_m_choices)
            * len(space.tile_n_choices)
            * len(space.tile_k_choices)
            * len(LOOP_ORDERS)
            * 2
            * 4
        )
        assert space.size == expected

    def test_per_layer_space_order_of_magnitude(self):
        """Section 4.1: ~1e6 mapping points for a realistic conv layer."""
        from repro.workloads.registry import get_network

        conv = get_network("resnet").layer("s3_conv3")
        space = GemmMappingSpace(conv.to_gemm())
        assert 1e4 <= space.size <= 1e8

    def test_sample_is_member(self, rng):
        space = GemmMappingSpace(self.SHAPE)
        for _ in range(20):
            mapping = space.sample(rng)
            assert mapping.tile_m in space.tile_m_choices
            assert mapping.tile_n in space.tile_n_choices
            assert mapping.tile_k in space.tile_k_choices

    def test_seeded_mapping_near_pe_array(self):
        space = GemmMappingSpace(self.SHAPE)
        seeded = space.seeded_mapping(8, 8)
        assert seeded.tile_m >= 8
        assert self.SHAPE.m % seeded.tile_m == 0

    def test_mutate_changes_one_thing(self, rng):
        space = GemmMappingSpace(self.SHAPE)
        mapping = space.sample(rng)
        mutated = space.mutate(mapping, rng)
        differences = sum(
            getattr(mapping, f) != getattr(mutated, f)
            for f in ("tile_m", "tile_n", "tile_k", "loop_order", "spatial", "unroll")
        )
        assert differences == 1

    def test_mutate_matches_reference(self, monkeypatch):
        """Same neighbor and same RNG consumption as the ``replace``-based
        body it replaced, incl. tiles that are not on the (capped) grid."""
        monkeypatch.setattr(gemm_mapping, "MAX_TILE", 512)
        space = GemmMappingSpace(GemmShape(m=96, n=360, k=4096))
        source = np.random.default_rng(5)
        for case in range(400):
            mapping = space.sample(source)
            if case % 4 == 0:  # off-grid tiles restart from grid position 0
                mapping = mapping.with_tiles(7, 1024, 4096)
            rng, reference = np.random.default_rng(case), np.random.default_rng(case)
            assert space.mutate(mapping, rng) == _reference_mutate(
                space, mapping, reference
            )
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_crossover_fields_from_parents(self, rng):
        space = GemmMappingSpace(self.SHAPE)
        a, b = space.sample(rng), space.sample(rng)
        child = space.crossover(a, b, rng)
        for field in ("tile_m", "tile_n", "tile_k", "spatial", "unroll"):
            assert getattr(child, field) in (getattr(a, field), getattr(b, field))

    def test_max_tile_cap(self, monkeypatch):
        monkeypatch.setattr(gemm_mapping, "MAX_TILE", 64)
        space = GemmMappingSpace(GemmShape(m=8192, n=8192, k=8192))
        assert max(space.tile_m_choices) <= 64

    @given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=40)
    def test_mutate_preserves_divisibility(self, m, n, k):
        space = GemmMappingSpace(GemmShape(m=m, n=n, k=k))
        mapping = space.sample(seed=0)
        for step in range(5):
            mapping = space.mutate(mapping, seed=step)
        assert m % mapping.tile_m == 0
        assert n % mapping.tile_n == 0
        assert k % mapping.tile_k == 0


def _reference_mutate(space, mapping, rng):
    """``GemmMappingSpace.mutate`` as first written (linear grid scans)."""
    move = int(rng.integers(0, 6))
    if move in (0, 1, 2):
        field_name, grid = (
            ("tile_m", space.tile_m_choices),
            ("tile_n", space.tile_n_choices),
            ("tile_k", space.tile_k_choices),
        )[move]
        current = getattr(mapping, field_name)
        index = grid.index(current) if current in grid else 0
        offset = 0
        while offset == 0:
            offset = int(rng.integers(-2, 3))
        new_index = max(0, min(len(grid) - 1, index + offset))
        return dataclasses.replace(mapping, **{field_name: int(grid[new_index])})
    if move == 3:
        order = LOOP_ORDERS[int(rng.integers(0, len(LOOP_ORDERS)))]
        return dataclasses.replace(mapping, loop_order=order)
    if move == 4:
        other = "nm" if mapping.spatial == "mn" else "mn"
        return dataclasses.replace(mapping, spatial=other)
    unroll = UNROLL_CHOICES[int(rng.integers(0, len(UNROLL_CHOICES)))]
    return dataclasses.replace(mapping, unroll=unroll)
