"""Tests for the generic discrete design-space machinery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DesignSpaceError
from repro.hw.space import Dimension, DiscreteDesignSpace
from tests.hw.membership import in_space


class _PairSpace(DiscreteDesignSpace):
    """Minimal concrete space over dicts for testing the generic layer."""

    def to_config(self, assignment):
        return dict(assignment)

    def from_config(self, config):
        return dict(config)


@pytest.fixture()
def pair_space():
    return _PairSpace(
        "pair",
        (
            Dimension("a", (1, 2, 4, 8)),
            Dimension("b", ("x", "y", "z")),
        ),
    )


class TestDimension:
    def test_encode_decode_roundtrip(self):
        dim = Dimension("d", (10, 20, 40))
        for value in dim.choices:
            assert dim.decode(dim.encode(value)) == value

    def test_decode_clamps(self):
        dim = Dimension("d", (10, 20, 40))
        assert dim.decode(-1.0) == 10
        assert dim.decode(2.0) == 40

    def test_single_choice_encodes_zero(self):
        assert Dimension("d", (5,)).encode(5) == 0.0

    def test_duplicate_choices_rejected(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", ())

    def test_index_of_missing(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", (1, 2)).index_of(3)


class TestDiscreteDesignSpace:
    def test_size(self, pair_space):
        assert pair_space.size == 12

    def test_sample_in_space(self, pair_space):
        config = pair_space.sample(seed=0)
        assert in_space(pair_space, config)

    def test_sample_deterministic(self, pair_space):
        assert pair_space.sample(seed=3) == pair_space.sample(seed=3)

    def test_sample_batch_unique(self, pair_space):
        batch = pair_space.sample_batch(10, seed=0)
        keys = {pair_space.config_key(c) for c in batch}
        assert len(keys) == 10

    def test_sample_batch_too_large_raises(self, pair_space):
        with pytest.raises(DesignSpaceError):
            pair_space.sample_batch(13, seed=0)

    def test_encode_shape_and_range(self, pair_space):
        vec = pair_space.encode({"a": 4, "b": "y"})
        assert vec.shape == (2,)
        assert np.all((vec >= 0) & (vec <= 1))

    def test_decode_roundtrip(self, pair_space):
        for a, b in itertools.product((1, 2, 4, 8), ("x", "y", "z")):
            config = {"a": a, "b": b}
            assert pair_space.decode(pair_space.encode(config)) == config

    def test_decode_bad_shape(self, pair_space):
        with pytest.raises(DesignSpaceError):
            pair_space.decode(np.zeros(5))

    def test_mutate_changes_something(self, pair_space, rng):
        config = {"a": 4, "b": "y"}
        changed = sum(
            pair_space.mutate(config, rng) != config for _ in range(20)
        )
        assert changed >= 15  # mutation must nearly always move

    def test_mutate_stays_in_space(self, pair_space, rng):
        config = pair_space.sample(rng)
        for _ in range(30):
            config = pair_space.mutate(config, rng)
            assert in_space(pair_space, config)

    def test_crossover_mixes_parents(self, pair_space, rng):
        a = {"a": 1, "b": "x"}
        b = {"a": 8, "b": "z"}
        child = pair_space.crossover(a, b, rng)
        assert child["a"] in (1, 8)
        assert child["b"] in ("x", "z")

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(DesignSpaceError):
            _PairSpace("bad", (Dimension("a", (1,)), Dimension("a", (2,))))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_encode_decode_identity_property(self, seed):
        space = _PairSpace(
            "pair",
            (Dimension("a", (1, 2, 4, 8)), Dimension("b", ("x", "y", "z"))),
        )
        config = space.sample(seed=seed)
        assert space.decode(space.encode(config)) == config
