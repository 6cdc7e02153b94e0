"""Determinism and encoding-geometry tests for the MOBO layer."""

import numpy as np
import pytest

from repro.hw.spatial import edge_design_space
from repro.optim.mobo import MOBOSampler


@pytest.fixture()
def space():
    return edge_design_space()


def _objectives(space, configs):
    ys = []
    for config in configs:
        x = space.encode(config)
        ys.append([1 + x[0], 0.5 + x[1], 0.2 + x[2]])
    return np.array(ys)


class TestSamplerDeterminism:
    def test_same_seed_same_batch(self, space):
        train = space.sample_batch(12, seed=0)
        y = _objectives(space, train)

        def run(seed):
            sampler = MOBOSampler(space, 3, seed=seed, pool_size=64)
            batch = sampler.suggest_batch(train, y, batch_size=4)
            return [space.config_key(c) for c in batch]

        assert run(7) == run(7)

    def test_different_seed_different_batch(self, space):
        train = space.sample_batch(12, seed=0)
        y = _objectives(space, train)

        def run(seed):
            sampler = MOBOSampler(space, 3, seed=seed, pool_size=64)
            batch = sampler.suggest_batch(train, y, batch_size=4)
            return [space.config_key(c) for c in batch]

        assert run(1) != run(2)


class TestEncodingGeometry:
    def test_mutation_is_local_in_encoding_space(self, space, rng):
        """A one-dimension grid step moves the encoded vector by at most one
        coordinate's span (1.0 for a binary axis) — the geometry the GP's
        smoothness assumption relies on."""
        mutation_distances = []
        for _ in range(40):
            config = space.sample(rng)
            neighbor = space.mutate(config, rng, num_moves=1, step=1)
            distance = np.linalg.norm(space.encode(config) - space.encode(neighbor))
            assert distance <= 1.0 + 1e-12  # single axis moved
            mutation_distances.append(distance)
        random_distances = []
        for _ in range(40):
            a, b = space.sample(rng), space.sample(rng)
            random_distances.append(
                np.linalg.norm(space.encode(a) - space.encode(b))
            )
        # mutations are much closer than random re-draws
        assert np.mean(mutation_distances) < 0.5 * np.mean(random_distances)
