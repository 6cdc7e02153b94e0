"""Tests for the TPE sampler."""

import numpy as np
import pytest

from repro.errors import SurrogateError
from repro.hw.spatial import edge_design_space
from repro.optim.tpe import ParzenEstimator, TPESampler
from tests.hw.membership import in_space


@pytest.fixture()
def space():
    return edge_design_space()


class TestParzenEstimator:
    def test_density_peaks_at_data(self):
        points = np.array([[0.2, 0.2], [0.25, 0.2]])
        kde = ParzenEstimator(points)
        near = kde.log_density(np.array([[0.22, 0.2]]))[0]
        far = kde.log_density(np.array([[0.9, 0.9]]))[0]
        assert near > far

    def test_samples_near_data(self, rng):
        points = np.full((5, 3), 0.5)
        kde = ParzenEstimator(points)
        draws = kde.sample(200, rng)
        assert np.all((draws >= 0) & (draws <= 1))
        assert abs(draws.mean() - 0.5) < 0.1

    def test_empty_rejected(self):
        with pytest.raises(SurrogateError):
            ParzenEstimator(np.zeros((0, 2)))


class TestTPESampler:
    def _score(self, space, config):
        """Smooth scalar: low when the first two dims are low."""
        x = space.encode(config)
        return float(x[0] + x[1])

    def test_random_before_min_observations(self, space):
        sampler = TPESampler(space, min_observations=10, seed=0)
        configs = space.sample_batch(4, seed=0)
        scores = np.array([self._score(space, c) for c in configs])
        suggestions = sampler.suggest(configs, scores, count=3)
        assert len(suggestions) == 3

    def test_split_good_fraction(self, space):
        sampler = TPESampler(space, gamma=0.25, seed=0)
        scores = np.arange(20, dtype=float)
        good, bad = sampler.split(scores)
        assert good.size == 5
        assert bad.size == 15
        assert scores[good].max() < scores[bad].min()

    def test_split_ignores_infinite(self, space):
        sampler = TPESampler(space, seed=0)
        scores = np.array([1.0, np.inf, 0.5, np.inf, 2.0])
        good, bad = sampler.split(scores)
        assert not np.isinf(scores[np.concatenate([good, bad])]).any()

    def test_model_guides_toward_good_region(self, space):
        """TPE suggestions score better than uniform random on average."""
        rng = np.random.default_rng(3)
        configs = space.sample_batch(80, seed=1)
        scores = np.array([self._score(space, c) for c in configs])
        sampler = TPESampler(space, seed=2, num_candidates=128)
        suggestions = sampler.suggest(configs, scores, count=12)
        suggested = np.mean([self._score(space, c) for c in suggestions])
        random_configs = space.sample_batch(200, seed=4)
        random_mean = np.mean([self._score(space, c) for c in random_configs])
        assert suggested < random_mean

    def test_invalid_gamma(self, space):
        with pytest.raises(SurrogateError):
            TPESampler(space, gamma=0.0)

    def test_suggestions_in_space(self, space):
        configs = space.sample_batch(30, seed=5)
        scores = np.array([self._score(space, c) for c in configs])
        sampler = TPESampler(space, seed=6)
        for config in sampler.suggest(configs, scores, count=5):
            assert in_space(space, config)


class TestMobohbWithTPE:
    def test_end_to_end(self, tiny_network, edge_space):
        from repro.core.baselines.mobohb import MobohbBaseline, MobohbConfig
        from repro.costmodel.engine import MaestroEngine

        engine = MaestroEngine(tiny_network)
        optimizer = MobohbBaseline(
            edge_space,
            tiny_network,
            engine,
            MobohbConfig(
                max_budget=9,
                eta=3.0,
                max_hyperband_loops=2,
                min_observations=3,
                model="tpe",
            ),
            power_cap_w=100.0,
            seed=1,
        )
        result = optimizer.optimize()
        assert result.total_hw_evaluated > 0
        assert len(result.pareto) >= 1
