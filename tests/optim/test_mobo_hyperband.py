"""Tests for the MOBO batch sampler and Hyperband bracket planning."""

import numpy as np
import pytest

from repro.hw import edge_design_space
from repro.optim.gp import GaussianProcess
from repro.optim.hyperband import hyperband_brackets
from repro.optim.mobo import MOBOSampler


@pytest.fixture()
def space():
    return edge_design_space()


def _synthetic_objectives(space, configs):
    """A smooth 3-objective function of the encoded config."""
    ys = []
    for config in configs:
        x = space.encode(config)
        latency = 1.0 + 2 * (1 - x[0]) * (1 - x[1]) + 0.5 * x[2]
        power = 0.2 + x[0] * x[1] + 0.1 * x[3]
        area = 0.1 + x[0] + x[1] + 0.3 * x[2]
        ys.append([latency, power, area])
    return np.array(ys)


def _posterior_means(space, train, y, query):
    """One marginal-likelihood GP fit per objective column, as the
    sampler's surrogate, evaluated at ``query``."""
    x_train, x_query = space.encode_batch(train), space.encode_batch(query)
    return np.column_stack(
        [
            GaussianProcess().fit(x_train, y[:, j], seed=j, num_restarts=1).predict(x_query)[0]
            for j in range(y.shape[1])
        ]
    )


class TestMOBOSampler:
    def test_random_fallback_before_min_observations(self, space):
        sampler = MOBOSampler(space, 3, seed=0, min_observations=8)
        batch = sampler.suggest_batch([], np.zeros((0, 3)), batch_size=5)
        assert len(batch) == 5
        keys = {space.config_key(c) for c in batch}
        assert len(keys) == 5

    def test_batch_unique_and_unobserved(self, space):
        sampler = MOBOSampler(space, 3, seed=0, min_observations=4, pool_size=64)
        train = space.sample_batch(12, seed=1)
        y = _synthetic_objectives(space, train)
        batch = sampler.suggest_batch(train, y, batch_size=6)
        assert len(batch) == 6
        batch_keys = {space.config_key(c) for c in batch}
        train_keys = {space.config_key(c) for c in train}
        assert len(batch_keys) == 6
        assert not batch_keys & train_keys

    def test_model_guides_toward_good_region(self, space):
        """With clear structure, suggestions beat random sampling on the
        learned scalar objective."""
        rng = np.random.default_rng(0)
        train = space.sample_batch(40, seed=2)
        y = _synthetic_objectives(space, train)
        sampler = MOBOSampler(space, 3, seed=3, min_observations=8, pool_size=128)
        batch = sampler.suggest_batch(train, y, batch_size=8)
        suggested = _synthetic_objectives(space, batch).sum(axis=1)
        random_configs = space.sample_batch(200, seed=4)
        random_scores = _synthetic_objectives(space, random_configs).sum(axis=1)
        assert suggested.mean() < np.quantile(random_scores, 0.5)

    def test_wrong_objective_shape_raises(self, space):
        sampler = MOBOSampler(space, 3, seed=0, min_observations=2)
        train = space.sample_batch(4, seed=0)
        with pytest.raises(ValueError):
            sampler.suggest_batch(train, np.zeros((4, 2)), batch_size=2)

    def test_incumbent_mutations_in_pool(self, space):
        sampler = MOBOSampler(space, 3, seed=1, min_observations=4, pool_size=16)
        train = space.sample_batch(10, seed=5)
        y = _synthetic_objectives(space, train)
        incumbent = train[0]
        batch = sampler.suggest_batch(train, y, batch_size=3, incumbents=[incumbent])
        assert len(batch) == 3

    def test_surrogate_accuracy_on_smooth_function(self, space):
        train = space.sample_batch(60, seed=8)
        y = _synthetic_objectives(space, train)
        query = space.sample_batch(20, seed=9)
        truth = _synthetic_objectives(space, query)
        mean = _posterior_means(space, train, y, query)
        rmse = np.sqrt(np.mean((mean - truth) ** 2))
        assert rmse < 0.5


class TestHyperbandBrackets:
    def test_standard_structure(self):
        brackets = hyperband_brackets(81, eta=3.0)
        assert len(brackets) == 5  # s_max = 4
        # most aggressive bracket: many candidates, small budget
        assert brackets[0].num_candidates >= brackets[-1].num_candidates
        assert brackets[0].initial_budget <= brackets[-1].initial_budget

    def test_last_bracket_full_budget(self):
        brackets = hyperband_brackets(81, eta=3.0)
        assert brackets[-1].initial_budget == 81

    def test_num_rounds(self):
        brackets = hyperband_brackets(81, eta=3.0)
        assert brackets[0].num_rounds == 5
        assert brackets[-1].num_rounds == 1

    def test_invalid_args(self):
        from repro.errors import SearchBudgetError

        with pytest.raises(SearchBudgetError):
            hyperband_brackets(0)
        with pytest.raises(SearchBudgetError):
            hyperband_brackets(10, eta=1.0)
