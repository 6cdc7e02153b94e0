"""Tests for the from-scratch NSGA-II."""

import numpy as np
import pytest

from repro.hw.space import Dimension, DiscreteDesignSpace
from repro.optim.nsga2 import NSGA2
from repro.optim.pareto import pareto_front


class _GridSpace(DiscreteDesignSpace):
    def to_config(self, assignment):
        return (assignment["x"], assignment["y"])

    def from_config(self, config):
        return {"x": config[0], "y": config[1]}


@pytest.fixture()
def grid_space():
    values = tuple(np.linspace(0, 1, 21).round(3))
    return _GridSpace("grid", (Dimension("x", values), Dimension("y", values)))


def _zdt1_like(config):
    """A tiny biobjective test problem with a known trade-off curve."""
    x, y = config
    f1 = x
    g = 1 + 9 * y
    f2 = g * (1 - np.sqrt(x / g))
    return np.array([f1, f2])


class TestNSGA2:
    def test_population_size_maintained(self, grid_space):
        ga = NSGA2(grid_space, _zdt1_like, population_size=12, seed=0)
        ga.initialize()
        ga.run(3)
        assert len(ga.population) == 12
        assert ga.generation == 3

    def test_evaluation_count(self, grid_space):
        ga = NSGA2(grid_space, _zdt1_like, population_size=10, seed=0)
        ga.initialize()
        ga.run(4)
        assert ga.num_evaluations == 10 + 4 * 10

    def test_converges_toward_true_front(self, grid_space):
        """After generations, solutions approach the y=0 trade-off curve."""
        ga = NSGA2(grid_space, _zdt1_like, population_size=20, seed=1)
        ga.initialize()
        initial_mean_y = np.mean([ind.config[1] for ind in ga.population])
        ga.run(15)
        final_mean_y = np.mean([ind.config[1] for ind in ga.population])
        assert final_mean_y < initial_mean_y

    def test_pareto_individuals_rank_zero(self, grid_space):
        ga = NSGA2(grid_space, _zdt1_like, population_size=16, seed=2)
        ga.initialize()
        ga.run(5)
        members = [ind for ind in ga.population if ind.rank == 0 and ind.feasible]
        assert members
        assert all(ind.rank == 0 for ind in members)
        # reported points must be mutually non-dominated
        points = np.vstack([ind.objectives for ind in members])
        assert pareto_front(points).shape[0] == points.shape[0]

    def test_infeasible_ranked_behind(self, grid_space):
        def sometimes_infeasible(config):
            x, y = config
            if x > 0.5:
                return np.array([np.inf, np.inf])
            return np.array([x, y])

        ga = NSGA2(grid_space, sometimes_infeasible, population_size=14, seed=3)
        ga.initialize()
        ga.run(6)
        front = [ind for ind in ga.population if ind.rank == 0]
        assert all(ind.feasible for ind in front)

    def test_step_auto_initializes(self, grid_space):
        ga = NSGA2(grid_space, _zdt1_like, population_size=8, seed=0)
        ga.step()
        assert len(ga.population) == 8

    def test_deterministic(self, grid_space):
        def run_once():
            ga = NSGA2(grid_space, _zdt1_like, population_size=10, seed=7)
            ga.initialize()
            ga.run(4)
            return sorted(tuple(ind.config) for ind in ga.population)

        assert run_once() == run_once()

    def test_rejects_tiny_population(self, grid_space):
        with pytest.raises(ValueError):
            NSGA2(grid_space, _zdt1_like, population_size=1)
