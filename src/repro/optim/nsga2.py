"""NSGA-II (Deb et al., 2002) — the evolutionary co-search baseline.

Generic over any :class:`~repro.hw.space.DiscreteDesignSpace`: individuals
are hardware configurations, fitness is the objective vector returned by a
user-supplied evaluation function (minimization).  Non-finite objective
vectors (infeasible hardware) are ranked behind every feasible individual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.hw.space import DiscreteDesignSpace
from repro.optim.pareto import crowding_distance, non_dominated_sort
from repro.utils.rng import SeedLike, as_generator

EvaluateFn = Callable[[object], np.ndarray]


@dataclass
class Individual:
    """A genome (hardware config) with its objective vector."""

    config: object
    objectives: np.ndarray
    rank: int = 0
    crowding: float = 0.0

    @property
    def feasible(self) -> bool:
        return bool(np.all(np.isfinite(self.objectives)))


class NSGA2:
    """Elitist non-dominated-sorting genetic algorithm."""

    def __init__(
        self,
        space: DiscreteDesignSpace,
        evaluate: EvaluateFn,
        population_size: int = 20,
        seed: SeedLike = None,
        crossover_prob: float = 0.9,
        mutation_prob: float = 0.3,
    ):
        if population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {population_size}")
        self.space = space
        self.evaluate = evaluate
        self.population_size = population_size
        self.rng = as_generator(seed)
        self.crossover_prob = crossover_prob
        self.mutation_prob = mutation_prob
        self.population: List[Individual] = []
        self.num_evaluations = 0
        self.generation = 0

    # ------------------------------------------------------------------- setup
    def initialize(self) -> None:
        configs = [self.space.sample(self.rng) for _ in range(self.population_size)]
        self.population = [self._make_individual(c) for c in configs]
        self._assign_ranks(self.population)

    def _make_individual(self, config) -> Individual:
        objectives = np.asarray(self.evaluate(config), dtype=float)
        self.num_evaluations += 1
        return Individual(config=config, objectives=objectives)

    # ------------------------------------------------------------------ ranking
    @staticmethod
    def _penalized(points: np.ndarray) -> np.ndarray:
        """Replace non-finite rows with a large dominated sentinel."""
        points = points.copy()
        bad = ~np.all(np.isfinite(points), axis=1)
        if bad.any():
            finite_rows = points[~bad]
            ceiling = (
                finite_rows.max(axis=0) * 10.0 + 1.0
                if finite_rows.size
                else np.ones(points.shape[1])
            )
            points[bad] = ceiling
        return points

    def _assign_ranks(self, individuals: List[Individual]) -> None:
        points = self._penalized(
            np.vstack([ind.objectives for ind in individuals])
        )
        fronts = non_dominated_sort(points)
        for rank, front in enumerate(fronts):
            front_points = points[front]
            crowd = crowding_distance(front_points)
            for local_index, individual_index in enumerate(front):
                individuals[individual_index].rank = rank
                individuals[individual_index].crowding = float(crowd[local_index])

    # ---------------------------------------------------------------- breeding
    def _tournament(self) -> Individual:
        a, b = (
            self.population[int(self.rng.integers(0, len(self.population)))],
            self.population[int(self.rng.integers(0, len(self.population)))],
        )
        if a.rank != b.rank:
            return a if a.rank < b.rank else b
        return a if a.crowding > b.crowding else b

    def step(self) -> None:
        """One generation: breed, evaluate, environmental selection."""
        if not self.population:
            self.initialize()
        offspring: List[Individual] = []
        while len(offspring) < self.population_size:
            parent_a = self._tournament()
            parent_b = self._tournament()
            if self.rng.random() < self.crossover_prob:
                child_config = self.space.crossover(
                    parent_a.config, parent_b.config, self.rng
                )
            else:
                child_config = parent_a.config
            if self.rng.random() < self.mutation_prob:
                child_config = self.space.mutate(child_config, self.rng)
            offspring.append(self._make_individual(child_config))
        combined = self.population + offspring
        self._assign_ranks(combined)
        combined.sort(key=lambda ind: (ind.rank, -ind.crowding))
        self.population = combined[: self.population_size]
        self._assign_ranks(self.population)
        self.generation += 1

    def run(self, num_generations: int) -> "NSGA2":
        for _ in range(num_generations):
            self.step()
        return self
