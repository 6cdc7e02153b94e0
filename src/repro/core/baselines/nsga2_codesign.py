"""NSGA-II co-design baseline.

The evolutionary comparison of Section 4.2: hardware configurations are the
genomes, fitness is the (latency, power, area) vector obtained by running a
fixed-budget software-mapping search per individual.  Serial evaluation
with clock charging per individual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.base import CoOptimizer, CoSearchResult
from repro.optim.nsga2 import NSGA2


@dataclass
class NSGA2CodesignConfig:
    """Knobs of the NSGA-II co-design baseline."""

    population_size: int = 20
    max_generations: int = 6
    eval_budget: int = 300
    time_budget_s: Optional[float] = None
    crossover_prob: float = 0.9
    mutation_prob: float = 0.3


class NSGA2Codesign(CoOptimizer):
    """NSGA-II over hardware with fixed-budget SW search fitness."""

    method_name = "nsgaii"

    def __init__(
        self, space, network, engine, config: Optional[NSGA2CodesignConfig] = None, **kwargs
    ):
        super().__init__(space, network, engine, include_robustness=False, **kwargs)
        self.config = config or NSGA2CodesignConfig()
        self._ga = NSGA2(
            space,
            evaluate=self._evaluate_hw,
            population_size=self.config.population_size,
            seed=self.seeds.generator("nsga2"),
            crossover_prob=self.config.crossover_prob,
            mutation_prob=self.config.mutation_prob,
        )

    def _evaluate_hw(self, hw) -> np.ndarray:
        trial = self.new_trial(hw)
        trial.run(self.config.eval_budget)
        self.clock.advance(
            trial.queries_spent * self.engine.eval_cost_s, label="sw-search"
        )
        evaluation = self.finish_candidate(trial)
        return evaluation.objectives

    def optimize(self) -> CoSearchResult:
        config = self.config
        self._ga.initialize()
        for _generation in range(config.max_generations):
            if (
                config.time_budget_s is not None
                and self.clock.now_s >= config.time_budget_s
            ):
                break
            self._ga.step()
        return self.make_result(
            extras={
                "generations": self._ga.generation,
                "ga_evaluations": self._ga.num_evaluations,
            }
        )
