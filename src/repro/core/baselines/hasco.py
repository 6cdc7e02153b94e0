"""HASCO-like baseline co-optimizer.

HASCO (Xiao et al., ISCA'21) drives hardware selection with single-point
Bayesian optimization and gives *every* sampled hardware configuration the
full software-mapping search budget — no early stopping.  Section 4.5
characterizes it as "ChampionUpdate without SH", which is exactly what this
class implements:

* one hardware candidate per BO iteration (qParEGO EI with a fresh random
  weight vector, trained on all completed observations),
* a full ``full_budget`` SW mapping search per candidate,
* serial execution (evaluations charge the simulated clock one by one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.base import CoOptimizer, CoSearchResult
from repro.optim.mobo import MOBOSampler
from repro.optim.pareto import ObjectiveNormalizer


@dataclass
class HascoConfig:
    """Knobs of the HASCO-like baseline."""

    max_candidates: int = 60
    full_budget: int = 300
    bo_overhead_s: float = 2.0
    time_budget_s: Optional[float] = None
    min_observations: int = 8
    pool_size: int = 256


class HascoBaseline(CoOptimizer):
    """Single-point BO over hardware with full-budget SW search."""

    method_name = "hasco"

    def __init__(self, space, network, engine, config: Optional[HascoConfig] = None, **kwargs):
        super().__init__(space, network, engine, include_robustness=False, **kwargs)
        self.config = config or HascoConfig()
        self.num_objectives = 3
        self.sampler = MOBOSampler(
            space,
            self.num_objectives,
            seed=self.seeds.generator("hasco-bo"),
            pool_size=self.config.pool_size,
            min_observations=self.config.min_observations,
        )
        self.normalizer = ObjectiveNormalizer(self.num_objectives)
        self.observed_configs: List = []
        self.observed_objectives: List[np.ndarray] = []

    def _normalized(self) -> np.ndarray:
        if not self.observed_objectives:
            return np.zeros((0, self.num_objectives))
        return np.vstack(
            [self.normalizer.transform(y) for y in self.observed_objectives]
        )

    def optimize(self) -> CoSearchResult:
        config = self.config
        for _candidate_index in range(config.max_candidates):
            if (
                config.time_budget_s is not None
                and self.clock.now_s >= config.time_budget_s
            ):
                break
            incumbents = [design.hw for design in self.pareto.items]
            batch = self.sampler.suggest_batch(
                self.observed_configs,
                self._normalized(),
                batch_size=1,
                incumbents=incumbents,
            )
            self.clock.advance(config.bo_overhead_s, label="bo")
            if not batch:
                break
            hw = batch[0]
            trial = self.new_trial(hw)
            trial.run(config.full_budget)
            self.clock.advance(
                trial.queries_spent * self.engine.eval_cost_s, label="sw-search"
            )
            evaluation = self.finish_candidate(trial)
            self.normalizer.observe(evaluation.objectives)
            self.observed_configs.append(hw)
            self.observed_objectives.append(evaluation.objectives)
        return self.make_result(
            extras={"candidates": len(self.observed_configs)}
        )
