"""MOBOHB baseline: a multi-objective BOHB.

Section 4.2 compares against "a multi-objective version of BOHB [18]".
BOHB = Hyperband's bracket schedule + model-based candidate sampling.  The
multi-objective twist here follows the usual recipe: each bracket draws a
random ParEGO weight vector, scalarizes all completed observations with it
and uses GP-EI to sample the bracket's candidates (random before enough
data); *vanilla* successive halving (terminal value only) prunes within
brackets.  All evaluated candidates feed the shared Pareto front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.base import CoOptimizer, CoSearchResult
from repro.optim.gp import GaussianProcess
from repro.optim.acquisition import expected_improvement
from repro.optim.hyperband import hyperband_brackets
from repro.optim.pareto import ObjectiveNormalizer
from repro.optim.scalarize import parego_scalars, sample_weight_vector
from repro.optim.sh import select_survivors_soa, terminal_values


@dataclass
class MobohbConfig:
    """Knobs of the MOBOHB baseline."""

    max_budget: int = 300
    eta: float = 3.0
    max_hyperband_loops: int = 4
    time_budget_s: Optional[float] = None
    min_observations: int = 8
    pool_size: int = 256
    model_overhead_s: float = 2.0
    #: candidate model: "gp" (EI on a scalarized GP) or "tpe" (the original
    #: BOHB model: good/bad Parzen estimators, l(x)/g(x) maximization)
    model: str = "gp"


class MobohbBaseline(CoOptimizer):
    """Hyperband brackets + model-based sampling + random scalarization."""

    method_name = "mobohb"

    def __init__(self, space, network, engine, config: Optional[MobohbConfig] = None, **kwargs):
        super().__init__(space, network, engine, include_robustness=False, **kwargs)
        self.config = config or MobohbConfig()
        self.num_objectives = 3
        self.normalizer = ObjectiveNormalizer(self.num_objectives)
        self.observed_configs: List = []
        self.observed_objectives: List[np.ndarray] = []

    # ----------------------------------------------------------- model sampler
    def _sample_candidates(self, count: int) -> List:
        observed_keys = {self.space.config_key(c) for c in self.observed_configs}
        if len(self.observed_configs) < self.config.min_observations:
            return self._random_unique(count, observed_keys)
        weights = sample_weight_vector(self.num_objectives, self.seeds.generator("mobohb-w", len(self.observed_configs)))
        normalized = np.vstack(
            [self.normalizer.transform(y) for y in self.observed_objectives]
        )
        scalar = parego_scalars(normalized, weights)
        if self.config.model == "tpe":
            from repro.optim.tpe import TPESampler

            sampler = TPESampler(
                self.space,
                min_observations=self.config.min_observations,
                seed=self.seeds.generator("mobohb-tpe", len(self.observed_configs)),
            )
            return sampler.suggest(self.observed_configs, scalar, count=count)
        x_train = np.vstack([self.space.encode(c) for c in self.observed_configs])
        gp = GaussianProcess()
        gp.fit(x_train, scalar, seed=len(self.observed_configs))
        chosen: List = []
        keys = set(observed_keys)
        rng = self.seeds.generator("mobohb-pool", len(self.observed_configs))
        pool = []
        while len(pool) < self.config.pool_size:
            candidate = self.space.sample(rng)
            key = self.space.config_key(candidate)
            if key not in keys:
                keys.add(key)
                pool.append(candidate)
        x_pool = np.vstack([self.space.encode(c) for c in pool])
        mean, std = gp.predict(x_pool)
        ei = expected_improvement(mean, std, best=float(scalar.min()))
        order = np.argsort(-ei)
        for index in order[:count]:
            chosen.append(pool[int(index)])
        return chosen

    def _random_unique(self, count: int, exclude) -> List:
        rng = self.seeds.generator("mobohb-rand", len(self.observed_configs))
        keys = set(exclude)
        batch: List = []
        attempts = 0
        while len(batch) < count and attempts < 100 * max(count, 1):
            candidate = self.space.sample(rng)
            key = self.space.config_key(candidate)
            if key not in keys:
                keys.add(key)
                batch.append(candidate)
            attempts += 1
        return batch

    # ---------------------------------------------------------------- brackets
    def _run_bracket(self, bracket) -> None:
        candidates = self._sample_candidates(bracket.num_candidates)
        self.clock.advance(self.config.model_overhead_s, label="model")
        if not candidates:
            return
        trials = [self.new_trial(hw) for hw in candidates]
        active = list(range(len(trials)))
        budget = bracket.initial_budget
        spent = {i: 0 for i in active}
        init_charged = {i: False for i in active}
        while True:
            for trial_id in active:
                additional = budget - spent[trial_id]
                queries_before = trials[trial_id].queries_spent
                if additional > 0:
                    trials[trial_id].run(additional)
                    spent[trial_id] = budget
                duration = trials[trial_id].queries_spent - queries_before
                if not init_charged[trial_id]:
                    duration += queries_before
                    init_charged[trial_id] = True
                self.clock.advance(
                    duration * self.engine.eval_cost_s, label="sw-search"
                )
            if budget >= bracket.max_budget or len(active) <= 1:
                break
            keep = max(1, int(np.floor(len(active) / bracket.eta)))
            tvs = terminal_values([trials[i].best_curve() for i in active])
            # vanilla SH: terminal value only
            active, _promoted = select_survivors_soa(
                active, tvs, np.zeros(len(active)), keep, 0
            )
            budget = min(bracket.max_budget, int(round(budget * bracket.eta)))
        for trial in trials:
            evaluation = self.finish_candidate(trial)
            self.normalizer.observe(evaluation.objectives)
            self.observed_configs.append(trial.hw)
            self.observed_objectives.append(evaluation.objectives)

    def optimize(self) -> CoSearchResult:
        config = self.config
        brackets = hyperband_brackets(config.max_budget, config.eta)
        loops = 0
        done = False
        while loops < config.max_hyperband_loops and not done:
            for bracket in brackets:
                if (
                    config.time_budget_s is not None
                    and self.clock.now_s >= config.time_budget_s
                ):
                    done = True
                    break
                self._run_bracket(bracket)
            loops += 1
        return self.make_result(
            extras={
                "hyperband_loops": loops,
                "candidates": len(self.observed_configs),
            }
        )
