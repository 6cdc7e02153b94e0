"""Random co-design baseline: uniform hardware sampling, full SW budget.

The sanity floor every guided method must beat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.base import CoOptimizer, CoSearchResult


@dataclass
class RandomCodesignConfig:
    """Knobs of the random baseline."""

    max_candidates: int = 60
    full_budget: int = 300
    time_budget_s: Optional[float] = None


class RandomCodesign(CoOptimizer):
    """Uniform random hardware sampling with full-budget SW search."""

    method_name = "random"

    def __init__(
        self, space, network, engine, config: Optional[RandomCodesignConfig] = None, **kwargs
    ):
        super().__init__(space, network, engine, include_robustness=False, **kwargs)
        self.config = config or RandomCodesignConfig()

    def optimize(self) -> CoSearchResult:
        config = self.config
        rng = self.seeds.generator("random-codesign")
        seen = set()
        for _index in range(config.max_candidates):
            if (
                config.time_budget_s is not None
                and self.clock.now_s >= config.time_budget_s
            ):
                break
            hw = self.space.sample(rng)
            key = self.space.config_key(hw)
            if key in seen:
                continue
            seen.add(key)
            trial = self.new_trial(hw)
            trial.run(config.full_budget)
            self.clock.advance(
                trial.queries_spent * self.engine.eval_cost_s, label="sw-search"
            )
            self.finish_candidate(trial)
        return self.make_result(extras={"candidates": len(seen)})
