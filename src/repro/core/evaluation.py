"""Inner-level evaluation: SW mapping search -> objective vector Y.

The bridge between the mapping-search substrate and the co-optimizers:

* :class:`SWSearchTrial` wraps an :class:`AnytimeMappingSearch` as the
  resumable :class:`~repro.optim.sh.Trial` successive halving consumes, and
  tracks how many PPA-engine queries (and therefore how much modeled
  wall-clock) the trial consumed.
* :func:`make_search_tool` instantiates the configured tool by name.
* :func:`assemble_objectives` turns a finished trial into the MOBO vector
  ``Y = (latency, power, area[, sensitivity])``, applying the scenario's
  power/area caps as feasibility filters (a capped design evaluates to an
  all-infinite Y, which every optimizer treats as dominated/infeasible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

import numpy as np

from repro.core.robustness import RobustnessResult, robustness_metric
from repro.costmodel.engine import PPAEngine
from repro.costmodel.results import NetworkPPA
from repro.errors import ConfigurationError
from repro.learned.oneloop import OneLoopMappingSearch
from repro.learned.screen import SCREENED_REASON
from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.cosa import CosaMapper
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.fusion import DepthFirstFusionSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.workloads.network import Network

SEARCH_TOOLS: Dict[str, Type[AnytimeMappingSearch]] = {
    "flextensor": FlexTensorSearch,
    "gamma": GammaSearch,
    "random": RandomMappingSearch,
    "fusion": DepthFirstFusionSearch,
    "cosa": CosaMapper,
    "oneloop": OneLoopMappingSearch,
}


def make_search_tool(
    tool: str,
    network: Network,
    hw,
    engine: PPAEngine,
    objective: str = "latency",
    seed=None,
    batch_size: int = 1,
) -> AnytimeMappingSearch:
    """Instantiate a registered SW mapping search tool by name."""
    if tool not in SEARCH_TOOLS:
        raise ConfigurationError(
            f"unknown search tool {tool!r}; available: {sorted(SEARCH_TOOLS)}"
        )
    return SEARCH_TOOLS[tool](
        network, hw, engine, objective=objective, seed=seed, batch_size=batch_size
    )


class _QueryCountingEngine:
    """Per-trial view of a shared engine with race-free query accounting.

    Several trials of one successive-halving round may run concurrently
    (``JobRunner`` thread backend) against the *same* engine; deltas of the
    engine-global ``num_queries`` would then interleave across trials and
    corrupt the per-trial durations the simulated clock charges.  This
    proxy counts the queries issued *through it* locally, delegating all
    work (and caching, and clock charging) to the shared engine.
    """

    def __init__(self, engine: PPAEngine):
        self._engine = engine
        self.local_queries = 0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    # Without these, pickle's *instance* lookup of __getstate__ (CPython
    # 3.10) would fall through __getattr__ to the wrapped engine's method
    # and serialize the engine's state as the view's — silently corrupting
    # process-backend round dispatch.
    def __getstate__(self):
        return self.__dict__

    def __setstate__(self, state):
        self.__dict__.update(state)

    def evaluate_layer(self, hw, mapping, layer_name):
        self.local_queries += 1
        return self._engine.evaluate_layer(hw, mapping, layer_name)

    def evaluate_layers(self, hw, requests):
        results = self._engine.evaluate_layers(hw, requests)
        if getattr(self._engine, "is_screening", False):
            # a screening wrapper forwards only part of the batch to the
            # analytical engine; only those candidates cost a query (and
            # therefore simulated eval time).  Screened-out results are
            # tagged, so per-trial accounting stays race-free.
            self.local_queries += sum(
                1 for result in results
                if result.infeasible_reason != SCREENED_REASON
            )
        else:
            self.local_queries += len(results)
        return results

    def evaluate_candidates(self, hw, layer_name, mappings):
        return self.evaluate_layers(
            hw, [(mapping, layer_name) for mapping in mappings]
        )

    def evaluate_network(self, hw, mappings):
        # mirrors PPAEngine.evaluate_network: one query per mapped layer
        self.local_queries += sum(
            1 for name in self._engine.layer_shapes if name in mappings
        )
        return self._engine.evaluate_network(hw, mappings)


class SWSearchTrial:
    """A resumable SW-mapping-search job for one hardware configuration."""

    def __init__(
        self,
        hw,
        network: Network,
        engine: PPAEngine,
        tool: str = "flextensor",
        objective: str = "latency",
        seed=None,
        batch_size: int = 1,
    ):
        self.hw = hw
        self.engine = engine
        self._view = _QueryCountingEngine(engine)
        self.search = make_search_tool(
            tool, network, hw, self._view, objective, seed, batch_size=batch_size
        )
        #: engine queries consumed (initialization included)
        self.queries_spent = self._view.local_queries

    def reattach_engine(self, engine: PPAEngine) -> None:
        """Re-point a round-tripped trial at the shared engine.

        A trial advanced in a worker process comes back holding pickled
        *copies* of the engine; later rounds (and anything the optimizer
        does with the trial afterwards) must hit the real shared engine —
        its cache, clock, and accounting.  The counting view is the same
        unpickled object the search tool holds, so re-pointing it switches
        the search too.
        """
        self.engine = engine
        self._view._engine = engine

    def run(self, additional_budget: int) -> "SWSearchTrial":
        queries_before = self._view.local_queries
        self.search.run(additional_budget)
        self.queries_spent += self._view.local_queries - queries_before
        return self

    def best_curve(self) -> np.ndarray:
        return self.search.best_curve()

    @property
    def spent_budget(self) -> int:
        return self.search.spent_budget

    @property
    def best_ppa(self) -> NetworkPPA:
        return self.search.best_ppa

    def robustness(self, alpha: float = 0.05) -> RobustnessResult:
        return robustness_metric(self.search.history, alpha=alpha)


@dataclass(frozen=True)
class HWEvaluation:
    """Outcome of evaluating one hardware configuration."""

    hw: object
    objectives: np.ndarray  # (latency, power, area[, sensitivity])
    ppa: NetworkPPA
    robustness: RobustnessResult
    budget_spent: int
    feasible: bool

    @property
    def ppa_vector(self) -> np.ndarray:
        """(latency, power, area) regardless of the robustness objective."""
        return np.array([self.ppa.latency_s, self.ppa.power_w, self.ppa.area_mm2])


def assemble_objectives(
    trial: SWSearchTrial,
    include_robustness: bool = True,
    power_cap_w: Optional[float] = None,
    area_cap_mm2: Optional[float] = None,
    robustness_alpha: float = 0.05,
    constraints=None,
) -> HWEvaluation:
    """Build ``Y`` for a hardware configuration from its finished trial.

    Feasibility combines the scalar caps (kept for convenience) with any
    extra :class:`~repro.hw.constraints.ConstraintSet`.
    """
    from repro.hw.constraints import ConstraintSet

    ppa = trial.best_ppa
    robustness = trial.robustness(alpha=robustness_alpha)
    rules = ConstraintSet.from_caps(power_cap_w, area_cap_mm2)
    feasible = ppa.feasible and rules.satisfied(trial.hw, ppa)
    if feasible and constraints is not None:
        feasible = constraints.satisfied(trial.hw, ppa)
    num_objectives = 4 if include_robustness else 3
    if not feasible:
        objectives = np.full(num_objectives, np.inf)
    else:
        base = [ppa.latency_s, ppa.power_w, ppa.area_mm2]
        if include_robustness:
            base.append(robustness.r_value)
        objectives = np.array(base, dtype=float)
    return HWEvaluation(
        hw=trial.hw,
        objectives=objectives,
        ppa=ppa,
        robustness=robustness,
        budget_spent=trial.spent_budget,
        feasible=feasible,
    )
