"""Inner-level evaluation: SW mapping search -> objective vector Y.

The bridge between the mapping-search substrate and the co-optimizers:

* :class:`SWSearchTrial` wraps an :class:`AnytimeMappingSearch` as the
  resumable :class:`~repro.optim.sh.Trial` successive halving consumes.
  The PPA-engine queries a trial spent are the answers its search holds
  (``queries_spent``); the co-optimizer charges its own simulated clock
  ``eval_cost_s`` per query, the engine keeps no time.
* :func:`make_search_tool` instantiates the configured tool by name.
* :func:`assemble_objectives` turns a finished trial into the MOBO vector
  ``Y = (latency, power, area[, sensitivity])``, applying the scenario's
  power/area caps as feasibility filters (a capped design evaluates to an
  all-infinite Y, which every optimizer treats as dominated/infeasible).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Type

import numpy as np

from repro.core.robustness import RobustnessResult, robustness_metric
from repro.costmodel.engine import PPAEngine
from repro.errors import ConfigurationError
from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.cosa import CosaMapper
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.fusion import DepthFirstFusionSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.obs.trace import NULL_TRACER
from repro.ppa import NetworkPPA
from repro.workloads.network import Network

#: the mapping search tools by name, but for the learned ``oneloop``
#: (:mod:`repro.learned` loads only when a search selects it)
SEARCH_TOOLS: Dict[str, Type[AnytimeMappingSearch]] = {
    "flextensor": FlexTensorSearch,
    "gamma": GammaSearch,
    "random": RandomMappingSearch,
    "fusion": DepthFirstFusionSearch,
    "cosa": CosaMapper,
}


def make_search_tool(
    tool: str,
    network: Network,
    hw,
    engine: PPAEngine,
    seed=None,
    batch_size: int = 1,
) -> AnytimeMappingSearch:
    """Instantiate a SW mapping search tool by name."""
    if tool == "oneloop":
        from repro.learned.oneloop import OneLoopMappingSearch

        tool_cls = OneLoopMappingSearch
    elif tool in SEARCH_TOOLS:
        tool_cls = SEARCH_TOOLS[tool]
    else:
        raise ConfigurationError(
            f"unknown search tool {tool!r}; available: {sorted([*SEARCH_TOOLS, 'oneloop'])}"
        )
    return tool_cls(network, hw, engine, seed=seed, batch_size=batch_size)


class SWSearchTrial:
    """A resumable SW-mapping-search job for one hardware configuration."""

    def __init__(
        self,
        hw,
        network: Network,
        engine: PPAEngine,
        tool: str = "flextensor",
        seed=None,
        batch_size: int = 1,
    ):
        self.hw = hw
        self.engine = engine
        self.search = make_search_tool(
            tool, network, hw, engine, seed, batch_size=batch_size
        )

    @property
    def queries_spent(self) -> int:
        """Engine queries consumed, initialization included: the answers
        the search holds, however they were asked — alone, in a lockstep
        round, or by a step on its own (the fusion tool's consumer sync)."""
        return self.search.num_answers

    def run(self, additional_budget: int) -> "SWSearchTrial":
        self.search.run(additional_budget)
        return self

    def steps(self, additional_budget: int):
        """:meth:`run` for a driver that answers the engine requests itself.

        The search's :meth:`~repro.mapping.base.AnytimeMappingSearch.steps`
        generator, driven by :func:`advance_lockstep`.
        """
        return self.search.steps(additional_budget)

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


class _SteppedTrial:
    """One trial of a lockstep round: its step generator and what it awaits."""

    __slots__ = ("trial", "budget", "steps", "request", "own_s")

    def __init__(self, trial: SWSearchTrial, budget: int):
        self.trial = trial
        self.budget = budget
        self.steps = trial.steps(budget)
        #: the engine request the generator is suspended on; None once done
        self.request = None
        #: wall seconds spent inside the generator (traced rounds only)
        self.own_s = 0.0

    def resume(self, results, tracer) -> bool:
        """Send ``results``; whether the trial waits again.

        A traced trial's ``mapping_search`` span is recorded when its
        generator finishes, with the time spent inside the generator as
        its duration: the spans of interleaved trials cannot nest on the
        tracer's stack.
        """
        timed = tracer.enabled
        start = time.perf_counter() if timed else 0.0
        try:
            self.request = self.steps.send(results)
        except StopIteration:
            self.request = None
        if timed:
            now = time.perf_counter()
            self.own_s += now - start
            if self.request is None:
                search = self.trial.search
                clock = tracer.clock
                tracer.record_leaf(
                    "mapping_search",
                    now - self.own_s,
                    clock.now_s if clock is not None else 0.0,
                    tool=search.name,
                    budget=self.budget,
                    **search.span_attributes(),
                )
        return self.request is not None


def advance_lockstep(jobs, engine, tracer=NULL_TRACER) -> int:
    """Advance ``(trial, additional_budget)`` jobs together; returns the ticks.

    The trials of an MSH round never read each other's state, so their
    step loops can wait on the engine at the same time: every job's
    :meth:`SWSearchTrial.steps` generator is advanced until it asks for
    evaluations, the pending requests go to ``engine.evaluate_groups`` as
    one call — a *tick*; through a replica, one exchange instead of one
    per trial — each trial is sent its results, and so on
    until every generator has finished.  A trial proposes from its own
    RNG and folds its own results in its own order, so each ends exactly
    where :meth:`SWSearchTrial.run` would have left it.  A trial that
    cannot be stepped (no ``steps``, or bound to another engine) runs
    whole on its turn; an engine whose class has no ``evaluate_groups``
    (a wrapper that must see every call) is served group by group.  A
    traced tick is the engine's own ``engine_eval_batch`` span.
    """
    # looked up on the class: a wrapper's ``__getattr__`` would hand over
    # the wrapped engine's method and take itself out of the path
    if getattr(type(engine), "evaluate_groups", None) is not None:
        evaluate_groups = engine.evaluate_groups
    else:
        def evaluate_groups(groups):
            return [engine.evaluate_layers(hw, items) for hw, items in groups]

    stepped = []
    ticks = 0
    try:
        for trial, additional in jobs:
            if additional <= 0:
                continue
            if getattr(trial, "steps", None) is None or trial.engine is not engine:
                trial.run(additional)
                continue
            stepped.append(_SteppedTrial(trial, additional))
            stepped[-1].resume(None, tracer)
        waiting = [entry for entry in stepped if entry.request is not None]
        while waiting:
            answers = evaluate_groups(
                [(entry.trial.hw, entry.request) for entry in waiting]
            )
            ticks += 1
            waiting = [
                entry
                for entry, results in zip(waiting, answers)
                if entry.resume(results, tracer)
            ]
    finally:
        for entry in stepped:
            entry.steps.close()  # a tick that raised leaves generators waiting
    return ticks


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
) -> HWEvaluation:
    """Build ``Y`` for a hardware configuration from its finished trial.

    A design is feasible when its mapping is and it meets each given cap
    (``power_w <= power_cap_w``, ``area_mm2 <= area_cap_mm2``).
    """
    ppa = trial.best_ppa
    robustness = trial.robustness(alpha=robustness_alpha)
    feasible = bool(
        ppa.feasible
        and (power_cap_w is None or ppa.power_w <= power_cap_w)
        and (area_cap_mm2 is None or ppa.area_mm2 <= area_cap_mm2)
    )
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
