"""Multi-workload co-optimization (Fig. 6a).

"Parallel implementation of UNICO algorithm to support multi-workload
HW-SW co-optimization": for each sampled hardware configuration, one SW
mapping search **job per workload** runs in parallel; the configuration's
quality aggregates the per-workload outcomes.

Two deliverables here:

* :class:`MultiWorkloadEngine` — a composite facade over one PPA engine
  per workload, satisfying the surface co-optimizers rely on
  (``num_queries``, ``eval_cost_s``, ``area_mm2``; ``sample_sink`` and
  ``tracer`` reach every engine).  Like every engine it keeps no
  simulated time: the co-optimizer's clock does.
* :class:`MultiWorkloadTrial` — the job bundle: drop-in replacement for
  :class:`~repro.core.evaluation.SWSearchTrial` whose ``run(b)`` advances
  *every* workload's search by ``b`` evaluations (jobs execute in parallel
  in the deployment; the co-optimizer's makespan accounting covers this via
  the trial's query count, the answers its searches hold), and whose PPA
  composes the workloads' as parts
  (:func:`~repro.ppa.compose_network_ppa`).

Use :func:`multi_workload_trial_factory` as the ``trial_factory`` of any
co-optimizer; the merged-network alternative (one search over concatenated
layers) remains available via
:func:`repro.workloads.network.merge_networks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.evaluation import make_search_tool
from repro.core.robustness import RobustnessResult, robustness_metric
from repro.costmodel.engine import PPAEngine
from repro.errors import ConfigurationError
from repro.ppa import NetworkPPA, compose_network_ppa
from repro.utils.rng import spawn_generators
from repro.workloads.network import Network, merge_networks


class MultiWorkloadEngine:
    """Composite accounting facade over one engine per workload."""

    def __init__(self, engines: Dict[str, PPAEngine]):
        if not engines:
            raise ConfigurationError("need at least one per-workload engine")
        self.engines = dict(engines)
        first = next(iter(self.engines.values()))
        self.eval_cost_s = first.eval_cost_s
        self.metrics = first.metrics
        for engine in self.engines.values():
            engine.metrics = self.metrics  # one shared registry
        self.network = merge_networks(
            "+".join(sorted(self.engines)),
            [engine.network for engine in self.engines.values()],
        )

    @property
    def num_queries(self) -> int:
        return sum(engine.num_queries for engine in self.engines.values())

    def stats(self) -> Dict:
        """Aggregate operational statistics across the per-workload engines."""
        per_workload = {
            name: engine.stats() for name, engine in sorted(self.engines.items())
        }
        return {
            "engine": type(self).__name__,
            "workload": self.network.name,
            "num_queries": self.num_queries,
            "workloads": per_workload,
        }

    @property
    def sample_sink(self):
        return next(iter(self.engines.values())).sample_sink

    @sample_sink.setter
    def sample_sink(self, sink) -> None:
        for engine in self.engines.values():
            engine.sample_sink = sink

    @property
    def tracer(self):
        return next(iter(self.engines.values())).tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        for engine in self.engines.values():
            engine.tracer = tracer

    def area_mm2(self, hw) -> float:
        return next(iter(self.engines.values())).area_mm2(hw)


@dataclass
class _SearchView:
    """The minimal 'search' surface co-optimizers read from a trial."""

    best_mapping: Dict
    history: List


class MultiWorkloadTrial:
    """One hardware candidate's bundle of per-workload SW-search jobs."""

    def __init__(
        self,
        hw,
        engine: MultiWorkloadEngine,
        tool: str = "flextensor",
        seed=None,
        batch_size: int = 1,
    ):
        self.hw = hw
        self.engine = engine
        names = sorted(engine.engines)
        rngs = spawn_generators(seed, len(names), name="multi-workload")
        self.searches = {
            name: make_search_tool(
                tool,
                engine.engines[name].network,
                hw,
                engine.engines[name],
                seed=rng,
                batch_size=batch_size,
            )
            for name, rng in zip(names, rngs)
        }

    @property
    def queries_spent(self) -> int:
        """Engine queries consumed, initialization included: the answers
        every workload's search holds."""
        return sum(search.num_answers for search in self.searches.values())

    # ------------------------------------------------------------------- runs
    def run(self, additional_budget: int) -> "MultiWorkloadTrial":
        """Advance every workload's job by ``additional_budget`` steps."""
        for search in self.searches.values():
            search.run(additional_budget)
        return self

    @property
    def spent_budget(self) -> int:
        return max(search.spent_budget for search in self.searches.values())

    def best_curve(self) -> np.ndarray:
        """Sum of per-workload best-so-far objectives, step-aligned."""
        curves = [search.best_curve() for search in self.searches.values()]
        if not curves or min(len(c) for c in curves) == 0:
            return np.array([])
        length = min(len(c) for c in curves)
        return np.sum([c[:length] for c in curves], axis=0)

    # ------------------------------------------------------------------ views
    @property
    def best_ppa(self) -> NetworkPPA:
        """The workloads' PPAs as parts, one run each: latencies and
        energies add, power over the total run."""
        return compose_network_ppa(
            dict.fromkeys(self.searches, 1),
            {name: search.best_ppa for name, search in self.searches.items()},
            self.engine.area_mm2(self.hw),
        )

    def robustness(self, alpha: float = 0.05) -> RobustnessResult:
        """Worst-case sensitivity across workloads.

        A hardware is only as robust as its most mapping-sensitive
        workload, so the aggregate takes the maximum finite R (infinite if
        any workload never reached feasibility).
        """
        results = [
            robustness_metric(search.history, alpha=alpha)
            for search in self.searches.values()
        ]
        for result in results:
            if not result.finite:
                return result
        return max(results, key=lambda result: result.r_value)

    @property
    def search(self) -> _SearchView:
        merged_mapping = {
            f"{name}.{layer}": mapping
            for name, search in self.searches.items()
            for layer, mapping in search.best_mapping.items()
        }
        merged_history = [
            point for search in self.searches.values() for point in search.history
        ]
        return _SearchView(best_mapping=merged_mapping, history=merged_history)


def multi_workload_trial_factory(
    networks: Sequence[Network],
    engine_factory: Callable[[Network], PPAEngine],
    tool: str = "flextensor",
    batch_size: int = 1,
):
    """Build (engine, factory) for multi-workload co-optimization.

    Returns ``(MultiWorkloadEngine, trial_factory)`` ready to pass to a
    co-optimizer; ``batch_size`` bounds the candidates of one engine call
    of every workload's search, as a co-optimizer's ``eval_batch_size``
    does for its own trials::

        engine, factory = multi_workload_trial_factory(nets, MaestroEngine)
        unico = Unico(space, engine.network, engine, config,
                      trial_factory=factory, ...)
    """
    if not networks:
        raise ConfigurationError("need at least one workload")
    engines = {network.name: engine_factory(network) for network in networks}
    composite = MultiWorkloadEngine(engines)

    def factory(hw, seed_rng) -> MultiWorkloadTrial:
        return MultiWorkloadTrial(
            hw, composite, tool=tool, seed=seed_rng, batch_size=batch_size
        )

    return composite, factory
