"""Multi-workload co-optimization (Fig. 6a).

"Parallel implementation of UNICO algorithm to support multi-workload
HW-SW co-optimization": for each sampled hardware configuration, one SW
mapping search **job per workload** runs in parallel; the configuration's
quality aggregates the per-workload outcomes.

Two deliverables here:

* :class:`MultiWorkloadEngine` — a composite facade over one PPA engine
  per workload (shared simulated clock), satisfying the accounting surface
  co-optimizers rely on (``num_queries``, ``eval_cost_s``, ``charge_clock``,
  ``area_mm2``; ``sample_sink`` and ``tracer`` reach every engine).
* :class:`MultiWorkloadTrial` — the job bundle: drop-in replacement for
  :class:`~repro.core.evaluation.SWSearchTrial` whose ``run(b)`` advances
  *every* workload's search by ``b`` evaluations (jobs execute in parallel
  in the deployment; the co-optimizer's makespan accounting covers this via
  the trial's total query count), and whose aggregate PPA sums latency and
  energy across workloads.

Use :func:`multi_workload_trial_factory` as the ``trial_factory`` of any
co-optimizer; the merged-network alternative (one search over concatenated
layers) remains available via
:func:`repro.workloads.network.merge_networks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.evaluation import make_search_tool
from repro.core.robustness import RobustnessResult, robustness_metric
from repro.costmodel.engine import PPAEngine
from repro.costmodel.results import NetworkPPA
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.errors import ConfigurationError
from repro.utils.clock import SimulatedClock
from repro.utils.rng import spawn_generators
from repro.workloads.network import Network, merge_networks


class MultiWorkloadEngine:
    """Composite accounting facade over one engine per workload."""

    def __init__(self, engines: Dict[str, PPAEngine]):
        if not engines:
            raise ConfigurationError("need at least one per-workload engine")
        self.engines = dict(engines)
        first = next(iter(self.engines.values()))
        self.clock: SimulatedClock = first.clock
        for engine in self.engines.values():
            engine.clock = self.clock  # one shared clock
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
    def charge_clock(self) -> bool:
        return next(iter(self.engines.values())).charge_clock

    @charge_clock.setter
    def charge_clock(self, value: bool) -> None:
        for engine in self.engines.values():
            engine.charge_clock = value

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
    ):
        self.hw = hw
        self.engine = engine
        names = sorted(engine.engines)
        rngs = spawn_generators(seed, len(names), name="multi-workload")
        queries_before = engine.num_queries
        self.searches = {
            name: make_search_tool(
                tool,
                engine.engines[name].network,
                hw,
                engine.engines[name],
                seed=rng,
            )
            for name, rng in zip(names, rngs)
        }
        self.queries_spent = engine.num_queries - queries_before

    # ------------------------------------------------------------------- runs
    def run(self, additional_budget: int) -> "MultiWorkloadTrial":
        """Advance every workload's job by ``additional_budget`` steps."""
        queries_before = self.engine.num_queries
        for search in self.searches.values():
            search.run(additional_budget)
        self.queries_spent += self.engine.num_queries - queries_before
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
        """Aggregate: latencies and energies add; power over the total run."""
        total_latency = 0.0
        total_energy = 0.0
        feasible = True
        for name, search in self.searches.items():
            ppa = search.best_ppa
            if not ppa.feasible:
                feasible = False
                break
            total_latency += ppa.latency_s
            total_energy += ppa.energy_j
        area = self.engine.area_mm2(self.hw)
        if not feasible or total_latency <= 0:
            return NetworkPPA(
                latency_s=float("inf"),
                energy_j=float("inf"),
                power_w=float("inf"),
                area_mm2=area,
                feasible=False,
            )
        leakage = DEFAULT_TECHNOLOGY.leakage_w_per_mm2 * area
        return NetworkPPA(
            latency_s=total_latency,
            energy_j=total_energy,
            power_w=total_energy / total_latency + leakage,
            area_mm2=area,
            feasible=True,
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
    engine_factory: Callable[[Network, SimulatedClock], PPAEngine],
    tool: str = "flextensor",
    clock: Optional[SimulatedClock] = None,
):
    """Build (engine, factory) for multi-workload co-optimization.

    Returns ``(MultiWorkloadEngine, trial_factory)`` ready to pass to a
    co-optimizer::

        engine, factory = multi_workload_trial_factory(
            nets, lambda net, clock: MaestroEngine(net, clock=clock))
        unico = Unico(space, engine.network, engine, config,
                      trial_factory=factory, ...)
    """
    if not networks:
        raise ConfigurationError("need at least one workload")
    shared_clock = clock if clock is not None else SimulatedClock()
    engines = {
        network.name: engine_factory(network, shared_clock)
        for network in networks
    }
    composite = MultiWorkloadEngine(engines)

    def factory(hw, seed_rng) -> MultiWorkloadTrial:
        return MultiWorkloadTrial(
            hw, composite, tool=tool, seed=seed_rng
        )

    return composite, factory
