"""Shared co-optimizer machinery: result types and the common base class.

Every co-search method (UNICO, HASCO-like, NSGA-II, MOBOHB, random) emits a
:class:`CoSearchResult` with the same anatomy, so the experiment harness can
compare them uniformly:

* a PPA :class:`ParetoFront` over (latency, power, area) — the reporting
  space of Tables 1-2 and the hypervolume figures, regardless of whether a
  method optimized extra objectives internally,
* a **timeline** of completed hardware evaluations stamped with simulated
  wall-clock seconds — the raw material of the HV-vs-time curves,
* the selected representative design (min-Euclidean-distance rule).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.evaluation import HWEvaluation, SWSearchTrial, assemble_objectives
from repro.core.robustness import RobustnessResult
from repro.costmodel.engine import PPAEngine
from repro.hw.space import DiscreteDesignSpace
from repro.mapping.gemm_mapping import NetworkMapping
from repro.obs.trace import NULL_TRACER, Tracer
from repro.optim.pareto import ParetoFront
from repro.ppa import NetworkPPA
from repro.tracking.tracker import NullTracker, Tracker
from repro.utils.clock import SimulatedClock
from repro.utils.rng import SeedSequenceFactory
from repro.workloads.network import Network


@dataclass(frozen=True)
class HWDesign:
    """A completed hardware/software design point."""

    hw: object
    mapping: NetworkMapping
    ppa: NetworkPPA
    robustness: RobustnessResult

    @property
    def ppa_vector(self) -> np.ndarray:
        return np.array([self.ppa.latency_s, self.ppa.power_w, self.ppa.area_mm2])


@dataclass(frozen=True)
class TimelineEntry:
    """One completed HW evaluation, stamped with simulated wall-clock."""

    time_s: float
    ppa_vector: np.ndarray
    feasible: bool


@dataclass
class CoSearchResult:
    """Uniform outcome of any co-search method."""

    method: str
    network: str
    pareto: ParetoFront
    timeline: List[TimelineEntry] = field(default_factory=list)
    total_time_s: float = 0.0
    total_hw_evaluated: int = 0
    total_engine_queries: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def total_time_h(self) -> float:
        return self.total_time_s / 3600.0

    def best_design(self) -> Optional[HWDesign]:
        """Min-Euclidean-distance representative (Tables 1-2 rule)."""
        selection = self.pareto.min_euclidean()
        if selection is None:
            return None
        return selection[0]

    def feasible_timeline_points(self) -> np.ndarray:
        points = [e.ppa_vector for e in self.timeline if e.feasible]
        if not points:
            return np.zeros((0, 3))
        return np.vstack(points)


class CoOptimizer(ABC):
    """Base class: trial construction, recording, and the simulated clock.

    The optimizer owns its :class:`~repro.utils.clock.SimulatedClock`, the
    one keeper of simulated time: it charges ``engine.eval_cost_s`` per
    query its trials spent (``queries_spent``), as a makespan where jobs
    run in parallel, plus its own modeled overheads.  Engines only count.
    """

    method_name = "base"
    #: whether this optimizer's ``optimize()`` drives the tracker's
    #: run/iteration lifecycle hooks itself (run_start, iteration_*,
    #: run_end).  The harness emits run_start/run_end on behalf of
    #: optimizers that don't, so tracked baseline runs still reach a
    #: terminal manifest status.
    emits_lifecycle_events = False

    def __init__(
        self,
        space: DiscreteDesignSpace,
        network: Network,
        engine: PPAEngine,
        tool: str = "flextensor",
        power_cap_w: Optional[float] = None,
        area_cap_mm2: Optional[float] = None,
        include_robustness: bool = False,
        robustness_alpha: float = 0.05,
        seed: int = 0,
        trial_factory=None,
        tracker: Optional[Tracker] = None,
        eval_batch_size: int = 1,
    ):
        self.space = space
        self.network = network
        self.engine = engine
        self.clock = SimulatedClock()
        self.tool = tool
        self.power_cap_w = power_cap_w
        self.area_cap_mm2 = area_cap_mm2
        self.include_robustness = include_robustness
        self.robustness_alpha = robustness_alpha
        self.seeds = SeedSequenceFactory(seed)
        self.pareto: ParetoFront[HWDesign] = ParetoFront(num_objectives=3)
        self.timeline: List[TimelineEntry] = []
        self._trial_counter = 0
        self.total_hw_evaluated = 0
        #: engine queries made before a resume, in an earlier
        #: process lifetime; result totals add the live engine's count
        self.restored_engine_queries = 0
        self._trial_factory = trial_factory
        #: bound on the candidates per engine call handed to every SW
        #: search trial; 1 means no look-ahead, one one-item call per miss
        self.eval_batch_size = int(eval_batch_size)
        #: observer of search events (journaling, state lines); the
        #: default NullTracker keeps the untracked hot path free
        self.tracker: Tracker = tracker if tracker is not None else NullTracker()
        #: span tracer (time attribution); NULL_TRACER unless a traced run
        #: installs a real one via :meth:`set_tracer`
        self.tracer: Tracer = NULL_TRACER

    def set_tracer(self, tracer: Tracer) -> None:
        """Install a span tracer on this optimizer and its engine.

        Sub-components read the tracer through the engine (the one object
        every layer of the stack already shares), so installing it here is
        enough to light up engine-eval and mapping-search spans too.
        """
        self.tracer = tracer
        self.engine.tracer = tracer

    # --------------------------------------------------------------- plumbing
    def new_trial(self, hw) -> SWSearchTrial:
        """Create a fresh SW-mapping-search trial for ``hw``.

        A custom ``trial_factory(hw, seed_rng)`` (e.g. the multi-workload
        job bundle of Fig. 6a) takes precedence when supplied.
        """
        self._trial_counter += 1
        seed_rng = self.seeds.generator("sw-search", index=self._trial_counter)
        if self._trial_factory is not None:
            return self._trial_factory(hw, seed_rng)
        return SWSearchTrial(
            hw,
            self.network,
            self.engine,
            tool=self.tool,
            seed=seed_rng,
            batch_size=self.eval_batch_size,
        )

    def finish_candidate(
        self,
        trial: SWSearchTrial,
        batch_id: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> HWEvaluation:
        """Assemble Y, update the PPA Pareto front and the timeline."""
        evaluation = assemble_objectives(
            trial,
            include_robustness=self.include_robustness,
            power_cap_w=self.power_cap_w,
            area_cap_mm2=self.area_cap_mm2,
            robustness_alpha=self.robustness_alpha,
        )
        self.total_hw_evaluated += 1
        added = False
        if evaluation.feasible:
            design = HWDesign(
                hw=trial.hw,
                mapping=trial.search.best_mapping,
                ppa=evaluation.ppa,
                robustness=evaluation.robustness,
            )
            added = self.pareto.add(design, evaluation.ppa_vector)
        if self.tracker.enabled:
            self.tracker.on_evaluation(
                self, evaluation, added, batch_id=batch_id, batch_size=batch_size
            )
        self.timeline.append(
            TimelineEntry(
                time_s=self.clock.now_s,
                ppa_vector=evaluation.ppa_vector,
                feasible=evaluation.feasible,
            )
        )
        return evaluation

    def make_result(self, extras: Optional[dict] = None) -> CoSearchResult:
        return CoSearchResult(
            method=self.method_name,
            network=self.network.name,
            pareto=self.pareto,
            timeline=list(self.timeline),
            total_time_s=self.clock.now_s,
            total_hw_evaluated=self.total_hw_evaluated,
            total_engine_queries=self.restored_engine_queries
            + self.engine.num_queries,
            extras=dict(extras or {}),
        )

    # ----------------------------------------------------------------- driver
    @abstractmethod
    def optimize(self) -> CoSearchResult:
        """Run the co-search to completion."""
