"""UNICO — Algorithm 1: unified, robust HW-SW co-optimization.

One MOBO iteration:

1. **Sample** a batch of N hardware configurations from the surrogate-guided
   qParEGO sampler (random until enough high-fidelity data exists).
2. **Search** software mappings for the batch with modified successive
   halving: every candidate gets the first-round budget; survivors (top-k by
   terminal value plus top-p steep convergers by AUC) continue with doubled
   budget until ``b_max``.  Jobs within a round run in parallel on
   ``workers`` machines (simulated-clock makespan accounting).
3. **Assess** every batch member: ``Y = (latency, power, area, sensitivity)``
   where sensitivity is the robustness metric R of Section 3.4.
4. **Update** the surrogate training set through the high-fidelity UUL rule
   (or the champion rule, for ablations) and the PPA Pareto front.

Stopping: ``max_iterations`` MOBO trials or a simulated wall-clock budget,
whichever comes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.base import CoOptimizer, CoSearchResult
from repro.core.checkpoint import StateMarks, encode_state
from repro.core.evaluation import HWEvaluation, advance_lockstep
from repro.core.highfidelity import (
    DEFAULT_UUL_PERCENTILE,
    ChampionSelector,
    HighFidelitySelector,
)
from repro.errors import ConfigurationError
from repro.optim.hypervolume import hypervolume, reference_point_from
from repro.optim.mobo import MOBOSampler
from repro.optim.pareto import ObjectiveNormalizer
from repro.optim.sh import (
    plan_rounds,
    relative_auc_scores,
    select_survivors_soa,
    terminal_values,
)
from repro.tracking.tracker import IterationRecord

SURROGATE_UPDATES = ("high_fidelity", "champion")


@dataclass
class UnicoConfig:
    """Hyperparameters of Algorithm 1 (defaults follow the paper)."""

    batch_size: int = 30  # N
    max_iterations: int = 10  # MaxIter
    max_budget: int = 300  # b_max
    eta: float = 2.0
    keep_fraction: float = 0.5  # k = floor(0.5 N)
    auc_fraction: float = 0.15  # p = floor(0.15 N)
    use_msh: bool = True
    surrogate_update: str = "high_fidelity"
    include_robustness: bool = True
    uul_percentile: float = DEFAULT_UUL_PERCENTILE
    rho: float = 0.2
    robustness_alpha: float = 0.05
    pool_size: int = 256
    #: the parallel jobs of Section 3.5, in simulated time: the clock
    #: charges each MSH round the makespan of its trials on this many
    #: machines, which is what the Cost(h) columns report.  The real work
    #: of a round runs on one thread (DESIGN.md section 4m)
    workers: int = 1
    mobo_overhead_s: float = 5.0
    time_budget_s: Optional[float] = None
    min_observations: int = 8
    #: upper bound on the candidates of one PPA-engine call of the inner
    #: mapping search.  Same search and same Cost(h) at every value: only
    #: a tool whose proposals ignore results (``random``) drafts, a missed
    #: step bringing along exact drafts of up to ``eval_batch_size - 1``
    #: steps that follow, so what changes is how many engine calls it
    #: makes (DESIGN.md section 4b).  Distinct from ``batch_size``, the
    #: MOBO *hardware* batch N.
    eval_batch_size: int = 1
    #: warm-start configurations injected into the first batch (e.g. the
    #: expert default when tuning an existing industrial architecture)
    initial_configs: tuple = ()

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigurationError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.max_budget < 1:
            raise ConfigurationError("max_budget must be >= 1")
        if self.surrogate_update not in SURROGATE_UPDATES:
            raise ConfigurationError(
                f"surrogate_update must be one of {SURROGATE_UPDATES}, "
                f"got {self.surrogate_update!r}"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.eval_batch_size < 1:
            raise ConfigurationError(
                f"eval_batch_size must be >= 1, got {self.eval_batch_size}"
            )


class Unico(CoOptimizer):
    """The UNICO co-optimizer."""

    method_name = "unico"
    # optimize() drives run_start/iteration_*/run_end itself
    emits_lifecycle_events = True

    def __init__(self, space, network, engine, config: Optional[UnicoConfig] = None, **kwargs):
        config = config or UnicoConfig()
        super().__init__(
            space,
            network,
            engine,
            include_robustness=config.include_robustness,
            robustness_alpha=config.robustness_alpha,
            eval_batch_size=config.eval_batch_size,
            **kwargs,
        )
        self.config = config
        self.num_objectives = 4 if config.include_robustness else 3
        self.sampler = MOBOSampler(
            space,
            self.num_objectives,
            seed=self.seeds.generator("mobo"),
            rho=config.rho,
            pool_size=config.pool_size,
            min_observations=config.min_observations,
        )
        if config.surrogate_update == "high_fidelity":
            self.selector = HighFidelitySelector(
                num_objectives=self.num_objectives,
                rho=config.rho,
                percentile=config.uul_percentile,
            )
        else:
            self.selector = ChampionSelector(
                num_objectives=self.num_objectives, rho=config.rho
            )
        self.normalizer = ObjectiveNormalizer(self.num_objectives)
        self.train_configs: List = []
        self.train_objectives_raw: List[np.ndarray] = []
        self.iteration_records: List[IterationRecord] = []
        self.evaluations: List[HWEvaluation] = []
        #: iterations fully finished so far; ``optimize()`` starts here, so
        #: an optimizer folded from a journal continues rather than
        #: restarting (and the configured ``max_iterations`` is never mutated)
        self.completed_iterations = 0
        #: what the last ``iteration_state`` line covered
        self.state_marks = StateMarks()
        self._current_iteration = 0

    def commit_state(self) -> dict:
        """The ``iteration_state`` payload (:mod:`repro.core.checkpoint`)."""
        return encode_state(self)

    # ------------------------------------------------------------------ parts
    def _normalized_training_set(self) -> np.ndarray:
        if not self.train_objectives_raw:
            return np.zeros((0, self.num_objectives))
        return np.vstack(
            [self.normalizer.transform(y) for y in self.train_objectives_raw]
        )

    def _dispatch_round(self, round_args, round_span) -> List[int]:
        """Advance one MSH round's trials; fresh queries spent per trial.

        More than one trial is a lockstep (:func:`advance_lockstep`): the
        live trials share each engine call, counted on ``round_span`` as
        ``ticks``.  One trial has nobody to share with and runs whole.
        """
        before = [trial.queries_spent for trial, _extra in round_args]
        if len(round_args) > 1:
            round_span.set_attribute(
                "ticks", advance_lockstep(round_args, self.engine, self.tracer)
            )
        else:
            for trial, additional in round_args:
                if additional > 0:
                    trial.run(additional)
        return [
            trial.queries_spent - spent
            for (trial, _extra), spent in zip(round_args, before)
        ]

    def _run_msh(self, trials: List) -> None:
        """Modified successive halving with parallel clock accounting.

        A round's real work runs on this thread (:meth:`_dispatch_round`);
        the clock charges it as the makespan of its trials' query counts
        on ``workers`` machines.
        """
        config = self.config
        plans = plan_rounds(
            len(trials), config.max_budget, config.eta, config.keep_fraction
        )
        # structure-of-arrays bookkeeping: budget spent, init-cost charging,
        # and curve statistics are arrays indexed like `trials`, not dicts
        active = list(range(len(trials)))
        spent = np.zeros(len(trials), dtype=np.int64)
        init_charged = np.zeros(len(trials), dtype=bool)
        for plan_index, plan in enumerate(plans):
            # NullTracer.span is a shared no-op; sim time inside this span
            # is the round's advance_parallel makespan, so traces attribute
            # simulated search cost at MSH-round granularity.
            with self.tracer.span(
                "msh_round",
                round=plan_index,
                budget=plan.cumulative_budget,
                active=len(active),
            ) as round_span:
                additional = plan.cumulative_budget - spent[active]
                round_args = [
                    (trials[trial_id], int(extra))
                    for trial_id, extra in zip(active, additional)
                ]
                spent[active] = np.maximum(spent[active], plan.cumulative_budget)
                deltas = np.asarray(
                    self._dispatch_round(round_args, round_span),
                    dtype=np.int64,
                )
                total_queries = np.array(
                    [trials[trial_id].queries_spent for trial_id in active],
                    dtype=np.int64,
                )
                # first round charges initialization evals (queries spent
                # before the round) on top of the round's own delta
                duration_queries = np.where(
                    init_charged[active], deltas, total_queries
                )
                init_charged[active] = True
                self.clock.advance_parallel(
                    (duration_queries * self.engine.eval_cost_s).tolist(),
                    label="sw-search",
                )
                is_last = plan_index == len(plans) - 1
                if is_last and not self.tracker.enabled:
                    round_span.set_attribute("survivors", len(active))
                    break
                curves = [trials[trial_id].best_curve() for trial_id in active]
                tvs = terminal_values(curves)
                aucs = relative_auc_scores(curves)
                if is_last:
                    self.tracker.on_msh_round(
                        self,
                        self._current_iteration,
                        plan_index,
                        plan.cumulative_budget,
                        list(active),
                        dict(zip(active, tvs.tolist())),
                        dict(zip(active, aucs.tolist())),
                        list(active),
                        [],
                    )
                    round_span.set_attribute("survivors", len(active))
                    break
                keep = min(plans[plan_index + 1].num_candidates, len(active))
                promotions = 0
                if config.use_msh:
                    promotions = min(
                        int(np.floor(config.auc_fraction * len(trials))), keep
                    )
                survivors, promoted = select_survivors_soa(
                    active, tvs, aucs, keep, promotions
                )
                if self.tracker.enabled:
                    self.tracker.on_msh_round(
                        self,
                        self._current_iteration,
                        plan_index,
                        plan.cumulative_budget,
                        list(active),
                        dict(zip(active, tvs.tolist())),
                        dict(zip(active, aucs.tolist())),
                        list(survivors),
                        promoted,
                    )
                round_span.set_attribute("survivors", len(survivors))
                active = survivors

    # --------------------------------------------------------- search health
    def _search_health(self) -> dict:
        """The per-iteration ``search_health`` beacon payload.

        Hypervolume is measured against a reference point frozen at the
        first non-empty front, so the series is monotone non-decreasing
        within a run and a flat window genuinely means "no progress".  The
        reference and the counters travel in the ``iteration_state`` line,
        so a resumed run reports what the uninterrupted one does.
        Only assembled when a tracker is enabled; an untracked search
        pays nothing.
        """
        points = self.pareto.points
        hv = 0.0
        if len(points):
            reference = getattr(self, "_hv_reference", None)
            if reference is None:
                reference = reference_point_from(points)
                self._hv_reference = reference
            hv = float(hypervolume(points, reference))
        health = {
            "hypervolume": hv,
            "pareto_size": len(self.pareto),
            "engine_queries": self.restored_engine_queries
            + self.engine.num_queries,
            "evaluations": self.total_hw_evaluated,
            "time_s": float(self.clock.now_s),
        }
        screen_stats = getattr(self.engine, "screen_stats", None)
        if screen_stats is not None:
            stats = screen_stats()
            health["screening"] = {
                "candidates_seen": int(stats.get("candidates_seen", 0)),
                "forwarded": int(stats.get("forwarded", 0)),
                "escalated": int(stats.get("escalated", 0)),
            }
        return health

    # ----------------------------------------------------------------- driver
    def optimize(self) -> CoSearchResult:
        config = self.config
        self.clock.workers = config.workers
        # the sampler is built in __init__, before any set_tracer() call
        self.sampler.tracer = self.tracer
        self.tracker.on_run_start(self)
        # the run span must finish before tracker.on_run_end, which closes
        # the journal the JournalSpanSink writes into
        with self.tracer.span(
            "run", method=self.method_name, network=self.network.name
        ) as run_span:
            for iteration in range(
                self.completed_iterations, config.max_iterations
            ):
                if (
                    config.time_budget_s is not None
                    and self.clock.now_s >= config.time_budget_s
                ):
                    break
                self._current_iteration = iteration
                with self.tracer.span(
                    "iteration", iteration=iteration
                ) as iteration_span:
                    self.tracker.on_iteration_start(self, iteration)
                    # (1) batch sampling guided by the high-fidelity surrogate
                    incumbents = [design.hw for design in self.pareto.items]
                    with self.tracer.span(
                        "mobo_sample", train_size=len(self.train_configs)
                    ):
                        batch = self.sampler.suggest_batch(
                            self.train_configs,
                            self._normalized_training_set(),
                            config.batch_size,
                            incumbents=incumbents,
                        )
                        self.clock.advance(config.mobo_overhead_s, label="mobo")
                    if iteration == 0 and config.initial_configs:
                        seeds = list(config.initial_configs)[: len(batch)]
                        batch = seeds + batch[len(seeds):]
                    if not batch:
                        break
                    if self.tracker.enabled:
                        self.tracker.on_hw_sampled(self, iteration, batch)
                    # (2) adaptive SW mapping search via (M)SH
                    with self.tracer.span("trial_init", batch=len(batch)):
                        trials = [self.new_trial(hw) for hw in batch]
                    self._run_msh(trials)
                    # (3) assess every candidate
                    with self.tracer.span("assess", batch=len(trials)):
                        batch_evaluations = [
                            self.finish_candidate(
                                trial, batch_id=iteration, batch_size=len(trials)
                            )
                            for trial in trials
                        ]
                    self.evaluations.extend(batch_evaluations)
                    for evaluation in batch_evaluations:
                        self.normalizer.observe(evaluation.objectives)
                    # (4) high-fidelity surrogate update
                    with self.tracer.span("surrogate_update"):
                        normalized = np.vstack(
                            [
                                self.normalizer.transform(evaluation.objectives)
                                for evaluation in batch_evaluations
                            ]
                        )
                        uul_before = self.selector.uul
                        selected, scalars = self.selector.select(normalized)
                    if self.tracker.enabled:
                        self.tracker.on_surrogate_update(
                            self, iteration, scalars, selected, uul_before,
                            self.selector.uul,
                        )
                    for index in np.flatnonzero(selected):
                        self.train_configs.append(batch[index])
                        self.train_objectives_raw.append(
                            batch_evaluations[index].objectives
                        )
                    record = IterationRecord(
                        iteration=iteration,
                        time_s=self.clock.now_s,
                        uul=self.selector.uul,
                        num_selected=int(selected.sum()),
                        num_feasible=sum(
                            1
                            for evaluation in batch_evaluations
                            if evaluation.feasible
                        ),
                        pareto_size=len(self.pareto),
                        best_scalar=float(np.min(scalars[np.isfinite(scalars)]))
                        if np.isfinite(scalars).any()
                        else float("inf"),
                    )
                    self.iteration_records.append(record)
                    self.completed_iterations = iteration + 1
                    iteration_span.set_attribute("pareto_size", len(self.pareto))
                    self.tracker.on_iteration_end(self, record)
                    if self.tracker.enabled:
                        self.tracker.on_search_health(
                            self, iteration, self._search_health()
                        )
                # after the iteration's span, so that its line is in too
                self.tracker.on_iteration_committed(self)
            run_span.set_attribute("iterations", len(self.iteration_records))
            run_span.set_attribute("pareto_size", len(self.pareto))
        extras = {
            "iterations": len(self.iteration_records),
            "train_set_size": len(self.train_configs),
            "final_uul": self.selector.uul,
            "iteration_records": self.iteration_records,
        }
        # a learned screening wrapper reports how many analytical
        # evaluations it saved (and at what measured precision/recall)
        screen_stats = getattr(self.engine, "screen_stats", None)
        if screen_stats is not None:
            extras["screening"] = screen_stats()
        result = self.make_result(extras=extras)
        self.tracker.on_run_end(self, result)
        return result
