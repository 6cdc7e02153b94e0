"""Anytime software-mapping search framework.

UNICO treats the SW mapping tool as an *iterative, resumable* optimizer
(Section 2.1): given extra budget it keeps improving, and its best-so-far
objective — end-to-end network latency — is monotonically non-increasing.
:class:`AnytimeMappingSearch` encodes that contract so successive halving
can run a tool in rounds:

    search = FlexTensorSearch(network, hw, engine, seed=...)
    search.run(additional_budget=30)   # round 1
    search.run(additional_budget=60)   # promoted: round 2 continues in place

Bookkeeping exposed to UNICO:

* ``history`` — one :class:`MappingSearchPoint` per consumed budget unit,
  carrying the *trial* network objective (what the objective would be if the
  just-proposed candidate were adopted) and the *best* objective so far,
  plus latency/power of the best network mapping.  The trial series is what
  the robustness metric's 95%-right-tail rule operates on; the best series
  is what MSH's AUC uses.
* ``best_mapping`` / ``best_ppa`` — incumbent full-network mapping.

One budget unit = one candidate-mapping evaluation folded into the
history.  With ``batch_size > 1`` a speculation-safe tool may also *buy*
evaluations ahead of their step (``num_speculative_evals``; those never
used are ``num_speculation_misses``): same history at every width, fewer
engine calls, more engine queries.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from typing import TYPE_CHECKING

from repro.costmodel.results import LayerPPA, NetworkPPA
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.errors import SearchBudgetError
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.costmodel.engine import PPAEngine
from repro.mapping.gemm_mapping import (
    GemmMapping,
    GemmMappingSpace,
    NetworkMapping,
    shared_space,
)
from repro.utils.intmath import nearest_divisor
from repro.utils.rng import SeedLike, as_generator
from repro.workloads.network import Network

_INFEASIBLE_OBJECTIVE = float("inf")


@dataclass(frozen=True)
class MappingSearchPoint:
    """One step of the search trace.

    ``trial_*`` describe the network state *if the just-proposed candidate
    were adopted* (the raw loss history the robustness metric samples);
    ``best_*`` describe the incumbent after the step (the monotone curve
    MSH's AUC integrates).
    """

    step: int
    trial_objective: float
    trial_latency_s: float
    trial_power_w: float
    best_objective: float
    best_latency_s: float
    best_power_w: float


class AnytimeMappingSearch(ABC):
    """Base class: per-layer incumbent tracking + network-level accounting.

    Subclasses implement :meth:`_propose`, returning the next
    ``(layer_name, candidate_mapping)`` to evaluate, and may override
    :meth:`_on_result` to update internal strategy state.
    """

    #: human-readable tool name (reported in experiment records)
    name = "anytime"

    #: whether :meth:`_propose` is *speculation-safe*: drafting several
    #: proposals in a row without folding results in between must consume
    #: only RNG state and leave every piece of strategy state that
    #: :meth:`_propose` reads untouched.  Tools whose proposals pop queues
    #: or advance cursors (CoSA, the fusion search) must leave this False;
    #: they step through one-item engine calls at every ``batch_size``.
    supports_speculation = False

    #: whether proposals never read a result: no fold can steer the next
    #: proposal, every draft is used, and look-ahead always drafts the
    #: full ``batch_size - 1``.  Every other speculation-safe tool earns
    #: its depth from its own hit record (:meth:`_lookahead_depth`).
    proposals_ignore_results = False

    def __init__(
        self,
        network: Network,
        hw,
        engine: "PPAEngine",
        seed: SeedLike = None,
        batch_size: int = 1,
    ):
        if batch_size < 1:
            raise SearchBudgetError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.network = network
        self.hw = hw
        self.engine = engine
        #: upper bound on the candidates of one engine call
        self.batch_size = int(batch_size)
        #: drafts bought: candidates evaluated ahead of their step
        self.num_speculative_evals = 0
        #: evaluations bought and not used yet, ``(layer, mapping.key()) ->
        #: result``; a step that proposes one pops it.  Survives batches
        #: and rounds: what was paid for is kept.
        self._bought: Dict[Tuple[str, tuple], LayerPPA] = {}
        #: one-step-ahead drafts made / of those, the ones the next step
        #: proposed — the hit record :meth:`_lookahead_depth` reads
        self._drafts_made = 0
        self._drafts_used = 0
        self.rng = as_generator(seed)
        self.spaces: Dict[str, GemmMappingSpace] = {
            layer.name: self._make_space(layer) for layer in network.layers
        }
        self.layer_counts: Dict[str, int] = {
            layer.name: layer.count for layer in network.layers
        }
        self.layer_names: List[str] = [layer.name for layer in network.layers]
        self.best_layer_mapping: Dict[str, GemmMapping] = {}
        self.best_layer_result: Dict[str, LayerPPA] = {}
        self.history: List[MappingSearchPoint] = []
        self.spent_budget = 0
        # per-step caches, so one propose -> fold step does not walk the
        # network: incumbent totals (dropped by :meth:`_set_incumbent`),
        # and the layer-pick weights with their CDF (entries of
        # ``_stale_weights`` layers are rewritten by the next pick; nan
        # until the first, so the first pick builds the CDF)
        self._totals: Optional[Tuple[float, float]] = None
        self._layer_index = {name: i for i, name in enumerate(self.layer_names)}
        self._pick_weights = np.full(len(self.layer_names), np.nan)
        self._pick_cdf: Optional[np.ndarray] = None
        self._stale_weights = set(self.layer_names)
        self._leakage_w = DEFAULT_TECHNOLOGY.leakage_w_per_mm2 * engine.area_mm2(hw)
        self._initialize_incumbents()

    # ------------------------------------------------------------------ setup
    def _make_space(self, layer):
        """Mapping-space factory: the shape's shared space.  Platforms with
        different mapping types (e.g. the Ascend-like fusion space)
        override this."""
        return shared_space(layer.to_gemm())

    def _seed_mapping(self, space) -> GemmMapping:
        """Heuristic starting point for one layer on ``self.hw``."""
        return space.seeded_mapping_for(self.hw)

    def _minimal_mapping(self, space) -> GemmMapping:
        """Smallest-footprint mapping, used as the last-resort seed."""
        return GemmMapping(1, 1, 1)

    def _shrink_to_feasible(
        self, layer_name: str, candidate: GemmMapping, result: LayerPPA
    ) -> Tuple[GemmMapping, LayerPPA]:
        """Halve tiles until ``candidate`` fits; last resort is minimal."""
        space = self.spaces[layer_name]
        shrink_round = 0
        while not result.feasible and shrink_round < 24:
            tm, tn, tk = candidate.tiles()
            if tk > 1:
                tk = max(1, tk // 2)
            elif tn > 1:
                tn = max(1, tn // 2)
            else:
                tm = max(1, tm // 2)
            candidate = candidate.with_tiles(
                nearest_divisor(space.shape.m, tm),
                nearest_divisor(space.shape.n, tn),
                nearest_divisor(space.shape.k, tk),
            )
            (result,) = self.engine.evaluate_layers(self.hw, [(candidate, layer_name)])
            shrink_round += 1
        if not result.feasible:
            candidate = self._minimal_mapping(space)
            (result,) = self.engine.evaluate_layers(self.hw, [(candidate, layer_name)])
        return candidate, result

    def _initialize_incumbents(self) -> None:
        """Seed every layer's incumbent with one batched engine pass.

        All layers' heuristic seed mappings travel in a single
        ``evaluate_layers`` call (item-for-item query accounting, so
        totals match the per-layer loop it replaces); only layers whose
        seed came back infeasible pay the one-item shrink fallback.
        """
        seeds = [
            self._seed_mapping(self.spaces[layer_name])
            for layer_name in self.layer_names
        ]
        results = self.engine.evaluate_layers(
            self.hw, list(zip(seeds, self.layer_names))
        )
        for layer_name, seed, result in zip(self.layer_names, seeds, results):
            self._set_incumbent(
                layer_name, *self._shrink_to_feasible(layer_name, seed, result)
            )

    def _set_incumbent(
        self, layer_name: str, mapping: GemmMapping, result: LayerPPA
    ) -> None:
        """The one place an incumbent is written: drops what is cached of it."""
        self.best_layer_mapping[layer_name] = mapping
        self.best_layer_result[layer_name] = result
        self._totals = None
        self._stale_weights.add(layer_name)

    # --------------------------------------------------------------- strategy
    @abstractmethod
    def _propose(self) -> Tuple[str, GemmMapping]:
        """Return the next (layer, candidate mapping) to evaluate."""

    def _on_result(
        self, layer_name: str, mapping: GemmMapping, result: LayerPPA, improved: bool
    ) -> None:
        """Hook for strategy state updates (acceptance, populations, ...)."""

    def _layer_weight(self, layer_name: str) -> float:
        """Unnormalised pick weight: the layer's incumbent latency share.

        A tool that folds state of its own into the weight adds the layer
        to ``_stale_weights`` whenever that state changes.
        """
        return self.layer_counts[layer_name] * max(
            self.best_layer_result[layer_name].latency_s, 1e-12
        )

    def _pick_weighted_layer(self) -> Optional[str]:
        """Draw a layer with probability proportional to its weight.

        Index and RNG consumption are those of ``rng.choice(n, p=w /
        w.sum())`` — the same CDF, one uniform, ``searchsorted`` — without
        its per-call validation.  The CDF lives until a weight changes, so
        the drafts of a speculative batch share one.  A stale weight is
        recomputed, and the CDF rebuilt only if one came back different
        (a nan always does): the same weights make the same CDF, and most
        folds move no weight.  Returns ``None``, consuming no RNG, when the
        weights are non-finite or sum to zero: the caller takes its own
        fallback.
        """
        stale = self._stale_weights
        if stale:
            weights = self._pick_weights
            moved = False
            for layer_name in stale:
                index = self._layer_index[layer_name]
                weight = self._layer_weight(layer_name)
                if weight != weights[index]:
                    weights[index] = weight
                    moved = True
            stale.clear()
            if moved:
                total = weights.sum()
                if 0.0 < total < np.inf:  # false for a nan / inf weight too
                    cdf = (weights / total).cumsum()
                    cdf /= cdf[-1]
                    self._pick_cdf = cdf
                else:
                    self._pick_cdf = None
        if self._pick_cdf is None:
            return None
        return self.layer_names[
            int(self._pick_cdf.searchsorted(self.rng.random(), side="right"))
        ]

    # -------------------------------------------------------------- accounting
    def _network_totals(self) -> Tuple[float, float]:
        """(total latency s, total energy J) of the incumbent mapping.

        Re-summed left to right only after an incumbent changed; a running
        delta would round differently from the sum it replaces.
        """
        if self._totals is None:
            self._totals = self._sum_incumbents()
        return self._totals

    def _sum_incumbents(self) -> Tuple[float, float]:
        latency = 0.0
        energy = 0.0
        for layer_name in self.layer_names:
            result = self.best_layer_result[layer_name]
            if not result.feasible:
                return (_INFEASIBLE_OBJECTIVE, _INFEASIBLE_OBJECTIVE)
            count = self.layer_counts[layer_name]
            latency += count * result.latency_s
            energy += count * result.energy_j
        return latency, energy

    def _network_objective(self, latency: float) -> float:
        if not math.isfinite(latency):
            return _INFEASIBLE_OBJECTIVE
        return latency

    def _network_power(self, latency: float, energy: float) -> float:
        if not math.isfinite(latency) or latency <= 0:
            return _INFEASIBLE_OBJECTIVE
        return energy / latency + self._leakage_w

    def _trial_totals(
        self, layer_name: str, result: LayerPPA
    ) -> Tuple[float, float]:
        """Network totals if ``layer_name`` adopted ``result``."""
        base_latency, base_energy = self._network_totals()
        if not math.isfinite(base_latency) or not result.feasible:
            return (_INFEASIBLE_OBJECTIVE, _INFEASIBLE_OBJECTIVE)
        count = self.layer_counts[layer_name]
        incumbent = self.best_layer_result[layer_name]
        latency = base_latency + count * (result.latency_s - incumbent.latency_s)
        energy = base_energy + count * (result.energy_j - incumbent.energy_j)
        return latency, energy

    # ------------------------------------------------------------------- run
    def run(self, additional_budget: int) -> "AnytimeMappingSearch":
        """Consume ``additional_budget`` evaluations, extending the history."""
        if additional_budget < 0:
            raise SearchBudgetError(
                f"additional_budget must be >= 0, got {additional_budget}"
            )
        # duck-typed engines (tests) may lack ``tracer``; default to the null one
        tracer = getattr(self.engine, "tracer", NULL_TRACER)
        if tracer.enabled:
            with tracer.span(
                "mapping_search", tool=self.name, budget=additional_budget
            ) as span:
                self._run_alone(additional_budget, tracer)
                for key, value in self.span_attributes().items():
                    span.set_attribute(key, value)
            return self
        return self._run_alone(additional_budget, tracer)

    def span_attributes(self) -> Dict[str, int]:
        """What a finished ``mapping_search`` span says about the search."""
        return {
            "spent_budget": self.spent_budget,
            "speculative_evals": self.num_speculative_evals,
            "unused_drafts": self.num_speculation_misses,
        }

    def _run_alone(self, additional_budget: int, tracer) -> "AnytimeMappingSearch":
        """Drive :meth:`steps` against this search's own engine.

        Every request is one ``evaluate_layers`` call.
        """
        engine, hw = self.engine, self.hw
        steps = self.steps(additional_budget)
        results = None
        try:
            while True:
                items = steps.send(results)
                if tracer.enabled and len(items) > 1:
                    with tracer.span("speculative_batch", drafts=len(items) - 1):
                        results = engine.evaluate_layers(hw, items)
                else:
                    results = engine.evaluate_layers(hw, items)
        except StopIteration:
            return self
        finally:
            steps.close()  # a raising engine call leaves it suspended

    def steps(self, additional_budget: int):
        """The step loop, as a generator of engine requests.

        Yields each engine request the search makes — a list of
        ``(mapping, layer_name)`` on ``self.hw`` — and is sent the list of
        results; :meth:`run` answers from this search's own engine, a
        lockstep MSH round (``Unico._dispatch_round``) answers the
        requests of all its live trials with one engine call.  Whoever
        drives it, the loop is this one: propose, obtain the result, fold.

        Every step proposes from the *true* state and only what it folds
        moves that state, so history, incumbents and final RNG state are
        byte-identical at every ``batch_size``.  Look-ahead decides only
        where a proposal's result comes from: the pool of evaluations this
        search already bought; on a miss, a request that carries the
        candidate together with drafts of the steps that follow; or, on a
        miss while drafted steps are still ahead (one was mispredicted,
        the rest may yet be used), a request for the candidate alone.
        The last step of a run drafts nothing: whether the search is ever
        resumed is not its decision.
        """
        bought = self._bought
        lookahead = self.batch_size > 1 and self.supports_speculation
        ahead = 0  # drafted steps not yet reached
        next_draft = None  # what the one-step-ahead draft expects next
        for remaining in range(additional_budget, 0, -1):
            layer_name, candidate = self._propose()
            result = None
            if lookahead:
                key = (layer_name, candidate.key())
                if next_draft is not None:
                    if key == next_draft:
                        self._drafts_used += 1
                    next_draft = None
                result = bought.pop(key, None)
                if ahead:
                    ahead -= 1
                if result is None and not ahead and remaining > 1:
                    ahead = min(self._lookahead_depth(), remaining - 1)
                    drafts, next_draft = self._draft_ahead(key, ahead)
                    results = iter(
                        (yield [(candidate, layer_name), *drafts.values()])
                    )
                    result = next(results)
                    bought.update(zip(drafts, results))
                    self.num_speculative_evals += len(drafts)
            if result is None:
                (result,) = yield [(candidate, layer_name)]
            self._fold_result(layer_name, candidate, result)

    def _lookahead_depth(self) -> int:
        """How many steps ahead a look-ahead call drafts.

        A draft ``k`` steps ahead is used only if ``k`` folds in a row
        leave the proposal stream where the draft assumed it: probability
        ``p ** k``.  Drafting stops where a draft becomes more likely
        wasted than used, ``p ** k < 1/2``, with ``p`` estimated from this
        search's own one-step-ahead drafts (Laplace-smoothed, so a search
        starts at depth 1) — a function of the search's history alone, so
        query counts are the same on every route.
        """
        cap = self.batch_size - 1
        if self.proposals_ignore_results:
            return cap
        p_hat = (self._drafts_used + 1) / (self._drafts_made + 2)
        return max(1, min(cap, int(math.log(0.5) / math.log(p_hat))))

    def _draft_ahead(
        self, key: Tuple[str, tuple], depth: int
    ) -> Tuple[Dict[Tuple[str, tuple], Tuple[GemmMapping, str]], Tuple[str, tuple]]:
        """Draft the ``depth`` steps that follow the missed candidate ``key``.

        Drafting consumes only RNG state (the speculation-safety contract)
        and the snapshot is restored before the fold, so the steps that
        follow propose as if nothing had been drafted.  Returns the drafts
        this search does not own yet, ``key -> (mapping, layer_name)`` in
        proposal order — they ride in the candidate's request — and the
        key of the one-step-ahead draft.
        """
        bought = self._bought
        bit_generator = self.rng.bit_generator
        rng_state = bit_generator.state
        drafts: Dict[Tuple[str, tuple], Tuple[GemmMapping, str]] = {}
        next_draft = None
        for _ in range(depth):
            draft_layer, draft = self._propose()
            draft_key = (draft_layer, draft.key())
            if next_draft is None:
                next_draft = draft_key
            if draft_key != key and draft_key not in bought:
                drafts[draft_key] = (draft, draft_layer)
        bit_generator.state = rng_state
        self._drafts_made += 1
        return drafts, next_draft

    def _fold_result(
        self, layer_name: str, candidate: GemmMapping, result: LayerPPA
    ) -> None:
        """Fold one evaluated candidate into incumbents + history."""
        trial_latency, trial_energy = self._trial_totals(layer_name, result)
        trial_objective = self._network_objective(trial_latency)

        improved = False
        incumbent = self.best_layer_result[layer_name]
        if result.feasible:
            better_layer = (
                not incumbent.feasible
                or self._layer_score(result) < self._layer_score(incumbent)
            )
            if better_layer:
                self._set_incumbent(layer_name, candidate, result)
                improved = True
        self._on_result(layer_name, candidate, result, improved)

        best_latency, best_energy = self._network_totals()
        self.spent_budget += 1
        self.history.append(
            MappingSearchPoint(
                step=self.spent_budget,
                trial_objective=trial_objective,
                trial_latency_s=trial_latency,
                trial_power_w=self._network_power(trial_latency, trial_energy),
                best_objective=self._network_objective(best_latency),
                best_latency_s=best_latency,
                best_power_w=self._network_power(best_latency, best_energy),
            )
        )

    def _layer_score(self, result: LayerPPA) -> float:
        return result.latency_s

    # ------------------------------------------------------------------ views
    @property
    def num_speculation_misses(self) -> int:
        """Drafts bought and never used (so far): what is left in the pool."""
        return len(self._bought)

    @property
    def best_mapping(self) -> NetworkMapping:
        return dict(self.best_layer_mapping)

    @property
    def best_objective(self) -> float:
        if self.history:
            return self.history[-1].best_objective
        latency, _energy = self._network_totals()
        return self._network_objective(latency)

    @property
    def best_ppa(self) -> NetworkPPA:
        return self.engine.aggregate(self.hw, self.best_mapping)

    def best_curve(self) -> np.ndarray:
        """Monotone best-so-far objective values, one per step."""
        return np.array([point.best_objective for point in self.history])
