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
* ``best_mapping`` / ``best_ppa`` — incumbent full-network mapping and
  its PPA, composed from the incumbents' answers
  (:func:`~repro.ppa.compose_network_ppa`).

One budget unit = one candidate-mapping evaluation folded into the
history.  A search never pays twice for one answer: every result the
engine gives it — incumbent seeds, shrink steps, folded steps, drafts — is
kept in its answer store under ``(twin key, mapping.key())``, the twin key
naming the network's first layer of the same GEMM shape
(:attr:`~repro.workloads.network.Network.twin_keys`; the cost models read
only the shape).  A candidate proposed again, for its layer or a twin, is
folded from there, so the engine queries a search spends are exactly
the answers it stores (``num_answers``, what its trial is charged).  With
``batch_size > 1`` a tool whose proposals never read a result also
*buys* evaluations ahead of their step (``num_speculative_evals``), each
one a step will fold: same history, same queries at every width, fewer
engine calls.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from typing import TYPE_CHECKING

from repro.errors import SearchBudgetError
from repro.ppa import (
    SCREENED_REASON,
    LayerPPA,
    NetworkPPA,
    compose_network_ppa,
    network_power_w,
)

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


@dataclass(frozen=True, init=False)
class MappingSearchPoint:
    """One step of the search trace.

    ``trial_*`` describe the network state *if the just-proposed candidate
    were adopted* (the raw loss history the robustness metric samples);
    ``best_*`` describe the incumbent after the step (the monotone curve
    MSH's AUC integrates).  Every search step builds one, so the
    constructor is written out, like ``GemmMapping``'s; equality,
    hashing, ``repr`` and pickling are the dataclass's.
    """

    step: int
    trial_objective: float
    trial_latency_s: float
    trial_power_w: float
    best_objective: float
    best_latency_s: float
    best_power_w: float

    def __init__(
        self,
        step: int,
        trial_objective: float,
        trial_latency_s: float,
        trial_power_w: float,
        best_objective: float,
        best_latency_s: float,
        best_power_w: float,
    ) -> None:
        fields = self.__dict__  # frozen: the dataclass's __setattr__ raises
        fields["step"] = step
        fields["trial_objective"] = trial_objective
        fields["trial_latency_s"] = trial_latency_s
        fields["trial_power_w"] = trial_power_w
        fields["best_objective"] = best_objective
        fields["best_latency_s"] = best_latency_s
        fields["best_power_w"] = best_power_w


class AnytimeMappingSearch(ABC):
    """Base class: per-layer incumbent tracking + network-level accounting.

    Subclasses implement :meth:`_propose`, returning the next
    ``(layer_name, candidate_mapping)`` to evaluate, and may override
    :meth:`_on_result` to update internal strategy state.
    """

    #: human-readable tool name (reported in experiment records)
    name = "anytime"

    #: whether proposals never read a result: no fold can steer the next
    #: proposal, so drafts of the steps that follow are exact, and a miss
    #: carries drafts of the next ``min(batch_size - 1, remaining - 1)``
    #: steps.  Drafting must consume only RNG state.  Every other tool
    #: steps through one-item engine calls at every ``batch_size``: a
    #: draft it made could go unused, and an unused draft is a query
    #: bought for nothing.
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
        #: layer name -> twin key, the first layer of its GEMM shape
        self._twin_keys = network.twin_keys
        #: the search's answer store: every result the engine gave this
        #: search, ``(twin key, mapping.key()) -> result`` — seeds, shrink
        #: steps, drafts and folded steps.  A candidate found here, for
        #: its layer or a twin, is answered from here, so the search never
        #: asks twice; it lives and dies with the search.
        self._bought: Dict[Tuple[str, tuple], LayerPPA] = {}
        #: drafts bought that no step has proposed yet, keyed like the
        #: store; a step that proposes one (or its twin) pops it.  Unlike
        #: the store it also holds a screened draft's placeholder, folded
        #: once by its step.
        self._unused_drafts: Dict[Tuple[str, tuple], LayerPPA] = {}
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
        # network: the incumbents' PPA (dropped by :meth:`_set_incumbent`),
        # and the layer-pick weights with their CDF (entries of
        # ``_stale_weights`` layers are rewritten by the next pick; nan
        # until the first, so the first pick builds the CDF)
        self._ppa: Optional[NetworkPPA] = None
        self._layer_index = {name: i for i, name in enumerate(self.layer_names)}
        self._pick_weights = np.full(len(self.layer_names), np.nan)
        self._pick_cdf: Optional[np.ndarray] = None
        self._stale_weights = set(self.layer_names)
        self._area_mm2 = engine.area_mm2(hw)
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
            result = self._answer(layer_name, candidate)
            shrink_round += 1
        if not result.feasible:
            candidate = self._minimal_mapping(space)
            result = self._answer(layer_name, candidate)
        return candidate, result

    def _initialize_incumbents(self) -> None:
        """Seed every layer's incumbent with one batched engine pass.

        Every distinct seed — twins share theirs — travels once, all in
        a single ``evaluate_layers`` call; only layers whose seed came back
        infeasible pay the shrink fallback, answered from the store where
        a twin already paid it.
        """
        twin_keys = self._twin_keys
        seeds = [
            self._seed_mapping(self.spaces[layer_name])
            for layer_name in self.layer_names
        ]
        keys = [
            (twin_keys[layer_name], seed.key())
            for layer_name, seed in zip(self.layer_names, seeds)
        ]
        distinct: Dict[Tuple[str, tuple], Tuple[GemmMapping, str]] = {}
        for key, seed, layer_name in zip(keys, seeds, self.layer_names):
            distinct.setdefault(key, (seed, layer_name))
        results = self.engine.evaluate_layers(self.hw, list(distinct.values()))
        answers = dict(zip(distinct, results))
        for layer_name, seed, key in zip(self.layer_names, seeds, keys):
            result = answers[key]
            self._keep(key, result)
            self._set_incumbent(
                layer_name, *self._shrink_to_feasible(layer_name, seed, result)
            )

    # ----------------------------------------------------------- answer store
    def _keep(self, key: Tuple[str, tuple], result: LayerPPA) -> None:
        """Store one engine answer.

        A learned screen's placeholder is no answer: the screen may
        forward the same candidate later, so it is folded but not kept.
        """
        if result.infeasible_reason != SCREENED_REASON:
            self._bought[key] = result

    def _answer(self, layer_name: str, mapping: GemmMapping) -> LayerPPA:
        """One candidate's result outside the step loop: from the store,
        else a one-item engine call whose answer is kept."""
        key = (self._twin_keys[layer_name], mapping.key())
        result = self._bought.get(key)
        if result is None:
            (result,) = self.engine.evaluate_layers(self.hw, [(mapping, layer_name)])
            self._keep(key, result)
        return result

    def _set_incumbent(
        self, layer_name: str, mapping: GemmMapping, result: LayerPPA
    ) -> None:
        """The one place an incumbent is written: drops what is cached of it."""
        self.best_layer_mapping[layer_name] = mapping
        self.best_layer_result[layer_name] = result
        self._ppa = None
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
        its per-call validation.  The CDF lives until a weight changes.  A
        stale weight is recomputed, and the CDF rebuilt only if one came
        back different (a nan always does): the same weights make the same
        CDF, and most folds move no weight.  Returns ``None``, consuming no
        RNG, when the weights are non-finite or sum to zero: the caller
        takes its own fallback.
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
                # the ufuncs behind ``weights.sum()`` / ``.cumsum()``, called
                # without the method wrappers: the same sums, bit for bit
                total = np.add.reduce(weights)
                if 0.0 < total < np.inf:  # false for a nan / inf weight too
                    cdf = np.add.accumulate(weights / total)
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
    def _network_objective(self, latency: float) -> float:
        if not math.isfinite(latency):
            return _INFEASIBLE_OBJECTIVE
        return latency

    def _trial_totals(
        self, layer_name: str, result: LayerPPA
    ) -> Tuple[float, float]:
        """Network totals if ``layer_name`` adopted ``result``."""
        base = self.best_ppa
        if not base.feasible or not result.feasible:
            return (_INFEASIBLE_OBJECTIVE, _INFEASIBLE_OBJECTIVE)
        count = self.layer_counts[layer_name]
        incumbent = self.best_layer_result[layer_name]
        latency = base.latency_s + count * (result.latency_s - incumbent.latency_s)
        energy = base.energy_j + count * (result.energy_j - incumbent.energy_j)
        return latency, energy

    # ------------------------------------------------------------------- run
    def run(self, additional_budget: int) -> "AnytimeMappingSearch":
        """Consume ``additional_budget`` evaluations, extending the history."""
        if additional_budget < 0:
            raise SearchBudgetError(
                f"additional_budget must be >= 0, got {additional_budget}"
            )
        tracer = self.engine.tracer
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
        moves that state, so history, incumbents, final RNG state and
        (absent a learned screen) the answers bought are identical at
        every ``batch_size``.  Look-ahead decides only where a proposal's
        result comes from: a candidate this search was ever answered is
        folded from the answer store, a drafted one from its draft, with
        no request; a miss is a request carrying the candidate and, for a
        tool whose proposals ignore results, exact drafts of the steps
        that follow.  The last step of a run drafts nothing: whether the
        search is ever resumed is not its decision.  Answers are keyed by
        the layer's twin key, so a twin's answer serves.
        """
        bought = self._bought
        unused = self._unused_drafts
        twin_keys = self._twin_keys
        lookahead = self.batch_size > 1 and self.proposals_ignore_results
        for remaining in range(additional_budget, 0, -1):
            layer_name, candidate = self._propose()
            key = (twin_keys[layer_name], candidate.key())
            # pops the draft whatever the store holds (a result is truthy)
            result = unused.pop(key, None) or bought.get(key)
            if result is None:
                drafts = (
                    self._draft_ahead(key, min(self.batch_size - 1, remaining - 1))
                    if lookahead
                    else {}
                )
                results = iter((yield [(candidate, layer_name), *drafts.values()]))
                result = next(results)
                self._keep(key, result)
                for draft_key, draft_result in zip(drafts, results):
                    unused[draft_key] = draft_result
                    self._keep(draft_key, draft_result)
                self.num_speculative_evals += len(drafts)
            self._fold_result(layer_name, candidate, result)

    def _draft_ahead(
        self, key: Tuple[str, tuple], depth: int
    ) -> Dict[Tuple[str, tuple], Tuple[GemmMapping, str]]:
        """Draft the ``depth`` steps that follow the missed answer ``key``.

        Drafting consumes only RNG state and the snapshot is restored
        before the fold, so the steps that follow propose what was
        drafted.  Returns the drafts neither the answer store nor an
        unused draft holds, answer key -> ``(mapping, layer_name)`` in
        proposal order: they ride in the candidate's request.
        """
        bought, unused = self._bought, self._unused_drafts
        twin_keys = self._twin_keys
        bit_generator = self.rng.bit_generator
        rng_state = bit_generator.state
        drafts: Dict[Tuple[str, tuple], Tuple[GemmMapping, str]] = {}
        for _ in range(depth):
            draft_layer, draft = self._propose()
            draft_key = (twin_keys[draft_layer], draft.key())
            owned = draft_key in bought or draft_key in unused
            if draft_key != key and not owned:
                drafts[draft_key] = (draft, draft_layer)
        bit_generator.state = rng_state
        return drafts

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

        best = self.best_ppa
        self.spent_budget += 1
        self.history.append(
            MappingSearchPoint(
                step=self.spent_budget,
                trial_objective=trial_objective,
                trial_latency_s=trial_latency,
                trial_power_w=network_power_w(
                    trial_latency, trial_energy, self._area_mm2
                ),
                best_objective=self._network_objective(best.latency_s),
                best_latency_s=best.latency_s,
                best_power_w=best.power_w,
            )
        )

    def _layer_score(self, result: LayerPPA) -> float:
        return result.latency_s

    # ------------------------------------------------------------------ views
    @property
    def num_answers(self) -> int:
        """Engine answers this search holds: the queries it spent.

        Seeds, shrink steps, folded steps and drafts alike; a screened
        placeholder is no answer and not counted.  The number a
        co-optimizer charges the search's trial for.
        """
        return len(self._bought)

    @property
    def num_speculation_misses(self) -> int:
        """Drafts bought and not used yet: no step has proposed them."""
        return len(self._unused_drafts)

    @property
    def best_mapping(self) -> NetworkMapping:
        return dict(self.best_layer_mapping)

    @property
    def best_objective(self) -> float:
        if self.history:
            return self.history[-1].best_objective
        return self._network_objective(self.best_ppa.latency_s)

    @property
    def best_ppa(self) -> NetworkPPA:
        """The incumbent mapping's PPA, composed from the answers it holds.

        Composed again, summed left to right, only after an incumbent
        changed; a running delta would round differently from the sum it
        replaces.
        """
        if self._ppa is None:
            self._ppa = compose_network_ppa(
                self.layer_counts, self.best_layer_result, self._area_mm2
            )
        return self._ppa

    def best_curve(self) -> np.ndarray:
        """Monotone best-so-far objective values, one per step."""
        return np.array([point.best_objective for point in self.history])
