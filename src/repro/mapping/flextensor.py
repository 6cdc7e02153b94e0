"""FlexTensor-like software mapping search.

FlexTensor (Zheng et al., ASPLOS'20) explores schedule spaces with a learned
policy over local rewrite actions.  This reproduction keeps its observable
behaviour — an anytime, budget-driven local search with exploration decay —
using simulated annealing over mapping mutations combined with an
epsilon-greedy layer-selection policy weighted by each layer's share of the
current network objective (a Q-learning-flavoured credit assignment: layers
that recently yielded improvements are revisited more often).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import LayerPPA

#: the annealing temperature at the first step, and its decay per step
INITIAL_TEMPERATURE = 0.30
COOLING = 0.997
#: chance that a step picks its layer uniformly instead of by weight
EPSILON = 0.15


class FlexTensorSearch(AnytimeMappingSearch):
    """Simulated-annealing mapping search with adaptive layer credit."""

    name = "flextensor"

    def __init__(self, *args, **kwargs):
        self._temperature = INITIAL_TEMPERATURE
        self._credit: Dict[str, float] = {}
        self._current: Dict[str, GemmMapping] = {}
        self._current_score: Dict[str, float] = {}
        super().__init__(*args, **kwargs)
        for layer_name in self.layer_names:
            self._credit[layer_name] = 1.0
            self._current[layer_name] = self.best_layer_mapping[layer_name]
            self._current_score[layer_name] = self._layer_score(
                self.best_layer_result[layer_name]
            )

    def _layer_weight(self, layer_name: str) -> float:
        # latency share x credit: optimize where time is spent and where
        # moves have recently paid off
        return super()._layer_weight(layer_name) * self._credit[layer_name]

    def _pick_layer(self) -> str:
        layer_name = None
        if self.rng.random() >= EPSILON:
            layer_name = self._pick_weighted_layer()
        if layer_name is None:  # exploration, or degenerate weights
            layer_name = self.layer_names[
                int(self.rng.integers(0, len(self.layer_names)))
            ]
        return layer_name

    def _propose(self) -> Tuple[str, GemmMapping]:
        layer_name = self._pick_layer()
        candidate = self.spaces[layer_name].mutate(self._current[layer_name], self.rng)
        return layer_name, candidate

    def _on_result(
        self, layer_name: str, mapping: GemmMapping, result: LayerPPA, improved: bool
    ) -> None:
        current_score = self._current_score[layer_name]
        candidate_score = self._layer_score(result) if result.feasible else float("inf")

        accept = False
        if math.isfinite(candidate_score):
            if candidate_score <= current_score or not math.isfinite(current_score):
                accept = True
            else:
                # Metropolis rule on relative regression.
                relative = (candidate_score - current_score) / max(
                    current_score, 1e-12
                )
                accept = self.rng.random() < np.exp(-relative / max(
                    self._temperature, 1e-6
                ))
        if accept:
            self._current[layer_name] = mapping
            self._current_score[layer_name] = candidate_score

        # credit assignment: improvements raise a layer's revisit probability
        decay = 0.9
        reward = 1.0 if improved else 0.0
        self._credit[layer_name] = decay * self._credit[layer_name] + (
            1 - decay
        ) * (1.0 + 4.0 * reward)
        self._stale_weights.add(layer_name)
        self._temperature *= COOLING
