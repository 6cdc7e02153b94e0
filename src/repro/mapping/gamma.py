"""GAMMA-like genetic software mapping search.

GAMMA (Kao & Krishna, ICCAD'20) evolves mapping populations with crossover
and domain-aware mutation.  Here each layer keeps a small population of
mappings; every step evaluates one offspring of the layer whose turn it is
(round-robin weighted by latency share), then applies (mu + lambda)
elitist replacement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import LayerPPA

#: chance that an offspring is mutated after it is bred
MUTATION_RATE = 0.6
#: mappings kept per layer
POPULATION_SIZE = 6


class GammaSearch(AnytimeMappingSearch):
    """Per-layer (mu + lambda) genetic search over mappings."""

    name = "gamma"

    def __init__(self, *args, **kwargs):
        # population entries: (mapping, score); scores filled lazily
        self._population: Dict[str, List[Tuple[GemmMapping, float]]] = {}
        super().__init__(*args, **kwargs)
        for layer_name in self.layer_names:
            seed_mapping = self.best_layer_mapping[layer_name]
            seed_score = self._layer_score(self.best_layer_result[layer_name])
            space = self.spaces[layer_name]
            members: List[Tuple[GemmMapping, float]] = [(seed_mapping, seed_score)]
            while len(members) < POPULATION_SIZE:
                members.append((space.sample(self.rng), float("inf")))
            self._population[layer_name] = members
        self._round_robin = 0

    def _pick_layer(self) -> str:
        layer_name = self._pick_weighted_layer()
        if layer_name is None:  # degenerate weights: take turns
            self._round_robin = (self._round_robin + 1) % len(self.layer_names)
            layer_name = self.layer_names[self._round_robin]
        return layer_name

    def _propose(self) -> Tuple[str, GemmMapping]:
        layer_name = self._pick_layer()
        space = self.spaces[layer_name]
        members = self._population[layer_name]
        # tournament parent selection among scored members
        scored = [m for m in members if np.isfinite(m[1])]
        if len(scored) >= 2:
            picks = self.rng.choice(len(scored), size=2, replace=False)
            parent_a = min(
                (scored[int(p)] for p in picks), key=lambda pair: pair[1]
            )[0]
            parent_b = scored[int(self.rng.integers(0, len(scored)))][0]
            child = space.crossover(parent_a, parent_b, self.rng)
        else:
            child = members[int(self.rng.integers(0, len(members)))][0]
        if self.rng.random() < MUTATION_RATE:
            child = space.mutate(child, self.rng)
        return layer_name, child

    def _on_result(
        self, layer_name: str, mapping: GemmMapping, result: LayerPPA, improved: bool
    ) -> None:
        score = self._layer_score(result) if result.feasible else float("inf")
        members = self._population[layer_name]
        members.append((mapping, score))
        # elitist survival: keep the best population_size members
        members.sort(key=lambda pair: pair[1])
        del members[POPULATION_SIZE:]
