"""Uniform-random mapping search — the sanity baseline.

Each step samples a fresh random mapping for a random layer.  Used in tests
(any smarter tool must beat it) and as a budget-normalized control.
"""

from __future__ import annotations

from typing import Tuple

from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.gemm_mapping import GemmMapping


class RandomMappingSearch(AnytimeMappingSearch):
    """IID random sampling over per-layer mapping spaces."""

    name = "random"
    #: pure-RNG proposals: drafting touches nothing but the generator, and
    #: no fold steers the next proposal, so every draft is used
    proposals_ignore_results = True

    def _propose(self) -> Tuple[str, GemmMapping]:
        layer_name = self.layer_names[int(self.rng.integers(0, len(self.layer_names)))]
        return layer_name, self.spaces[layer_name].sample(self.rng)
