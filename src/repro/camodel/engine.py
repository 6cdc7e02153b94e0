"""Cycle-accurate PPA engine for the Ascend-like platform.

Implements the same estimation-service contract as the analytical
:class:`~repro.costmodel.engine.MaestroEngine`, but backed by the tile-
pipeline simulator — and correspondingly expensive: each layer query
charges minutes of modeled wall-clock (Section 4.1 quotes 2-10 minutes per
CA-model evaluation), which is what makes UNICO's evaluation frugality
matter on this platform.

An optional multiplicative noise channel reproduces the benchmarked
simulation error of "8 +/- 3 %": when enabled, every fresh (hw, layer,
mapping) query perturbs latency and energy by a deterministic pseudo-random
factor derived from the query key, so repeated queries stay consistent (a
simulator is deterministic) while different designs see different model
error.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.camodel.ascend_sim import ascend_area_mm2, simulate_layer
from repro.costmodel.engine import PPAEngine
from repro.hw.ascend import AscendHWConfig
from repro.mapping.ascend_mapping import AscendMapping
from repro.ppa import LayerPPA
from repro.workloads.layers import GemmShape
from repro.workloads.network import Network

#: modeled wall-clock per CA-model layer query (seconds) — a full-network
#: evaluation of a ~10-unique-layer workload lands in the paper's 2-10 min.
CAMODEL_EVAL_COST_S = 30.0

#: first element of the tuple the per-query model-error hash reads
NOISE_SEED = 0

#: the benchmarked "8 +/- 3 %" model error of every product Ascend engine
NOISE_FRACTION = 0.08


class AscendCAEngine(PPAEngine):
    """Cycle-accurate estimation service for the Ascend-like core."""

    def __init__(self, network: Network, noise_fraction: float = 0.0):
        super().__init__(network, eval_cost_s=CAMODEL_EVAL_COST_S)
        if noise_fraction < 0:
            raise ValueError(f"noise_fraction must be >= 0, got {noise_fraction}")
        self.noise_fraction = noise_fraction

    def _noise_factor(self, hw, mapping: AscendMapping, shape: GemmShape) -> float:
        """Deterministic per-query model-error factor around 1.0."""
        if self.noise_fraction <= 0:
            return 1.0
        digest = hashlib.sha256(
            repr((NOISE_SEED, self.hw_key(hw), mapping.key(), shape)).encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "little") / 2**64
        # triangular-ish spread in [-2, 2] sigma
        return 1.0 + self.noise_fraction * (2.0 * unit - 1.0)

    def _compute_layer(
        self, hw: AscendHWConfig, mapping: AscendMapping, shape: GemmShape
    ) -> LayerPPA:
        result = simulate_layer(hw, mapping, shape)
        if not result.feasible or self.noise_fraction <= 0:
            return result
        factor = self._noise_factor(hw, mapping, shape)
        return dataclasses.replace(
            result, latency_s=result.latency_s * factor, energy_j=result.energy_j * factor
        )

    def area_mm2(self, hw: AscendHWConfig) -> float:
        return ascend_area_mm2(hw)
