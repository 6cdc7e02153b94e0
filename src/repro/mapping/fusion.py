"""Depth-first buffer-fusion SW mapping search (Ascend-like platform).

Section 4.1: "we use a depth-first buffer fusion search technique ... to
search for SW mapping configurations with respect to a given search budget".
The tool walks the network *in execution order* (depth-first through the
operator chain), locally refining each layer's tiles and proposing fusion
of adjacent layers:

* most steps greedily hill-climb the current layer's tile sizes,
* fusion moves set a layer's ``fuse_output`` together with the next layer's
  ``fuse_input`` so the pair stays consistent — the intermediate tile then
  lives in L1 and both DDR transfers are elided; a fusion that overflows
  the consumer's L1 budget is vetoed (producer reverted).

Unlike the GEMM tools this search is strictly greedy (no uphill moves):
fusion flags couple adjacent layers, and the greedy invariant
``incumbent == current`` keeps the reported best mapping a *consistent*
chain while preserving the monotone best-so-far curve MSH relies on.

Works over :class:`AscendMapping` / :class:`AscendMappingSpace`; plugs into
the same anytime/successive-halving machinery as the GEMM tools.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.costmodel.results import LayerPPA
from repro.mapping.ascend_mapping import AscendMapping, AscendMappingSpace
from repro.mapping.base import AnytimeMappingSearch

#: chance that a step proposes fusing a layer with its successor
FUSION_PROBABILITY = 0.2


class DepthFirstFusionSearch(AnytimeMappingSearch):
    """Depth-first tile refinement + adjacent-layer fusion proposals."""

    name = "fusion"

    def __init__(self, *args, **kwargs):
        self._cursor = 0
        self._pending_fusion_index: Optional[int] = None
        super().__init__(*args, **kwargs)
        self._current = dict(self.best_layer_mapping)
        self._current_score = {
            name: self._layer_score(self.best_layer_result[name])
            for name in self.layer_names
        }

    # --------------------------------------------------------------- overrides
    def _make_space(self, layer):
        return AscendMappingSpace(layer.to_gemm())

    def _seed_mapping(self, space):
        return space.seeded_mapping_for(self.hw)

    def _minimal_mapping(self, space):
        return AscendMapping(1, 1, 1)

    # ---------------------------------------------------------------- strategy
    def _propose(self) -> Tuple[str, AscendMapping]:
        # depth-first walk: advance the cursor through the operator chain
        layer_name = self.layer_names[self._cursor % len(self.layer_names)]
        self._cursor += 1
        space = self.spaces[layer_name]
        current = self._current[layer_name]
        index = self.layer_names.index(layer_name)
        self._pending_fusion_index = None
        can_fuse = index + 1 < len(self.layer_names) and not current.fuse_output
        if can_fuse and self.rng.random() < FUSION_PROBABILITY:
            candidate = dataclasses.replace(current, fuse_output=True)
            self._pending_fusion_index = index
            return layer_name, candidate
        candidate = space.mutate(current, self.rng)
        # fusion flags are owned by fusion moves: a plain tile mutation never
        # flips them (and the first layer has no producer to fuse with)
        candidate = dataclasses.replace(
            candidate,
            fuse_input=current.fuse_input,
            fuse_output=current.fuse_output,
        )
        return layer_name, candidate

    def _adopt(self, layer_name: str, mapping: AscendMapping, result: LayerPPA) -> None:
        """Greedy invariant: current and incumbent move together."""
        self._current[layer_name] = mapping
        self._current_score[layer_name] = (
            self._layer_score(result) if result.feasible else float("inf")
        )
        self._set_incumbent(layer_name, mapping, result)

    def _sync_next_layer(self, index: int) -> bool:
        """Fuse layer ``index + 1``'s input; returns False to veto."""
        next_name = self.layer_names[index + 1]
        next_mapping = self._current[next_name]
        if next_mapping.fuse_input:
            return True
        synced = dataclasses.replace(next_mapping, fuse_input=True)
        (result,) = self.engine.evaluate_layers(self.hw, [(synced, next_name)])
        if not result.feasible:
            return False
        self._adopt(next_name, synced, result)
        return True

    def _on_result(
        self, layer_name: str, mapping: AscendMapping, result: LayerPPA, improved: bool
    ) -> None:
        pending = self._pending_fusion_index
        self._pending_fusion_index = None
        current_score = self._current_score[layer_name]
        candidate_score = (
            self._layer_score(result) if result.feasible else float("inf")
        )
        better = np.isfinite(candidate_score) and (
            candidate_score <= current_score or not np.isfinite(current_score)
        )
        if not better:
            return
        if pending is not None:
            before_mapping = self._current[layer_name]
            before_result = self.best_layer_result[layer_name]
            self._adopt(layer_name, mapping, result)
            if not self._sync_next_layer(pending):
                # consumer cannot hold the fused tile: revert the producer
                self._adopt(layer_name, before_mapping, before_result)
            return
        self._adopt(layer_name, mapping, result)
