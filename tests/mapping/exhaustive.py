"""Exhaustive per-layer mapping enumeration — the ground-truth oracle.

For small operators the full mapping space (tile grid x loop orders x
spatial x unroll) is enumerable; this module finds the true per-layer
optimum, which the test suite uses to measure the *regret* of the heuristic
search tools (how far FlexTensor/GAMMA land from optimal under a budget).

Not a co-optimization component — an evaluation instrument, so it lives
with the tests rather than under ``src/``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.costmodel.engine import PPAEngine
from repro.errors import MappingError
from repro.mapping.gemm_mapping import (
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
    GemmMapping,
    GemmMappingSpace,
    NetworkMapping,
)
from repro.ppa import LayerPPA


@dataclass(frozen=True)
class ExhaustiveResult:
    """The optimum of one layer's space plus enumeration statistics."""

    mapping: GemmMapping
    result: LayerPPA
    evaluated: int
    feasible_count: int


def enumerate_layer(
    engine: PPAEngine,
    hw,
    layer_name: str,
    objective: str = "latency",
    max_points: int = 200_000,
) -> ExhaustiveResult:
    """Evaluate every mapping of one layer; returns the optimum.

    Raises :class:`MappingError` when the space exceeds ``max_points``
    (use the heuristic tools there — that is the whole point of them).
    """
    shape, _count = engine.layer_shapes[layer_name]
    space = GemmMappingSpace(shape)
    if space.size > max_points:
        raise MappingError(
            f"layer {layer_name!r} space has {space.size} points "
            f"(> {max_points}); exhaustive enumeration refused"
        )
    best_mapping: Optional[GemmMapping] = None
    best_result: Optional[LayerPPA] = None
    best_score = float("inf")
    evaluated = 0
    feasible = 0
    for tm, tn, tk, order, spatial, unroll in itertools.product(
        space.tile_m_choices,
        space.tile_n_choices,
        space.tile_k_choices,
        LOOP_ORDERS,
        SPATIAL_CHOICES,
        UNROLL_CHOICES,
    ):
        mapping = GemmMapping(
            tile_m=tm,
            tile_n=tn,
            tile_k=tk,
            loop_order=order,
            spatial=spatial,
            unroll=unroll,
        )
        result = engine.evaluate_layer(hw, mapping, layer_name)
        evaluated += 1
        if not result.feasible:
            continue
        feasible += 1
        score = (
            result.latency_s
            if objective == "latency"
            else result.latency_s * result.energy_j
        )
        if score < best_score:
            best_score = score
            best_mapping = mapping
            best_result = result
    if best_mapping is None:
        raise MappingError(
            f"no feasible mapping exists for layer {layer_name!r} on this hardware"
        )
    return ExhaustiveResult(
        mapping=best_mapping,
        result=best_result,
        evaluated=evaluated,
        feasible_count=feasible,
    )


def optimal_network_mapping(
    engine: PPAEngine,
    hw,
    objective: str = "latency",
    max_points_per_layer: int = 200_000,
) -> Tuple[NetworkMapping, Dict[str, ExhaustiveResult]]:
    """Per-layer exhaustive optima for a whole (small) network."""
    mappings: NetworkMapping = {}
    details: Dict[str, ExhaustiveResult] = {}
    for layer_name in engine.layer_shapes:
        outcome = enumerate_layer(
            engine, hw, layer_name, objective, max_points_per_layer
        )
        mappings[layer_name] = outcome.mapping
        details[layer_name] = outcome
    return mappings, details
