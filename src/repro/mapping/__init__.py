"""Software mapping representation and search tools.

The inner level of the bi-level co-optimization: given a fixed hardware
configuration, find per-layer :class:`GemmMapping` schedules minimizing the
network objective.  All tools implement the anytime/resumable contract of
:class:`AnytimeMappingSearch` so successive halving can budget them in
rounds.

* :class:`FlexTensorSearch` — simulated annealing + adaptive layer credit
  (the open-source platform's default, as in the paper),
* :class:`GammaSearch` — genetic (mu + lambda) evolution,
* :class:`RandomMappingSearch` — control baseline,
* :class:`DepthFirstFusionSearch` (:mod:`repro.mapping.fusion`) — the
  Ascend-like platform's depth-first buffer-fusion tool.
"""

from repro.mapping.base import AnytimeMappingSearch, MappingSearchPoint
from repro.mapping.cosa import CosaMapper, construct_mapping
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.fusion import DepthFirstFusionSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.gemm_mapping import (
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
    GemmMapping,
    GemmMappingSpace,
    NetworkMapping,
)
from repro.mapping.random_search import RandomMappingSearch

__all__ = [
    "CosaMapper",
    "construct_mapping",
    "AnytimeMappingSearch",
    "MappingSearchPoint",
    "FlexTensorSearch",
    "GammaSearch",
    "RandomMappingSearch",
    "DepthFirstFusionSearch",
    "GemmMapping",
    "GemmMappingSpace",
    "NetworkMapping",
    "LOOP_ORDERS",
    "SPATIAL_CHOICES",
    "UNROLL_CHOICES",
]
