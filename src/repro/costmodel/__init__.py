"""Analytical PPA estimation (the MAESTRO-like prototyping-stage engine).

Public surface:

* :class:`Technology` / :data:`DEFAULT_TECHNOLOGY` — process constants,
* :func:`analyze_gemm` — the raw analytical model of one layer,
* :class:`PPAEngine` / :class:`MaestroEngine` — the estimation-service
  interface with caching and simulated-wall-clock charging used by every
  search algorithm in the library; ``PPAEngine.aggregate`` sums a network.
"""

from repro.costmodel.engine import (
    ANALYTICAL_EVAL_COST_S,
    DEFAULT_CACHE_CAPACITY,
    MaestroEngine,
    PPAEngine,
)
from repro.costmodel.maestro import analyze_gemm, spatial_area_mm2
from repro.costmodel.maestro_batch import analyze_gemm_batch
from repro.costmodel.results import LayerPPA, NetworkPPA
from repro.costmodel.technology import DEFAULT_TECHNOLOGY, Technology
from repro.costmodel.timeloop import TimeloopEngine, analyze_gemm_loopnest
from repro.costmodel.timeloop_batch import analyze_gemm_loopnest_batch

__all__ = [
    "TimeloopEngine",
    "analyze_gemm_loopnest",
    "analyze_gemm_loopnest_batch",
    "analyze_gemm_batch",
    "ANALYTICAL_EVAL_COST_S",
    "DEFAULT_CACHE_CAPACITY",
    "MaestroEngine",
    "PPAEngine",
    "LayerPPA",
    "NetworkPPA",
    "analyze_gemm",
    "spatial_area_mm2",
    "DEFAULT_TECHNOLOGY",
    "Technology",
]
