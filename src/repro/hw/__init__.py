"""Hardware configuration types and design spaces.

Two platforms are modeled, matching the paper's evaluation:

* the open-source 2D **spatial accelerator** template of Fig. 1
  (:mod:`repro.hw.spatial`) with *edge* and *cloud* scenarios, and
* the commercial **Ascend-like** core (:mod:`repro.hw.ascend`).

Both are instances of the generic :class:`DiscreteDesignSpace`, which gives
search algorithms uniform sampling, mutation/crossover, and ordinal
encode/decode into ``[0, 1]^d`` for the GP surrogate.
"""

from repro.hw.ascend import (
    ASCEND_AREA_CAP_MM2,
    AscendDesignSpace,
    AscendHWConfig,
    ascend_design_space,
    default_ascend_config,
)
from repro.hw.space import Dimension, DiscreteDesignSpace
from repro.hw.spatial import (
    CLOUD_POWER_CAP_W,
    DATAFLOWS,
    EDGE_POWER_CAP_W,
    SpatialDesignSpace,
    SpatialHWConfig,
    cloud_design_space,
    design_space_for,
    edge_design_space,
    power_cap_for,
)

__all__ = [
    "Dimension",
    "DiscreteDesignSpace",
    "SpatialHWConfig",
    "SpatialDesignSpace",
    "edge_design_space",
    "cloud_design_space",
    "design_space_for",
    "power_cap_for",
    "DATAFLOWS",
    "EDGE_POWER_CAP_W",
    "CLOUD_POWER_CAP_W",
    "AscendHWConfig",
    "AscendDesignSpace",
    "ascend_design_space",
    "default_ascend_config",
    "ASCEND_AREA_CAP_MM2",
]
