"""Hardware configuration types and design spaces.

Two platforms are modeled, matching the paper's evaluation:

* the open-source 2D **spatial accelerator** template of Fig. 1
  (:mod:`repro.hw.spatial`) with *edge* and *cloud* scenarios, and
* the commercial **Ascend-like** core (:mod:`repro.hw.ascend`).

Both are instances of the generic :class:`DiscreteDesignSpace`, which gives
search algorithms uniform sampling, mutation/crossover, and ordinal
encode/decode into ``[0, 1]^d`` for the GP surrogate.
:mod:`repro.hw.technology` holds the process constants every cost model
prices a configuration with.
"""
