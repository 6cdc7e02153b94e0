"""Analytical PPA estimation (the MAESTRO-like prototyping-stage engine).

Public surface:

* :func:`~repro.costmodel.maestro.analyze_gemm` — the raw analytical
  model of one layer,
* :class:`~repro.costmodel.engine.PPAEngine` /
  :class:`~repro.costmodel.engine.MaestroEngine` — the estimation-service
  interface with caching and query counting used by every search
  algorithm in the library; ``PPAEngine.aggregate`` sums a network.

The answer types (:mod:`repro.ppa`) and the process constants
(:mod:`repro.hw.technology`) sit below this package, so the mapping
searches read them without importing a cost model.
"""
