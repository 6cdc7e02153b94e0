"""Analytical PPA estimation (the MAESTRO-like prototyping-stage engine).

Public surface:

* :class:`Technology` / :data:`DEFAULT_TECHNOLOGY` — process constants,
* :func:`analyze_gemm` — the raw analytical model of one layer,
* :class:`PPAEngine` / :class:`MaestroEngine` — the estimation-service
  interface with caching and simulated-wall-clock charging used by every
  search algorithm in the library; ``PPAEngine.aggregate`` sums a network.
"""
