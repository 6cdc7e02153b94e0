"""Cycle-accurate (Ascend-like) platform model.

* :class:`AscendMapping` / :class:`AscendMappingSpace` — the depth-first
  buffer-fusion mapping representation,
* :func:`simulate_layer` — the tile-pipeline cycle-level simulator,
* :class:`AscendCAEngine` — the expensive estimation service (minutes of
  modeled wall-clock per query, optional 8 +/- 3 % model-error channel).
"""
