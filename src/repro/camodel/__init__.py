"""Cycle-accurate (Ascend-like) platform model.

* :func:`simulate_layer` — the tile-pipeline cycle-level simulator, whose
  one tile loop :func:`~repro.camodel.trace.trace_layer` also reads,
* :class:`AscendCAEngine` — the expensive estimation service (minutes of
  modeled wall-clock per query, optional 8 +/- 3 % model-error channel).
"""
