"""Software mapping representation and search tools.

The inner level of the bi-level co-optimization: given a fixed hardware
configuration, find per-layer :class:`GemmMapping` (or, on the Ascend-like
platform, :class:`AscendMapping`) schedules minimizing the network
objective.  All tools implement the anytime/resumable contract of
:class:`AnytimeMappingSearch` so successive halving can budget them in
rounds.

* :class:`FlexTensorSearch` — simulated annealing + adaptive layer credit
  (the open-source platform's default, as in the paper),
* :class:`GammaSearch` — genetic (mu + lambda) evolution,
* :class:`RandomMappingSearch` — control baseline,
* :class:`DepthFirstFusionSearch` (:mod:`repro.mapping.fusion`) — the
  Ascend-like platform's depth-first buffer-fusion tool.
"""
