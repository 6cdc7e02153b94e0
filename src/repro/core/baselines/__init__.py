"""Baseline co-optimizers UNICO is compared against (Section 4.2).

* :class:`HascoBaseline` — single-point BO, full SW budget per candidate
  ("ChampionUpdate without SH"),
* :class:`NSGA2Codesign` — evolutionary multi-objective co-search,
* :class:`MobohbBaseline` — multi-objective BOHB (Hyperband + model),
* :class:`RandomCodesign` — uniform-random sanity floor.
"""
