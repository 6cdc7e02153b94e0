"""UNICO core: the paper's contribution.

* :class:`Unico` / :class:`UnicoConfig` — Algorithm 1 (MOBO + MSH +
  high-fidelity surrogate update + robustness objective),
* :mod:`repro.core.robustness` — the sensitivity metric R (Eq. 2),
* :mod:`repro.core.highfidelity` — the UUL update rule,
* :mod:`repro.core.baselines` — HASCO-like, NSGA-II, MOBOHB, random,
* :class:`CoSearchResult` — the uniform result type of every method.
"""

from repro.core.base import CoOptimizer, CoSearchResult, HWDesign, TimelineEntry
from repro.core.baselines import (
    HascoBaseline,
    HascoConfig,
    MobohbBaseline,
    MobohbConfig,
    NSGA2Codesign,
    NSGA2CodesignConfig,
    RandomCodesign,
    RandomCodesignConfig,
)
from repro.core.evaluation import (
    SEARCH_TOOLS,
    HWEvaluation,
    SWSearchTrial,
    assemble_objectives,
    make_search_tool,
)
from repro.core.checkpoint import fold_journal
from repro.core.highfidelity import ChampionSelector, HighFidelitySelector
from repro.core.multiworkload import (
    MultiWorkloadEngine,
    MultiWorkloadTrial,
    multi_workload_trial_factory,
)
from repro.core.robustness import RobustnessResult, f_theta, robustness_metric
from repro.core.unico import IterationRecord, Unico, UnicoConfig

__all__ = [
    "fold_journal",
    "MultiWorkloadEngine",
    "MultiWorkloadTrial",
    "multi_workload_trial_factory",
    "CoOptimizer",
    "CoSearchResult",
    "HWDesign",
    "TimelineEntry",
    "HascoBaseline",
    "HascoConfig",
    "MobohbBaseline",
    "MobohbConfig",
    "NSGA2Codesign",
    "NSGA2CodesignConfig",
    "RandomCodesign",
    "RandomCodesignConfig",
    "SEARCH_TOOLS",
    "HWEvaluation",
    "SWSearchTrial",
    "assemble_objectives",
    "make_search_tool",
    "ChampionSelector",
    "HighFidelitySelector",
    "RobustnessResult",
    "f_theta",
    "robustness_metric",
    "IterationRecord",
    "Unico",
    "UnicoConfig",
]
