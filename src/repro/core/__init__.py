"""UNICO core: the paper's contribution.

* :class:`Unico` / :class:`UnicoConfig` — Algorithm 1 (MOBO + MSH +
  high-fidelity surrogate update + robustness objective),
* :mod:`repro.core.robustness` — the sensitivity metric R (Eq. 2),
* :mod:`repro.core.highfidelity` — the UUL update rule,
* :mod:`repro.core.baselines` — HASCO-like, NSGA-II, MOBOHB, random,
* :class:`CoSearchResult` — the uniform result type of every method.
"""

# the benchmark harness imports these through the package; nothing else does
from repro.core.unico import Unico, UnicoConfig

__all__ = ["Unico", "UnicoConfig"]
