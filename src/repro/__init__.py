"""UNICO: Unified Hardware-Software Co-Optimization for Robust Neural
Network Acceleration - a full reproduction (MICRO 2023).

Package map
-----------
* :mod:`repro.workloads`   - DNN workload definitions (19 networks).
* :mod:`repro.hw`          - hardware config types and design spaces
  (open-source spatial template; Ascend-like commercial core).
* :mod:`repro.mapping`     - SW mapping representation + anytime search
  tools (FlexTensor-like, GAMMA-like, depth-first fusion, random).
* :mod:`repro.costmodel`   - MAESTRO-like analytical PPA engine.
* :mod:`repro.camodel`     - Ascend-like cycle-accurate PPA engine.
* :mod:`repro.optim`       - GP/MOBO, ParEGO, SH/MSH, NSGA-II, hypervolume.
* :mod:`repro.core`        - UNICO (Algorithm 1), robustness metric R,
  high-fidelity update rule, baselines.
* :mod:`repro.tracking`    - persistent run store, search event journal,
  crash-safe resume (``repro runs`` CLI).
* :mod:`repro.experiments` - one harness per table/figure of the paper.

Quickstart
----------
>>> from repro.workloads.registry import get_network
>>> from repro.hw.spatial import edge_design_space, power_cap_for
>>> from repro.costmodel.engine import MaestroEngine
>>> from repro.core.unico import Unico, UnicoConfig
>>> network = get_network("resnet")
>>> unico = Unico(
...     edge_design_space(), network, MaestroEngine(network),
...     UnicoConfig(batch_size=8, max_iterations=3, max_budget=60),
...     power_cap_w=power_cap_for("edge"), seed=0,
... )
>>> result = unico.optimize()
>>> design = result.best_design()
"""

from repro.version import __version__

__all__ = ["__version__"]
