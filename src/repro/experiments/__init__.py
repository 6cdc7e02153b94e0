"""Experiment harness: one module per table/figure of the paper.

* :mod:`repro.experiments.tables` — Tables 1-2 (edge/cloud PPA + cost),
* :mod:`repro.experiments.fig7` — HV-difference vs wall-clock curves,
* :mod:`repro.experiments.fig8` — R-metric reliability on unseen DNNs,
* :mod:`repro.experiments.fig9` — generalization vs HASCO,
* :mod:`repro.experiments.fig10` — MSH / high-fidelity-update ablation,
* :mod:`repro.experiments.fig11` — Ascend-like industrial deployment.

Each builds an :class:`~repro.experiments.harness.Experiment` from a budget
preset (``smoke`` / ``bench`` / ``paper``) and a seed: the co-searches it
reads, as :class:`~repro.experiments.harness.RunSpec` cells, plus a reducer
to a JSON-serializable :class:`~repro.utils.records.RunRecord`.
:func:`~repro.experiments.paper_runner.run_experiments` runs them,
launching each distinct cell once.
"""

from repro.experiments.fig7 import FIG7_METHODS, fig7_experiment, speedup_to_reach
from repro.experiments.fig8 import fig8_experiment, select_comparable_pairs
from repro.experiments.fig9 import fig9_experiment
from repro.experiments.fig10 import FIG10_METHODS, fig10_experiment
from repro.experiments.fig11 import fig11_experiment
from repro.experiments.harness import (
    METHODS,
    build_optimizer,
    combined_reference,
    final_hypervolume,
    hv_difference_curve,
    ideal_front,
    make_platform,
    resolve_workload,
    run_method,
    sw_search_on,
    time_grid,
)
from repro.experiments.paper_runner import run_experiments
from repro.experiments.presets import Preset, get_preset
from repro.experiments.tables import TABLE_METHODS, table_cell, table_experiment

__all__ = [
    "FIG7_METHODS",
    "fig7_experiment",
    "speedup_to_reach",
    "fig8_experiment",
    "select_comparable_pairs",
    "fig9_experiment",
    "FIG10_METHODS",
    "fig10_experiment",
    "fig11_experiment",
    "METHODS",
    "combined_reference",
    "final_hypervolume",
    "hv_difference_curve",
    "ideal_front",
    "make_platform",
    "resolve_workload",
    "build_optimizer",
    "run_method",
    "sw_search_on",
    "time_grid",
    "Preset",
    "get_preset",
    "run_experiments",
    "TABLE_METHODS",
    "table_cell",
    "table_experiment",
]
