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
