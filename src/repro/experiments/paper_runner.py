"""One reproduction driver: every table and figure, each co-search once.

Each experiment is an :class:`~repro.experiments.harness.Experiment`: the
cells (:class:`~repro.experiments.harness.RunSpec`) its record is made
from, plus a reducer.  :func:`run_experiments` launches every distinct
cell once, however many experiments read it — Tables 1-2 are Fig. 7's
cells, and Fig. 10's HASCO and UNICO cells are Fig. 7a's — and hands each
reducer its results.  ``run_everything`` runs the registered experiments
at a preset and writes each record as JSON; the CLI exposes it as
``python -m repro reproduce``.

At the ``paper`` preset the eight experiments cost about 17 minutes of
wall time on a 2-vCPU box (the simulated Cost(h) they report is days);
``bench`` finishes in minutes and is what the benchmark suite wraps
piecewise.
"""

from __future__ import annotations

import json
import pathlib
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.experiments.fig7 import fig7_experiment
from repro.experiments.fig8 import fig8_experiment
from repro.experiments.fig9 import fig9_experiment
from repro.experiments.fig10 import fig10_experiment
from repro.experiments.fig11 import fig11_experiment
from repro.experiments.harness import Experiment, RunSpec, launch
from repro.experiments.presets import Preset, get_preset
from repro.experiments.tables import table_experiment
from repro.utils.records import RunRecord
from repro.workloads.network import Network
from repro.workloads.registry import TABLE12_NETWORKS

EXPERIMENTS: Dict[str, Callable[[Preset, int], Experiment]] = {
    "table1_edge": lambda preset, seed: table_experiment(
        "edge", TABLE12_NETWORKS, preset, seed
    ),
    "table2_cloud": lambda preset, seed: table_experiment(
        "cloud", TABLE12_NETWORKS, preset, seed
    ),
    "fig7a_edge": lambda preset, seed: fig7_experiment(
        "edge", TABLE12_NETWORKS, preset, seed
    ),
    "fig7b_cloud": lambda preset, seed: fig7_experiment(
        "cloud", TABLE12_NETWORKS, preset, seed
    ),
    "fig8": fig8_experiment,
    "fig9": fig9_experiment,
    "fig10": fig10_experiment,
    "fig11": fig11_experiment,
}


def cell_key(spec: RunSpec) -> Tuple[str, Optional[int]]:
    """What makes two cells one co-search: the canonical manifest.

    An in-memory :class:`Network` enters the manifest by name only, so
    two such networks that share a name stay two cells.
    """
    workload = spec.workload
    return (
        json.dumps(spec.to_manifest(), sort_keys=True),
        id(workload) if isinstance(workload, Network) else None,
    )


def run_experiments(
    experiments: Mapping[str, Experiment],
    progress: Optional[Callable[[str], None]] = None,
) -> Iterator[Tuple[str, RunRecord]]:
    """Yield ``(name, record)`` per experiment, in order.

    Each distinct cell is launched once, when the first experiment that
    reads it runs; later experiments reuse its result.
    """
    results: Dict = {}
    for name, experiment in experiments.items():
        keys = [cell_key(spec) for spec in experiment.cells]
        if progress:
            shared = sum(key in results for key in keys)
            progress(
                f"running {name}: {len(keys)} co-searches, {shared} shared "
                "with earlier experiments ..."
            )
        for key, spec in zip(keys, experiment.cells):
            if key not in results:
                results[key] = launch(spec)
        yield name, experiment.reduce([results[key] for key in keys])


def run_everything(
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
    results_dir: Optional[pathlib.Path] = None,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RunRecord:
    """Run every (or a subset of) experiment(s); returns a summary record.

    Parameters
    ----------
    only:
        Restrict to these experiment names (keys of :data:`EXPERIMENTS`).
    results_dir:
        When given, each experiment's record is written there as JSON.
    progress:
        Optional callback invoked with a status line per experiment.
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    selected: List[str] = list(only) if only else list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown}; available: {sorted(EXPERIMENTS)}"
        )
    summary = RunRecord("reproduction")
    summary.put("preset", preset_obj.name)
    summary.put("seed", seed)
    summary.put("experiments", selected)
    experiments = {name: EXPERIMENTS[name](preset_obj, seed) for name in selected}
    for name, record in run_experiments(experiments, progress):
        summary.children[name] = record
        if results_dir is not None:
            results_dir.mkdir(parents=True, exist_ok=True)
            (results_dir / f"{name}.json").write_text(record.to_json())
            if progress:
                progress(f"  wrote {results_dir / f'{name}.json'}")
    return summary
