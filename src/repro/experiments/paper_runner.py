"""One-shot reproduction driver: every table and figure in sequence.

``run_everything`` executes the full evaluation of Section 4 at a chosen
preset, writes each record as JSON into a results directory, and returns a
summary record.  The CLI exposes it as ``python -m repro reproduce``.

At the ``paper`` preset the eight experiments cost about 17 minutes of
wall time on a 2-vCPU box (the simulated Cost(h) they report is days);
``bench`` finishes in minutes and is what the benchmark suite wraps
piecewise.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.presets import Preset, get_preset
from repro.experiments.tables import run_table
from repro.utils.records import RunRecord
from repro.workloads import TABLE12_NETWORKS

EXPERIMENTS: Dict[str, Callable] = {
    "table1_edge": lambda preset, seed: run_table(
        "edge", list(TABLE12_NETWORKS), preset, seed=seed
    ),
    "table2_cloud": lambda preset, seed: run_table(
        "cloud", list(TABLE12_NETWORKS), preset, seed=seed
    ),
    "fig7a_edge": lambda preset, seed: run_fig7(
        "edge", list(TABLE12_NETWORKS), preset, seed=seed
    ),
    "fig7b_cloud": lambda preset, seed: run_fig7(
        "cloud", list(TABLE12_NETWORKS), preset, seed=seed
    ),
    "fig8": lambda preset, seed: run_fig8(preset, seed=seed),
    "fig9": lambda preset, seed: run_fig9(preset, seed=seed),
    "fig10": lambda preset, seed: run_fig10(preset, seed=seed),
    "fig11": lambda preset, seed: run_fig11(preset, seed=seed),
}


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
    for name in selected:
        if progress:
            progress(f"running {name} (preset {preset_obj.name}) ...")
        record = EXPERIMENTS[name](preset_obj, seed)
        summary.children[name] = record
        if results_dir is not None:
            results_dir.mkdir(parents=True, exist_ok=True)
            (results_dir / f"{name}.json").write_text(record.to_json())
            if progress:
                progress(f"  wrote {results_dir / f'{name}.json'}")
    return summary
