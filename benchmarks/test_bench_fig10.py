"""Figure 10: ablation of MSH and the high-fidelity update rule.

Four variants on {UNET, SRGAN, BERT, VIT}: HASCO, SH+ChampionUpdate,
MSH+ChampionUpdate, and full UNICO.  Expected shape (paper): MSH+Champion
beats plain SH+Champion (which over-prunes and can fall below HASCO), and
full UNICO (MSH + HighFidelityUpdate) achieves the best hypervolume —
paper numbers: MSH+Champion ~13.7% over HASCO, UNICO ~28% over HASCO.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_experiment_once, save_record
from repro.experiments import fig10_experiment
from repro.workloads import FIG10_NETWORKS

SEED = 0


@pytest.mark.benchmark(group="fig10")
def test_fig10_ablation(benchmark, results_dir):
    record = run_experiment_once(benchmark, fig10_experiment("bench", seed=SEED))
    save_record(results_dir, "fig10", record)

    print("\n=== Fig. 10: feature ablation (final hypervolume), bench preset ===")
    for network in FIG10_NETWORKS:
        panel = record.children[network]
        cells = "  ".join(
            f"{m}={panel.children[m].get('final_hv'):.4f}"
            for m in ("hasco", "sh_champion", "msh_champion", "unico")
        )
        print(f"{network:<10s} {cells}")
    for method in ("sh_champion", "msh_champion", "unico"):
        value = record.get(f"mean_improvement_{method}_pct")
        print(f"mean improvement over HASCO, {method}: {value:+.1f}%")

    unico_gain = record.get("mean_improvement_unico_pct")
    msh_gain = record.get("mean_improvement_msh_champion_pct")
    sh_gain = record.get("mean_improvement_sh_champion_pct")
    # ordering of the paper's ablation: MSH >= SH, and full UNICO on top
    assert msh_gain >= sh_gain - 5.0  # MSH not worse than SH (tolerance)
    assert unico_gain >= -5.0  # full UNICO at least matches HASCO
    assert unico_gain >= sh_gain - 5.0
