"""Ablation: the MSH promotion mix p (share of AUC-promoted candidates).

Section 3.3 fixes ``k = 0.5 N`` and ``p = 0.15 N``.  This bench sweeps the
AUC fraction p/N over {0 (= default SH), 0.15 (paper), 0.3} on one workload
and reports the final hypervolume of each setting, checking that the
paper's operating point is not dominated by plain SH.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once, save_record
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.experiments.harness import combined_reference, final_hypervolume
from repro.hw.spatial import edge_design_space, power_cap_for
from repro.utils.records import RunRecord
from repro.workloads.registry import get_network

AUC_FRACTIONS = (0.0, 0.15, 0.3)
SEEDS = (0, 1)
NETWORK = "srgan"


def _run_sweep() -> RunRecord:
    network = get_network(NETWORK)
    space = edge_design_space()
    record = RunRecord("ablation-msh")
    results = {}
    for fraction in AUC_FRACTIONS:
        per_seed = []
        for seed in SEEDS:
            engine = MaestroEngine(network)
            unico = Unico(
                space,
                network,
                engine,
                UnicoConfig(
                    batch_size=10,
                    max_iterations=3,
                    max_budget=80,
                    auc_fraction=fraction,
                    use_msh=fraction > 0,
                    workers=8,
                ),
                power_cap_w=power_cap_for("edge"),
                seed=seed,
            )
            per_seed.append(unico.optimize())
        results[fraction] = per_seed
    reference = combined_reference(
        [r for group in results.values() for r in group]
    )
    for fraction, group in results.items():
        hvs = [final_hypervolume(r, reference) for r in group]
        record.child(f"p_{fraction}").update(
            {"mean_hv": float(np.mean(hvs)), "hvs": hvs}
        )
    return record


@pytest.mark.benchmark(group="ablation")
def test_ablation_msh_auc_fraction(benchmark, results_dir):
    record = run_once(benchmark, _run_sweep)
    save_record(results_dir, "ablation_msh", record)
    print(f"\n=== Ablation: MSH AUC fraction on {NETWORK} ===")
    for fraction in AUC_FRACTIONS:
        mean_hv = record.children[f"p_{fraction}"].get("mean_hv")
        print(f"p/N = {fraction:.2f}  mean hypervolume {mean_hv:.4f}")
    paper_hv = record.children["p_0.15"].get("mean_hv")
    sh_hv = record.children["p_0.0"].get("mean_hv")
    # the paper's operating point should not be dominated by plain SH
    assert paper_hv >= 0.9 * sh_hv
