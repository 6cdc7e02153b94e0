"""Ablation: MOBO batch size N under a fixed simulated-time budget.

UNICO's batch sampling exists to exploit parallel workers: with 8 workers,
larger batches amortize the round makespan.  This bench runs UNICO with
N in {4, 10, 20} under the same simulated time budget and reports achieved
hypervolume — batching should not hurt, and typically helps per unit time.
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

BATCH_SIZES = (4, 10, 20)
TIME_BUDGET_S = 3.0 * 3600
NETWORK = "resnet"


def _run_sweep() -> RunRecord:
    network = get_network(NETWORK)
    space = edge_design_space()
    record = RunRecord("ablation-batch")
    results = {}
    for batch in BATCH_SIZES:
        engine = MaestroEngine(network)
        unico = Unico(
            space,
            network,
            engine,
            UnicoConfig(
                batch_size=batch,
                max_iterations=100,  # bounded by the time budget
                max_budget=80,
                workers=8,
                time_budget_s=TIME_BUDGET_S,
            ),
            power_cap_w=power_cap_for("edge"),
            seed=0,
        )
        results[batch] = unico.optimize()
    reference = combined_reference(list(results.values()))
    for batch, result in results.items():
        record.child(f"n_{batch}").update(
            {
                "hv": final_hypervolume(result, reference),
                "hw_evaluated": result.total_hw_evaluated,
                "time_h": result.total_time_h,
            }
        )
    return record


@pytest.mark.benchmark(group="ablation")
def test_ablation_batch_size(benchmark, results_dir):
    record = run_once(benchmark, _run_sweep)
    save_record(results_dir, "ablation_batch", record)
    print(f"\n=== Ablation: batch size N on {NETWORK}, "
          f"{TIME_BUDGET_S / 3600:.0f} simulated hours, 8 workers ===")
    for batch in BATCH_SIZES:
        child = record.children[f"n_{batch}"]
        print(
            f"N = {batch:<3d} hv {child.get('hv'):.4f}  "
            f"hw evaluated {child.get('hw_evaluated'):>3d}  "
            f"used {child.get('time_h'):.2f} h"
        )
    hv_small = record.children[f"n_{BATCH_SIZES[0]}"].get("hv")
    hv_paperish = record.children[f"n_{BATCH_SIZES[1]}"].get("hv")
    # batching for parallel workers should not hurt per-time quality (10%)
    assert hv_paperish >= 0.9 * hv_small
    # larger batches evaluate more hardware in the same simulated time
    evals = [record.children[f"n_{b}"].get("hw_evaluated") for b in BATCH_SIZES]
    assert evals[-1] >= evals[0]
