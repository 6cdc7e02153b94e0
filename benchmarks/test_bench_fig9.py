"""Figure 9: UNICO vs HASCO generalization to 8 unseen DNNs.

Both methods co-optimize on {MobileNetV2, ResNet, SRGAN, VGG}; each
min-Euclidean-distance design is then given an individual SW mapping search
on every validation network.  The per-network gain ratio compares HASCO's
normalized PPA distance to UNICO's (> 1 = UNICO generalizes better).
Expected shape (paper): UNICO wins on most validation networks with a
substantially positive mean improvement (paper: 44%).
"""

import numpy as np
import pytest

from benchmarks.conftest import run_experiment_once, save_record
from repro.experiments import fig9_experiment
from repro.workloads import FIG9_VALIDATION

SEED = 0


@pytest.mark.benchmark(group="fig9")
def test_fig9_generalization(benchmark, results_dir):
    record = run_experiment_once(benchmark, fig9_experiment("bench", seed=SEED))
    save_record(results_dir, "fig9", record)

    print("\n=== Fig. 9: generalization to unseen DNNs, bench preset ===")
    print(f"UNICO hw: {record.get('unico_hw')}")
    print(f"HASCO hw: {record.get('hasco_hw')}")
    assert "error" not in record.metrics, record.get("error")
    for network in FIG9_VALIDATION:
        child = record.children[network]
        print(
            f"{network:<20s} gain ratio {child.get('gain_ratio'):>6.2f}  "
            f"(latency unico {child.get('unico_latency_ms'):.2f} ms "
            f"vs hasco {child.get('hasco_latency_ms'):.2f} ms)"
        )
    print(f"mean gain ratio: {record.get('mean_gain_ratio'):.2f} "
          f"({record.get('mean_improvement_pct'):.0f}% improvement)")

    # UNICO's hardware generalizes at least as well as HASCO's on average
    assert record.get("mean_gain_ratio") >= 1.0
    assert record.get("fraction_unico_wins") >= 0.5
