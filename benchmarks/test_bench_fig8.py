"""Figure 8: reliability of the robustness metric R.

UNICO (without the R objective) co-optimizes on {UNET, SRGAN, BERT}; pairs
of Pareto designs with similar training PPA but different R are validated
on {ResNet, ResUNet, VIT, MobileNet} with individual SW mapping searches.
Expected shape (paper): in each selected pair, the lower-R design achieves
lower average latency on the unseen networks (paper: 10-28.5% better).
"""

import pytest

from benchmarks.conftest import run_experiment_once, save_record
from repro.experiments.fig8 import fig8_experiment

SEED = 0


@pytest.mark.benchmark(group="fig8")
def test_fig8_robustness_indicator(benchmark, results_dir):
    record = run_experiment_once(benchmark, fig8_experiment("bench", seed=SEED))
    save_record(results_dir, "fig8", record)

    print("\n=== Fig. 8: R as a generalization indicator, bench preset ===")
    print(f"Pareto designs on training set: {record.get('pareto_size')}")
    print(f"Comparable pairs found: {record.get('num_pairs')} "
          f"(PPA tolerance {record.get('pair_tolerance_used'):.2f})")
    for name, pair in record.children.items():
        if not name.startswith("pair_"):
            continue
        print(
            f"{name}: R_robust={pair.get('robust_r'):.4f} "
            f"R_fragile={pair.get('fragile_r'):.4f} | "
            f"validation latency robust={pair.get('robust_mean_latency_ms'):.2f}ms "
            f"fragile={pair.get('fragile_mean_latency_ms'):.2f}ms "
            f"-> robust wins: {pair.get('robust_wins')}"
        )

    assert record.get("num_pairs", 0) >= 1, "no comparable Pareto pairs found"
    # the paper's claim: lower R predicts better unseen-workload latency
    assert record.get("fraction_pairs_consistent") >= 0.5
