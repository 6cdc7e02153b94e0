"""Extension study: is the Fig. 10 ordering stable across seeds?

The ablation gaps compress at bench budgets, so a single seed proving
"UNICO > HASCO" could be luck.  This bench repeats the two-variant
comparison (HASCO vs full UNICO) over several seeds on one workload and
checks UNICO's mean final hypervolume with a win-rate criterion.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once, save_record
from repro.experiments.harness import combined_reference, final_hypervolume, run_method
from repro.utils.records import RunRecord

NETWORK = "srgan"
SEEDS = (0, 1, 2)


def _run_sweep() -> RunRecord:
    record = RunRecord("seed-robustness")
    results = {}
    for seed in SEEDS:
        for method in ("hasco", "unico"):
            results[(method, seed)] = run_method(
                method, "edge", NETWORK, "bench", seed=seed
            )
    reference = combined_reference(list(results.values()))
    hvs = {key: final_hypervolume(result, reference) for key, result in results.items()}
    wins = 0
    for seed in SEEDS:
        unico_hv = hvs[("unico", seed)]
        hasco_hv = hvs[("hasco", seed)]
        child = record.child(f"seed_{seed}")
        child.put("unico_hv", unico_hv)
        child.put("hasco_hv", hasco_hv)
        child.put("unico_cost_h", results[("unico", seed)].total_time_h)
        child.put("hasco_cost_h", results[("hasco", seed)].total_time_h)
        if unico_hv >= hasco_hv:
            wins += 1
    record.put("unico_mean_hv", float(np.mean([hvs[("unico", s)] for s in SEEDS])))
    record.put("hasco_mean_hv", float(np.mean([hvs[("hasco", s)] for s in SEEDS])))
    record.put("unico_win_rate", wins / len(SEEDS))
    return record


@pytest.mark.benchmark(group="extension")
def test_seed_robustness(benchmark, results_dir):
    record = run_once(benchmark, _run_sweep)
    save_record(results_dir, "seed_robustness", record)
    print(f"\n=== Extension: seed robustness on {NETWORK} (seeds {SEEDS}) ===")
    for seed in SEEDS:
        child = record.children[f"seed_{seed}"]
        print(
            f"seed {seed}: unico hv {child.get('unico_hv'):.4f} "
            f"({child.get('unico_cost_h'):.2f} h) vs "
            f"hasco hv {child.get('hasco_hv'):.4f} "
            f"({child.get('hasco_cost_h'):.2f} h)"
        )
    print(
        f"mean hv: unico {record.get('unico_mean_hv'):.4f} "
        f"vs hasco {record.get('hasco_mean_hv'):.4f}; "
        f"win rate {record.get('unico_win_rate'):.2f}"
    )
    # UNICO matches or beats HASCO's front quality on average while paying
    # a fraction of the cost (cost columns printed above)
    assert record.get("unico_mean_hv") >= 0.95 * record.get("hasco_mean_hv")
    assert record.get("unico_win_rate") >= 0.5
