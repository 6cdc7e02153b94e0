"""Figure 7: hypervolume difference vs wall-clock (edge 7a, cloud 7b).

For each network, HASCO / NSGAII / MOBOHB / UNICO run at the ``bench``
preset; HV-difference-to-reference curves are sampled on a shared simulated
time grid.  Expected shape (paper): UNICO converges fastest — it reaches
the HV level HASCO ends at in a fraction of HASCO's time (paper: up to ~4x)
and its per-time curve is not worse than the baselines' on most networks.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_experiment_once, save_record
from repro.experiments.fig7 import fig7_experiment, speedup_to_reach

# three representative networks keep the bench suite's runtime moderate
# while covering the workload families (transformer / CNN / dense-pred.)
FIG7_BENCH_NETWORKS = ("bert", "resnet", "srgan")
SEED = 0


def _summarize(record, scenario):
    print(f"\n=== Fig. 7 ({scenario}) HV-difference, bench preset ===")
    speedups = []
    for network in FIG7_BENCH_NETWORKS:
        panel = record.children[network]
        finals = {
            method: panel.children[method].get("final_hv_diff")
            for method in ("hasco", "nsgaii", "mobohb", "unico")
        }
        speedup = speedup_to_reach(panel)
        speedups.append(speedup)
        finals_text = "  ".join(f"{m}={v:.4f}" for m, v in finals.items())
        print(f"{network:<10s} speedup-to-HASCO-level={speedup:>5.1f}x  {finals_text}")
    print(f"unreached panels (left out of the mean): {record.get('unreached_panels')}")
    return speedups


@pytest.mark.benchmark(group="fig7")
def test_fig7a_edge(benchmark, results_dir):
    record = run_experiment_once(
        benchmark, fig7_experiment("edge", FIG7_BENCH_NETWORKS, "bench", seed=SEED)
    )
    save_record(results_dir, "fig7a_edge", record)
    speedups = _summarize(record, "edge")
    finite = [s for s in speedups if np.isfinite(s)]
    # UNICO reaches HASCO's final quality faster than HASCO on average
    assert finite, "UNICO never reached HASCO's HV level on any network"
    assert np.mean(finite) > 1.0


@pytest.mark.benchmark(group="fig7")
def test_fig7b_cloud(benchmark, results_dir):
    record = run_experiment_once(
        benchmark, fig7_experiment("cloud", FIG7_BENCH_NETWORKS, "bench", seed=SEED)
    )
    save_record(results_dir, "fig7b_cloud", record)
    speedups = _summarize(record, "cloud")
    finite = [s for s in speedups if np.isfinite(s)]
    assert finite, "UNICO never reached HASCO's HV level on any network"
    assert np.mean(finite) > 1.0
