"""Figure 11: UNICO deployment on the Ascend-like commercial architecture.

UNICO co-optimizes the Ascend-like core per workload (UNET, FSRCNN at three
resolutions, DLEU) under the 200 mm^2 area cap, using the cycle-accurate
engine and the depth-first fusion mapping tool; the found architecture is
compared with the expert default.  Expected shape (paper): positive latency
savings on the super-resolution workloads (12.1% on UNET, 26.4% on
FSRCNN@120x320) and a large mean power saving (~32.3%), with the L0 buffer
split rebalanced away from the cube-derived defaults.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_experiment_once, save_record
from repro.experiments import fig11_experiment
from repro.workloads import FIG11_NETWORKS

SEED = 0


@pytest.mark.benchmark(group="fig11")
def test_fig11_ascend_deployment(benchmark, results_dir):
    record = run_experiment_once(benchmark, fig11_experiment("bench", seed=SEED))
    save_record(results_dir, "fig11", record)

    print("\n=== Fig. 11: Ascend-like deployment, bench preset ===")
    print(f"default: {record.get('default_hw')}")
    for network in FIG11_NETWORKS:
        child = record.children[network]
        if "error" in child.metrics:
            print(f"{network:<18s} ERROR: {child.get('error')}")
            continue
        print(
            f"{network:<18s} latency saving {child.get('latency_saving_pct'):+6.1f}%  "
            f"power saving {child.get('power_saving_pct'):+6.1f}%  "
            f"(search {child.get('search_cost_h'):.1f} simulated h)"
        )
        rebalance = child.get("buffer_rebalance")
        print(
            f"{'':<18s} L0A {rebalance['l0a_kb']['default']}→"
            f"{rebalance['l0a_kb']['unico']} KB, "
            f"L0B {rebalance['l0b_kb']['default']}→"
            f"{rebalance['l0b_kb']['unico']} KB, "
            f"L0C {rebalance['l0c_kb']['default']}→"
            f"{rebalance['l0c_kb']['unico']} KB"
        )
    print(
        f"mean latency saving {record.get('mean_latency_saving_pct'):+.1f}%, "
        f"mean power saving {record.get('mean_power_saving_pct'):+.1f}%"
    )

    # the paper's headline: clear average power saving over the default
    assert record.get("mean_power_saving_pct") > 0.0
    # and the co-search does not regress latency badly on average
    assert record.get("mean_latency_saving_pct") > -10.0
