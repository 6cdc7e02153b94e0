"""Table 2: cloud-device (power < 20 W) comparison of HASCO / NSGAII / UNICO.

Same protocol as Table 1 on the ~1e9-point cloud design space.  Expected
shape: UNICO's search cost is a fraction of the baselines' and its design
is competitive or better on PPA.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_experiment_once, save_record
from repro.experiments import table_experiment
from repro.experiments.reporting import _table_section
from repro.workloads import TABLE12_NETWORKS

SEED = 0


@pytest.mark.benchmark(group="table2")
def test_table2_cloud(benchmark, results_dir):
    record = run_experiment_once(
        benchmark, table_experiment("cloud", TABLE12_NETWORKS, "bench", seed=SEED)
    )
    save_record(results_dir, "table2_cloud", record)
    print("\n=== Table 2 (cloud, power < 20 W), bench preset ===")
    print("\n".join(_table_section("table2_cloud", record)))

    unico_costs, baseline_costs = [], []
    unico_wins = 0
    for network in TABLE12_NETWORKS:
        row = record.children[network]
        unico = row.children["unico"].metrics
        hasco = row.children["hasco"].metrics
        nsga = row.children["nsgaii"].metrics
        unico_costs.append(unico["cost_h"])
        baseline_costs.append(min(hasco["cost_h"], nsga["cost_h"]))
        unico_vec = np.array(
            [unico["latency_ms"], unico["power_mw"], unico["area_mm2"]]
        )
        hasco_vec = np.array(
            [hasco["latency_ms"], hasco["power_mw"], hasco["area_mm2"]]
        )
        # never dominated by HASCO's design (may trade one metric for others)
        if np.any(unico_vec < hasco_vec * 1.001):
            unico_wins += 1

    assert np.mean(unico_costs) < np.mean(baseline_costs)
    assert unico_wins >= len(TABLE12_NETWORKS) - 1
