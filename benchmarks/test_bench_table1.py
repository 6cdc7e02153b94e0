"""Table 1: edge-device (power < 2 W) comparison of HASCO / NSGAII / UNICO.

Regenerates, per network, the paper's four columns — L(ms), P(mW), A(mm2)
and Cost(h) — at the ``bench`` preset.  Shape expectations (not absolute
values): UNICO's simulated search cost is substantially below HASCO's and
NSGAII's on average, and its selected design is competitive on PPA.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_experiment_once, save_record
from repro.experiments import table_experiment
from repro.experiments.reporting import _table_section
from repro.workloads import TABLE12_NETWORKS

SEED = 0


@pytest.mark.benchmark(group="table1")
def test_table1_edge(benchmark, results_dir):
    record = run_experiment_once(
        benchmark, table_experiment("edge", TABLE12_NETWORKS, "bench", seed=SEED)
    )
    save_record(results_dir, "table1_edge", record)
    print("\n=== Table 1 (edge, power < 2 W), bench preset ===")
    print("\n".join(_table_section("table1_edge", record)))

    unico_costs, hasco_costs, nsga_costs = [], [], []
    unico_wins = 0
    for network in TABLE12_NETWORKS:
        row = record.children[network]
        unico = row.children["unico"].metrics
        hasco = row.children["hasco"].metrics
        nsga = row.children["nsgaii"].metrics
        unico_costs.append(unico["cost_h"])
        hasco_costs.append(hasco["cost_h"])
        nsga_costs.append(nsga["cost_h"])
        unico_vec = np.array(
            [unico["latency_ms"], unico["power_mw"], unico["area_mm2"]]
        )
        hasco_vec = np.array(
            [hasco["latency_ms"], hasco["power_mw"], hasco["area_mm2"]]
        )
        # the paper's claim shape: UNICO's design may sacrifice one PPA
        # metric but gains on others, i.e. it is never dominated by HASCO's
        if np.any(unico_vec < hasco_vec * 1.001):
            unico_wins += 1

    # the paper's headline: noticeably smaller search cost across networks
    assert np.mean(unico_costs) < np.mean(hasco_costs)
    assert np.mean(unico_costs) < np.mean(nsga_costs)
    # and a non-dominated design on (nearly) every network
    assert unico_wins >= len(TABLE12_NETWORKS) - 1
