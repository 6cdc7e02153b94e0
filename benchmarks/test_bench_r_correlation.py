"""Extension study: population-level correlation of R with generalization.

Fig. 8 checks the robustness metric on a handful of matched pairs; this
extension tests the paper's underlying hypothesis at population scale:
across *many* hardware designs with full-budget mapping searches, does a
design's sensitivity R on a training workload predict its latency
degradation on a different workload?

Protocol: sample N hardware configs, run a full SW search on the training
workload (recording R and training latency), then a fresh search on the
transfer workload; correlate R with the *generalization gap* — transfer
latency normalized by the design's own training-relative rank.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once, save_record
from repro.core.evaluation import SWSearchTrial
from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space
from repro.utils.records import RunRecord
from repro.workloads.registry import get_network

TRAIN_NET = "srgan"
TRANSFER_NET = "xception"
NUM_DESIGNS = 24
BUDGET = 120


def _spearman(x, y) -> float:
    """Spearman rank correlation (scipy-free fallback kept simple)."""
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def _run_study() -> RunRecord:
    train = get_network(TRAIN_NET)
    transfer = get_network(TRANSFER_NET)
    space = edge_design_space()
    rng_configs = space.sample_batch(NUM_DESIGNS * 3, seed=7)

    record = RunRecord("r-correlation")
    r_values, gaps = [], []
    rows = []
    kept = 0
    for index, hw in enumerate(rng_configs):
        if kept >= NUM_DESIGNS:
            break
        train_engine = MaestroEngine(train)
        train_trial = SWSearchTrial(hw, train, train_engine, seed=index)
        train_trial.run(BUDGET)
        train_ppa = train_trial.best_ppa
        robustness = train_trial.robustness()
        if not (train_ppa.feasible and robustness.finite):
            continue
        transfer_engine = MaestroEngine(transfer)
        transfer_trial = SWSearchTrial(hw, transfer, transfer_engine, seed=index)
        transfer_trial.run(BUDGET)
        transfer_ppa = transfer_trial.best_ppa
        if not transfer_ppa.feasible:
            continue
        kept += 1
        # generalization gap: transfer latency relative to how good the
        # design was on its training workload (both per-MAC normalized)
        train_score = train_ppa.latency_s / train.total_macs
        transfer_score = transfer_ppa.latency_s / transfer.total_macs
        gap = transfer_score / train_score
        r_values.append(robustness.r_value)
        gaps.append(gap)
        rows.append(
            {
                "r": robustness.r_value,
                "gap": gap,
                "train_latency_ms": train_ppa.latency_s * 1e3,
                "transfer_latency_ms": transfer_ppa.latency_s * 1e3,
            }
        )
    record.put("num_designs", kept)
    record.put("spearman_r_vs_gap", _spearman(np.array(r_values), np.array(gaps)))
    record.put("rows", rows)
    # split-half comparison: low-R half vs high-R half transfer gap
    order = np.argsort(r_values)
    half = kept // 2
    low_half = [gaps[i] for i in order[:half]]
    high_half = [gaps[i] for i in order[half:]]
    record.put("low_r_half_mean_gap", float(np.mean(low_half)))
    record.put("high_r_half_mean_gap", float(np.mean(high_half)))
    return record


@pytest.mark.benchmark(group="extension")
def test_r_correlates_with_generalization(benchmark, results_dir):
    record = run_once(benchmark, _run_study)
    save_record(results_dir, "r_correlation", record)
    print("\n=== Extension: population-level R vs generalization gap ===")
    print(f"designs: {record.get('num_designs')}")
    print(f"Spearman(R, gap): {record.get('spearman_r_vs_gap'):+.3f}")
    print(
        f"mean gap, low-R half:  {record.get('low_r_half_mean_gap'):.3f}\n"
        f"mean gap, high-R half: {record.get('high_r_half_mean_gap'):.3f}"
    )
    assert record.get("num_designs") >= 12
    # the paper's hypothesis at population level: robust (low-R) designs
    # transfer at least as well as fragile ones
    assert (
        record.get("low_r_half_mean_gap")
        <= record.get("high_r_half_mean_gap") * 1.10
    )
