"""Learned-screening gate: fewer analytical evals, same Pareto quality.

The screened evaluation path only pays off if the distilled model skips
a large share of analytical PPA evaluations without degrading the front.
This bench records one run with per-candidate sample journaling, trains
the journal-distilled model on it, then replays a *held-out* seed with
and without screening and gates on: ≥2x fewer analytical engine queries
at ≤1% hypervolume regression (shared reference point across both runs).

Screening ranks wide same-layer groups only (one-item calls and groups
under ``min_batch`` are never screened — honesty contract), so the gate
runs a batch-heavy inner search: the ``random`` tool is speculation-exact
(its replay never misses, so nearly every query flows through wide
``evaluate_layers`` calls) on a shallow network whose per-layer
speculative batches stay wide.
"""

import dataclasses

import pytest

from benchmarks.conftest import run_once, save_record
from repro.experiments.harness import (
    build_optimizer,
    combined_reference,
    final_hypervolume,
    run_method,
)
from repro.experiments.presets import get_preset
from repro.learned.dataset import build_dataset
from repro.learned.model import LearnedCostModel
from repro.learned.screen import ScreeningPPAEngine
from repro.utils.records import RunRecord

NETWORK = "fsrcnn_120x320"  # 5 layers -> wide per-layer speculative batches
TOOL = "random"
TRAIN_SEED = 11
EVAL_SEED = 12
EVAL_BATCH = 64
TOPK_FRACTION = 0.2
ESCALATE_FRACTION = 0.05

MIN_EVAL_REDUCTION = 2.0
MAX_HV_REGRESSION = 0.01

# bench budgets, but a deeper inner search: the per-trial incumbent
# initialization is a fixed scalar cost, so a larger mapping budget is
# what gives screening a realistic batch share (~90% of all queries)
PRESET = dataclasses.replace(
    get_preset("bench"), name="bench-learned", unico_budget=300
)


def _eval_run(model=None):
    """One fixed-seed co-search, optionally behind the screening wrapper."""
    optimizer = build_optimizer(
        "unico", "edge", NETWORK, PRESET, seed=EVAL_SEED,
        eval_batch_size=EVAL_BATCH, tool=TOOL,
    )
    if model is not None:
        optimizer.engine = ScreeningPPAEngine(
            optimizer.engine, model=model,
            topk_fraction=TOPK_FRACTION, escalate_fraction=ESCALATE_FRACTION,
        )
    result = optimizer.optimize()
    stats = optimizer.engine.screen_stats() if model is not None else None
    return result, stats


def _run_gate(runs_dir) -> RunRecord:
    # 1. record training data: a tracked run journaling every engine sample
    run_method(
        "unico", "edge", NETWORK, PRESET, seed=TRAIN_SEED,
        run_store=runs_dir, record_samples=True,
        eval_batch_size=EVAL_BATCH, tool=TOOL,
    )
    dataset = build_dataset(runs_dir)
    model = LearnedCostModel.fit(
        dataset.x, dataset.latency_s, dataset.energy_j, dataset.feasible,
        seed=0, hidden=32, ensemble=4, epochs=200,
    )

    # 2. evaluate on a held-out seed, with and without screening
    plain, _ = _eval_run()
    screened, stats = _eval_run(model)

    reference = combined_reference([plain, screened])
    hv_plain = final_hypervolume(plain, reference)
    hv_screened = final_hypervolume(screened, reference)

    record = RunRecord("learned-screening")
    record.put("network", NETWORK)
    record.put("tool", TOOL)
    record.put("train_samples", len(dataset))
    record.put("queries_plain", plain.total_engine_queries)
    record.put("queries_screened", screened.total_engine_queries)
    record.put(
        "eval_reduction",
        plain.total_engine_queries / max(1, screened.total_engine_queries),
    )
    record.put("hv_plain", hv_plain)
    record.put("hv_screened", hv_screened)
    record.put("hv_ratio", hv_screened / hv_plain if hv_plain else 1.0)
    record.child("screening").update(
        {k: v for k, v in stats.items() if not isinstance(v, dict)}
    )
    return record


@pytest.mark.benchmark(group="learned")
def test_learned_screening_gate(benchmark, results_dir, tmp_path):
    record = run_once(benchmark, _run_gate, tmp_path / "runs")
    save_record(results_dir, "BENCH_learned", record)
    print(f"\n=== Learned screening on {NETWORK} ({TOOL} tool, train seed "
          f"{TRAIN_SEED}, eval seed {EVAL_SEED}) ===")
    print(
        f"analytical queries {record.get('queries_plain')} -> "
        f"{record.get('queries_screened')} "
        f"({record.get('eval_reduction'):.2f}x reduction)"
    )
    print(
        f"hypervolume {record.get('hv_plain'):.4f} -> "
        f"{record.get('hv_screened'):.4f} "
        f"(ratio {record.get('hv_ratio'):.4f})"
    )
    assert record.get("eval_reduction") >= MIN_EVAL_REDUCTION
    assert record.get("hv_ratio") >= 1.0 - MAX_HV_REGRESSION
