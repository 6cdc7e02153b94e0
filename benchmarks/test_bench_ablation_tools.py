"""Ablation: UNICO's pluggable inner components.

Section 3.5 presents UNICO as an algorithm framework whose SW Mapping
Explorer (FlexTensor or GAMMA) and PPA Estimation Engine (MAESTRO-like or
Timeloop-like analytical model) are swappable.  Two sweeps:

* **SW tool**: UNICO with FlexTensor-like vs GAMMA-like search — both
  should land in the same hypervolume ballpark (the framework does not
  depend on which mature mapping tool drives the inner level).
* **PPA engine**: UNICO on the data-centric vs loop-centric analytical
  model — the *designs* found under one model should look good under the
  other (cross-model min-Euclidean regression bounded).
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once, save_record
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.costmodel.timeloop import TimeloopEngine
from repro.experiments.harness import combined_reference, final_hypervolume
from repro.hw.spatial import edge_design_space, power_cap_for
from repro.utils.records import RunRecord
from repro.workloads.registry import get_network

NETWORK = "xception"


def _run_unico(network, engine, tool: str, seed: int = 0):
    return Unico(
        edge_design_space(),
        network,
        engine,
        UnicoConfig(batch_size=8, max_iterations=3, max_budget=60, workers=8),
        tool=tool,
        power_cap_w=power_cap_for("edge"),
        seed=seed,
    ).optimize()


def _tool_sweep() -> RunRecord:
    network = get_network(NETWORK)
    record = RunRecord("ablation-tools")
    results = {
        tool: _run_unico(network, MaestroEngine(network), tool)
        for tool in ("flextensor", "gamma")
    }
    reference = combined_reference(list(results.values()))
    for tool, result in results.items():
        record.child(tool).update(
            {
                "hv": final_hypervolume(result, reference),
                "cost_h": result.total_time_h,
            }
        )
    return record


def _engine_sweep() -> RunRecord:
    network = get_network(NETWORK)
    record = RunRecord("ablation-engines")
    results = {
        "maestro": _run_unico(network, MaestroEngine(network), "flextensor"),
        "timeloop": _run_unico(network, TimeloopEngine(network), "flextensor"),
    }
    # cross-evaluate each engine's chosen design under the *other* model
    cross_engine = MaestroEngine(get_network(NETWORK))
    cross_engine.charge_clock = False
    for name, result in results.items():
        best = result.best_design()
        record.child(name).put("found_design", str(best.hw))
        # strip the per-layer mapping through the cross engine
        cross_ppa = cross_engine.aggregate(best.hw, best.mapping)
        record.child(name).put(
            "cross_latency_ms",
            cross_ppa.latency_s * 1e3 if cross_ppa.feasible else float("inf"),
        )
    return record


@pytest.mark.benchmark(group="ablation")
def test_ablation_sw_tool(benchmark, results_dir):
    record = run_once(benchmark, _tool_sweep)
    save_record(results_dir, "ablation_tools", record)
    print(f"\n=== Ablation: SW mapping tool inside UNICO ({NETWORK}) ===")
    hvs = {}
    for tool in ("flextensor", "gamma"):
        child = record.children[tool]
        hvs[tool] = child.get("hv")
        print(f"{tool:<12s} hv {child.get('hv'):.4f}  cost {child.get('cost_h'):.2f} h")
    ratio = min(hvs.values()) / max(hvs.values())
    # framework is tool-agnostic: both tools land within 25%
    assert ratio > 0.75


@pytest.mark.benchmark(group="ablation")
def test_ablation_ppa_engine(benchmark, results_dir):
    record = run_once(benchmark, _engine_sweep)
    save_record(results_dir, "ablation_engines", record)
    print(f"\n=== Ablation: analytical PPA engine inside UNICO ({NETWORK}) ===")
    latencies = {}
    for name in ("maestro", "timeloop"):
        child = record.children[name]
        latencies[name] = child.get("cross_latency_ms")
        print(
            f"{name:<10s} design {child.get('found_design')}\n"
            f"{'':<10s} latency under the data-centric model: "
            f"{child.get('cross_latency_ms'):.2f} ms"
        )
    # the design found under the loop-centric model is a sane design under
    # the data-centric model too (bounded cross-model regression)
    assert np.isfinite(latencies["timeloop"])
    assert latencies["timeloop"] <= 5.0 * latencies["maestro"]
