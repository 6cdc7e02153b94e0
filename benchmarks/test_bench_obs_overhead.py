"""Tracing-overhead gate: repro.obs must stay out of the search's way.

A fully traced co-search (a real :class:`Tracer` with an in-memory sink)
must stay within 10% of the untraced wall time.  Untraced, the engine
checks ``tracer.enabled`` once per engine call, not once per query, so
the disabled tracer has no per-query cost left to gate.

The comparison interleaves the two variants and gates on the **ratio of
per-arm minimum times**: timing noise (GC, scheduler pauses, frequency
drift) only ever inflates a measurement, so the minimum over repetitions
is the cleanest estimate of each arm's true cost and the ratio of
minimums is robust on shared/noisy runners where a single pairing is
not.  GC is paused around the timed regions for the same reason.

Because the noise model is one-sided, every interleaved estimate is an
*upper bound* on the true overhead — so the gate interleaves whole
co-searches, re-measures up to three times, stops early once an estimate
is comfortably in budget, and passes if any estimate clears it: a
sustained interference burst does not fail the gate, while a real
regression (which inflates every estimate) still trips it.

Results land in ``BENCH_obs.json``.
"""

import gc
import json
import time

import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space, power_cap_for
from repro.obs.trace import InMemorySink, Tracer
from repro.workloads.registry import get_network

NETWORK = "mobilenet"


def _fresh_unico(network, traced: bool):
    """The fixed small co-search cell, optionally traced."""
    engine = MaestroEngine(network)
    unico = Unico(
        edge_design_space(),
        network,
        engine,
        UnicoConfig(batch_size=4, max_iterations=3, max_budget=48),
        power_cap_w=power_cap_for("edge"),
        seed=0,
    )
    if traced:
        unico.set_tracer(Tracer(clock=unico.clock, sinks=[InMemorySink()]))
    return unico


def _measure_enabled_phase(network, rounds: int = 9):
    """One interleaved phase of traced-vs-untraced co-searches.

    Returns ``(overhead, untraced_min_s, traced_min_s)``; arm order flips
    each round so a drifting machine regime hits both arms alike.
    """
    untraced_times, traced_times = [], []
    for round_index in range(rounds):
        arms = [(untraced_times, False), (traced_times, True)]
        if round_index % 2:
            arms.reverse()
        for bucket, traced in arms:
            unico = _fresh_unico(network, traced=traced)
            gc.collect()
            t0 = time.perf_counter()
            unico.optimize()
            bucket.append(time.perf_counter() - t0)
    untraced_min, traced_min = min(untraced_times), min(traced_times)
    return traced_min / untraced_min - 1.0, untraced_min, traced_min


@pytest.mark.benchmark(group="obs")
def test_bench_obs_overhead(benchmark, results_dir):
    network = get_network(NETWORK)

    # fully traced co-search vs untraced; up to 3 phases, keeping the best
    # (each estimate upper-bounds the true cost)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _fresh_unico(network, traced=False).optimize()  # warmup
        phases = []
        for _ in range(3):
            phases.append(_measure_enabled_phase(network))
            if phases[-1][0] <= 0.08:
                break
        enabled_overhead, untraced_min, traced_min = min(phases)
    finally:
        if gc_was_enabled:
            gc.enable()

    # the benchmark fixture reports one traced co-search for the suite table
    benchmark.pedantic(
        lambda: _fresh_unico(network, traced=True).optimize(),
        rounds=1, iterations=1,
    )

    record_path = results_dir / "BENCH_obs.json"
    record = (
        json.loads(record_path.read_text()) if record_path.exists() else {}
    )
    record["tracing_overhead"] = {
        "network": NETWORK,
        "enabled_overhead": enabled_overhead,
        "untraced_cosearch_s": untraced_min,
        "traced_cosearch_s": traced_min,
    }
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))

    assert enabled_overhead <= 0.10, (
        f"enabled tracing costs {enabled_overhead:.1%} on a traced "
        "co-search (budget: 10%)"
    )
