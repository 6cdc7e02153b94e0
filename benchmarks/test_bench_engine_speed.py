"""Micro-benchmarks: real compute throughput of the core kernels.

Unlike the experiment benches (one expensive round each), these use
pytest-benchmark properly — many rounds over hot loops — and guard the
performance envelope the search algorithms depend on: the analytical
models must stay in the sub-millisecond regime (they are called hundreds
of thousands of times per experiment), the CA simulator in the
tens-of-milliseconds regime, and a GP fit on a typical training-set size
well under a second.
"""

import json
import time

import numpy as np
import pytest

from repro.camodel.ascend_sim import simulate_layer
from repro.camodel.mapping import AscendMapping
from repro.costmodel.maestro import analyze_gemm
from repro.costmodel.maestro_batch import analyze_gemm_batch
from repro.costmodel.timeloop import analyze_gemm_loopnest
from repro.costmodel.timeloop_batch import analyze_gemm_loopnest_batch
from repro.hw import SpatialHWConfig, default_ascend_config
from repro.mapping import GemmMapping
from repro.mapping.gemm_mapping import GemmMappingSpace
from repro.optim.gp import GaussianProcess
from repro.optim.hypervolume import hypervolume
from repro.workloads.layers import GemmShape

HW = SpatialHWConfig(
    pe_x=12, pe_y=12, l1_bytes=6144, l2_kb=512, noc_bw=128, dataflow="ws"
)
SHAPE = GemmShape(m=256, n=3136, k=576)
MAPPING = GemmMapping(tile_m=64, tile_n=56, tile_k=64)

#: Gate on each vector kernel's per-candidate speedup over its scalar model
#: at B=64, at the floor of its A/A spread: it catches a kernel that lost
#: its vectorisation, not a noisy neighbour.  The Timeloop-like kernel reads
#: 4.6-5.0x against its scalar twin on untouched code from run to run
#: (ROADMAP item 1b recorded the old ``>= 5.0`` gate flapping; ten runs on a
#: shared 2-vCPU box under heavy load read 4.31-5.29x, two of them under the
#: gate: on such a box re-run before believing a failure).  The MAESTRO-like
#: scalar kernel stopped re-deriving its constants (DESIGN.md §4n) and is
#: ~3x faster than the model this gate was set against, so its vector twin
#: now reads 1.38-1.46x over six runs.
MIN_BATCH_SPEEDUP = {"analyze_gemm": 1.3, "analyze_gemm_loopnest": 4.5}


@pytest.mark.benchmark(group="kernels")
def test_speed_analytical_maestro(benchmark):
    result = benchmark(analyze_gemm, HW, MAPPING, SHAPE)
    assert result.feasible
    assert benchmark.stats["mean"] < 0.005  # sub-5ms per query


@pytest.mark.benchmark(group="kernels")
def test_speed_analytical_timeloop(benchmark):
    result = benchmark(analyze_gemm_loopnest, HW, MAPPING, SHAPE)
    assert result.feasible
    assert benchmark.stats["mean"] < 0.005


@pytest.mark.benchmark(group="kernels")
@pytest.mark.parametrize(
    "scalar_fn, batch_fn",
    [
        (analyze_gemm, analyze_gemm_batch),
        (analyze_gemm_loopnest, analyze_gemm_loopnest_batch),
    ],
    ids=["maestro", "timeloop"],
)
def test_speed_analytical_maestro_batch(
    benchmark, results_dir, scalar_fn, batch_fn
):
    """Vectorized batch evaluation vs the scalar loop at B=64.

    The acceptance bar of the batched path: the vector kernel's
    per-candidate throughput at B=64 on one shape, gated at the floor of
    its recorded A/A spread (``MIN_BATCH_SPEEDUP``).  Candidates are
    sampled feasible-on-HW so both paths run the full analysis — the
    regime the scalar bench above measures (on infeasible mappings the
    scalar model early-exits at the capacity check, which would
    understate the work the batch path replaces).

    The speedup is measured *paired*: each round times the scalar loop
    and the batch kernel back to back, so slow CPU-frequency / thermal
    drift (several percent over a pytest session on shared runners) hits
    both sides of a round's ratio equally, and the median over rounds is
    robust to the occasional GC or scheduler pause landing in one chunk.
    Both medians land in ``BENCH_engine.json``.
    """
    space = GemmMappingSpace(SHAPE)
    rng = np.random.default_rng(0)
    mappings = []
    for _ in range(10_000):
        candidate = space.sample(rng)
        if scalar_fn(HW, candidate, SHAPE).feasible:
            mappings.append(candidate)
            if len(mappings) == 64:
                break
    assert len(mappings) == 64, "sampler failed to find 64 feasible mappings"

    # the benchmark fixture reports the batch kernel's own timing (and
    # doubles as warmup for the paired loop below)
    results = benchmark.pedantic(
        batch_fn, args=(HW, mappings, SHAPE),
        rounds=30, iterations=16, warmup_rounds=2,
    )
    assert len(results) == 64

    # paired rounds: both chunks are sized to a couple of milliseconds so
    # a single GC pause cannot dominate either side
    scalar_times, batch_times, ratios = [], [], []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(3):
            for mapping in mappings:
                scalar_fn(HW, mapping, SHAPE)
        t1 = time.perf_counter()
        for _ in range(16):
            batch_fn(HW, mappings, SHAPE)
        t2 = time.perf_counter()
        scalar_times.append((t1 - t0) / (3 * len(mappings)))
        batch_times.append((t2 - t1) / (16 * len(mappings)))
        ratios.append(scalar_times[-1] / batch_times[-1])

    speedup = sorted(ratios)[len(ratios) // 2]
    scalar_per_item = sorted(scalar_times)[len(scalar_times) // 2]
    batch_per_item = sorted(batch_times)[len(batch_times) // 2]
    record_path = results_dir / "BENCH_engine.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record[f"batch_speedup_{scalar_fn.__name__}"] = {
        "batch_size": len(mappings),
        "scalar_per_item_s": scalar_per_item,
        "batch_per_item_s": batch_per_item,
        "speedup": speedup,
    }
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    gate = MIN_BATCH_SPEEDUP[scalar_fn.__name__]
    assert speedup >= gate, (
        f"batch path only {speedup:.1f}x faster per candidate "
        f"({scalar_per_item * 1e6:.1f} us scalar vs "
        f"{batch_per_item * 1e6:.1f} us batched); the gate is the floor of "
        f"this kernel's run-to-run spread, {gate}x"
    )


@pytest.mark.benchmark(group="kernels")
def test_speed_camodel(benchmark):
    hw = default_ascend_config()
    mapping = AscendMapping(tile_m=32, tile_n=128, tile_k=64)
    shape = GemmShape(m=64, n=4096, k=128)
    result = benchmark(simulate_layer, hw, mapping, shape)
    assert result.feasible
    # cycle-level simulation is orders of magnitude slower than analytical,
    # but must stay usable (< 100 ms per layer query)
    assert benchmark.stats["mean"] < 0.1


@pytest.mark.benchmark(group="kernels")
def test_speed_gp_fit(benchmark):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (60, 6))
    y = np.sin(4 * x[:, 0]) + x[:, 1] ** 2

    def fit():
        return GaussianProcess().fit(x, y, num_restarts=1)

    gp = benchmark(fit)
    assert gp.num_observations == 60
    assert benchmark.stats["mean"] < 1.0


@pytest.mark.benchmark(group="kernels")
def test_speed_hypervolume_3d(benchmark):
    rng = np.random.default_rng(1)
    points = rng.uniform(0, 1, (40, 3))
    value = benchmark(hypervolume, points, [1.1, 1.1, 1.1])
    assert value > 0
    assert benchmark.stats["mean"] < 0.5
