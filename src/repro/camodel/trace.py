"""Pipeline tracing and bottleneck analysis for the Ascend-like simulator.

Real cycle-accurate models are valued for their *observability*: per-stage
utilization, where the pipeline stalls, which buffer starves the cube.
This module re-runs the tile-pipeline recurrence while recording per-stage
busy cycles and produces a :class:`PipelineTrace` with:

* per-stage busy/total utilization,
* the bottleneck stage (highest utilization),
* bank-stall accounting (time a stage waited for a consumer to free a
  buffer slot),

plus :func:`explain_layer`, a human-readable breakdown used by the
deployment example and the Fig. 11 analysis of why a found configuration
beats the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.camodel.ascend_sim import (
    MAX_SIMULATED_TILES,
    _STAGE_NAMES,
    _capacity_check,
    _tile_costs,
)
from repro.camodel.mapping import AscendMapping
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.errors import EvaluationError
from repro.hw.ascend import AscendHWConfig
from repro.utils.intmath import round_up_div
from repro.workloads.layers import GemmShape


@dataclass(frozen=True)
class StageStats:
    """Utilization of one pipeline stage over the simulated window."""

    name: str
    busy_cycles: float
    stall_cycles: float
    utilization: float


@dataclass(frozen=True)
class PipelineTrace:
    """Per-stage accounting of one operator's execution."""

    total_cycles: float
    simulated_tiles: int
    n_tiles: int
    stages: Tuple[StageStats, ...]

    @property
    def bottleneck(self) -> StageStats:
        return max(self.stages, key=lambda stage: stage.utilization)

    def stage(self, name: str) -> StageStats:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise EvaluationError(f"no pipeline stage named {name!r}")


def trace_layer(
    hw: AscendHWConfig,
    mapping: AscendMapping,
    shape: GemmShape,
) -> PipelineTrace:
    """Run the pipeline recurrence with per-stage instrumentation."""
    tech = DEFAULT_TECHNOLOGY
    ok, reason = _capacity_check(hw, mapping, tech)
    if not ok:
        raise EvaluationError(f"infeasible mapping: {reason}")
    tm, tn, tk = mapping.tiles()
    trips_m = round_up_div(shape.m, tm)
    trips_n = round_up_div(shape.n, tn)
    trips_k = round_up_div(shape.k, tk)
    n_tiles = trips_m * trips_n * trips_k
    costs = _tile_costs(hw, mapping, shape, tech)
    durations = costs.as_list()
    banks = (
        1,
        2,
        min(hw.l0a_banks, hw.l0b_banks),
        hw.l0c_banks,
        2,
    )
    num_stages = len(durations)
    simulate = min(n_tiles, MAX_SIMULATED_TILES)
    finish = [[0.0] * simulate for _ in range(num_stages)]
    busy = [0.0] * num_stages
    stalls = [0.0] * num_stages
    for t in range(simulate):
        last_k = (t % trips_k) == trips_k - 1
        for s in range(num_stages):
            duration = durations[s]
            if s >= 4 and not last_k:
                duration = 0.0
            earliest = finish[s - 1][t] if s > 0 else 0.0
            if t > 0:
                earliest = max(earliest, finish[s][t - 1])
            start = earliest
            if s + 1 < num_stages:
                depth = banks[s]
                if t - depth >= 0:
                    start = max(start, finish[s + 1][t - depth])
            stalls[s] += start - earliest
            busy[s] += duration
            finish[s][t] = start + duration
    total = finish[-1][simulate - 1]
    stages = tuple(
        StageStats(
            name=_STAGE_NAMES[s],
            busy_cycles=busy[s],
            stall_cycles=stalls[s],
            utilization=busy[s] / total if total > 0 else 0.0,
        )
        for s in range(num_stages)
    )
    return PipelineTrace(
        total_cycles=total,
        simulated_tiles=simulate,
        n_tiles=n_tiles,
        stages=stages,
    )


def explain_layer(
    hw: AscendHWConfig,
    mapping: AscendMapping,
    shape: GemmShape,
) -> str:
    """A human-readable bottleneck report for one operator."""
    trace = trace_layer(hw, mapping, shape)
    lines = [
        f"tiles: {trace.n_tiles} (simulated {trace.simulated_tiles}), "
        f"window {trace.total_cycles:.0f} cycles"
    ]
    for stage in trace.stages:
        bar = "#" * int(round(30 * stage.utilization))
        lines.append(
            f"  {stage.name:<8s} util {stage.utilization:6.1%} "
            f"|{bar:<30s}| stall {stage.stall_cycles:.0f} cy"
        )
    bottleneck = trace.bottleneck
    lines.append(f"bottleneck: {bottleneck.name} ({bottleneck.utilization:.1%})")
    return "\n".join(lines)
