"""Pipeline tracing and bottleneck analysis for the Ascend-like simulator.

Real cycle-accurate models are valued for their *observability*: per-stage
utilization, where the pipeline stalls, which buffer starves the cube.
This module reads the simulator's finish times
(:func:`~repro.camodel.ascend_sim._finish_times`, the one tile loop) and
derives per-stage busy and stall cycles from them in one pass, producing a
:class:`PipelineTrace` with:

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
    _WRITEBACK_STAGE,
    _finish_times,
    _layer_plan,
    _TileCosts,
)
from repro.errors import EvaluationError
from repro.hw.ascend import AscendHWConfig
from repro.mapping.ascend_mapping import AscendMapping
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


def _stage_stats(
    costs: _TileCosts,
    n_tiles: int,
    trips_k: int,
    banks: Tuple[int, int, int, int, int],
) -> Tuple[float, Tuple[StageStats, ...]]:
    """The window's total cycles and per-stage accounting.

    One pass over :func:`_finish_times`: a stage's busy cycles are the
    in-order sum of the durations that fired; its stall on tile ``t`` is
    how much later than ``earliest = max(finish[s-1][t], finish[s][t-1])``
    its consumer freed the slot it needed, ``finish[s+1][t - banks[s]]``.
    """
    finish = _finish_times(costs, n_tiles, trips_k, banks)
    total = finish[-1][-1]
    stages = []
    for s, (name, own) in enumerate(zip(_STAGE_NAMES, finish)):
        busy = stall = 0.0
        for t in range(len(own)):
            if s < _WRITEBACK_STAGE or (t % trips_k) == trips_k - 1:
                busy += costs[s]
            earliest = finish[s - 1][t] if s > 0 else 0.0
            if t > 0:
                earliest = max(earliest, own[t - 1])
            if s + 1 < len(finish) and t - banks[s] >= 0:
                freed = finish[s + 1][t - banks[s]]
                if freed > earliest:
                    stall += freed - earliest
        utilization = busy / total if total > 0 else 0.0
        stages.append(StageStats(name, busy, stall, utilization))
    return total, tuple(stages)


def trace_layer(
    hw: AscendHWConfig,
    mapping: AscendMapping,
    shape: GemmShape,
) -> PipelineTrace:
    """Per-stage accounting of the simulator's pipeline for one operator."""
    plan, reason = _layer_plan(hw, mapping, shape)
    if plan is None:
        raise EvaluationError(f"infeasible mapping: {reason}")
    total, stages = _stage_stats(plan.costs, plan.n_tiles, plan.trips_k, plan.banks)
    return PipelineTrace(
        total_cycles=total,
        simulated_tiles=min(plan.n_tiles, MAX_SIMULATED_TILES),
        n_tiles=plan.n_tiles,
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
