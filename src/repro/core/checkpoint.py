"""Checkpoint / resume for long-running UNICO searches.

A paper-preset run on the cycle-accurate engine spans days of simulated
(and hours of real) time; production co-search must survive restarts.
:func:`save_checkpoint` captures everything Algorithm 1 accumulates between
iterations — the high-fidelity training set, the objective normalizer, the
UUL selector state, the Pareto archive, the timeline and the simulated
clock — plus the MOBO sampler's RNG state, into one JSON document.
:func:`load_checkpoint` restores it onto a freshly constructed
:class:`~repro.core.unico.Unico` (same spaces/config/seed), after which
``optimize()`` continues from the saved iteration.

Version history
---------------
* **v2** (current) — serializes the full :class:`RobustnessResult` per
  archived design (delta, theta, optimal/sub-optimal latency+power) and
  records ``completed_iterations`` explicitly; loading sets
  :attr:`Unico.completed_iterations` instead of shrinking
  ``config.max_iterations`` in place, so repeated save/load cycles no
  longer erode the budget.
* **v1** — still readable.  v1 files carry only ``r_value``, so restored
  designs get the historical placeholder geometry (``delta=r_value``,
  ``theta=pi/2``, sub-optimal PPA copied from optimal).

Hardware configs serialize through the design space's assignment dicts;
per-layer mappings are *not* checkpointed (a resumed run re-derives
mappings for new candidates; archived designs keep their recorded PPA).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict
from typing import Dict, Union

import numpy as np

from repro.core.base import HWDesign, TimelineEntry
from repro.core.robustness import RobustnessResult
from repro.core.unico import IterationRecord, Unico
from repro.costmodel.results import NetworkPPA
from repro.errors import ConfigurationError

CHECKPOINT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)


def _config_to_payload(space, config) -> Dict:
    return {str(k): v for k, v in space.from_config(config).items()}


def _config_from_payload(space, payload: Dict):
    return space.to_config(dict(payload))


def _robustness_to_payload(robustness: RobustnessResult) -> Dict:
    return {
        "r_value": robustness.r_value,
        "delta": robustness.delta,
        "theta": robustness.theta,
        "optimal_latency_s": robustness.optimal_latency_s,
        "optimal_power_w": robustness.optimal_power_w,
        "suboptimal_latency_s": robustness.suboptimal_latency_s,
        "suboptimal_power_w": robustness.suboptimal_power_w,
    }


def _robustness_from_payload(design_payload: Dict, ppa: NetworkPPA) -> RobustnessResult:
    robustness = design_payload.get("robustness")
    if robustness is not None:  # v2: full geometry round-trips
        return RobustnessResult(**robustness)
    # v1 fallback: only R survived serialization; reconstruct the old
    # placeholder geometry (delta=R, theta=pi/2, sub-optimal == optimal)
    return RobustnessResult(
        r_value=design_payload["r_value"],
        delta=design_payload["r_value"],
        theta=np.pi / 2,
        optimal_latency_s=ppa.latency_s,
        optimal_power_w=ppa.power_w,
        suboptimal_latency_s=ppa.latency_s,
        suboptimal_power_w=ppa.power_w,
    )


def save_checkpoint(unico: Unico, path: Union[str, pathlib.Path]) -> None:
    """Write the optimizer's inter-iteration state to ``path`` (JSON).

    The write is atomic (same-directory temp file + rename) so a crash
    mid-save never clobbers the previous checkpoint.
    """
    space = unico.space
    designs = []
    for design, point in zip(unico.pareto.items, unico.pareto.points):
        designs.append(
            {
                "hw": _config_to_payload(space, design.hw),
                "ppa": {
                    "latency_s": design.ppa.latency_s,
                    "energy_j": design.ppa.energy_j,
                    "power_w": design.ppa.power_w,
                    "area_mm2": design.ppa.area_mm2,
                },
                "r_value": design.robustness.r_value,
                "robustness": _robustness_to_payload(design.robustness),
                "point": [float(v) for v in point],
            }
        )
    selector_state: Dict = {}
    if hasattr(unico.selector, "_distance_archive"):
        selector_state = {
            "best_scalar": unico.selector._best_scalar,
            "distance_archive": list(unico.selector._distance_archive),
            "uul": unico.selector._uul,
        }
    payload = {
        "version": CHECKPOINT_VERSION,
        "iteration": unico.completed_iterations,
        "completed_iterations": unico.completed_iterations,
        "clock_s": unico.clock.now_s,
        "train_configs": [
            _config_to_payload(space, c) for c in unico.train_configs
        ],
        "train_objectives": [
            [float(v) for v in y] for y in unico.train_objectives_raw
        ],
        "normalizer": {
            "low": [float(v) for v in unico.normalizer._low],
            "high": [float(v) for v in unico.normalizer._high],
        },
        "selector": selector_state,
        "sampler_rng": unico.sampler.rng.bit_generator.state,
        "trial_counter": unico._trial_counter,
        "total_hw_evaluated": unico.total_hw_evaluated,
        "engine_queries": unico.restored_engine_queries + unico.engine.num_queries,
        "pareto": designs,
        "timeline": [
            {
                "time_s": entry.time_s,
                "ppa": [float(v) for v in entry.ppa_vector],
                "feasible": entry.feasible,
            }
            for entry in unico.timeline
        ],
        "iteration_records": [asdict(r) for r in unico.iteration_records],
    }
    target = pathlib.Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(target)


def load_checkpoint(unico: Unico, path: Union[str, pathlib.Path]) -> Unico:
    """Restore state saved by :func:`save_checkpoint` onto ``unico``.

    ``unico`` must be freshly constructed with the same design space and
    configuration; continuing with mismatched objective counts raises.
    Completed iterations are tracked on the optimizer
    (:attr:`Unico.completed_iterations`) — the configured
    ``max_iterations`` budget is left untouched, so save/load cycles are
    idempotent.
    """
    payload = json.loads(pathlib.Path(path).read_text())
    version = payload.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ConfigurationError(
            f"checkpoint version {version} unsupported "
            f"(supported: {SUPPORTED_VERSIONS})"
        )
    space = unico.space
    train_objectives = [np.array(y, dtype=float) for y in payload["train_objectives"]]
    if train_objectives and train_objectives[0].shape[0] != unico.num_objectives:
        raise ConfigurationError(
            "checkpoint objective count does not match the optimizer's "
            f"({train_objectives[0].shape[0]} vs {unico.num_objectives})"
        )
    unico.train_configs = [
        _config_from_payload(space, c) for c in payload["train_configs"]
    ]
    unico.train_objectives_raw = train_objectives
    unico.normalizer._low = np.array(payload["normalizer"]["low"])
    unico.normalizer._high = np.array(payload["normalizer"]["high"])
    selector_state = payload.get("selector") or {}
    if selector_state and hasattr(unico.selector, "_distance_archive"):
        unico.selector._best_scalar = selector_state["best_scalar"]
        unico.selector._distance_archive = list(selector_state["distance_archive"])
        unico.selector._uul = selector_state["uul"]
    unico.sampler.rng.bit_generator.state = payload["sampler_rng"]
    unico._trial_counter = payload["trial_counter"]
    unico.total_hw_evaluated = payload["total_hw_evaluated"]
    if "engine_queries" in payload:  # older files: the total restarts here
        unico.restored_engine_queries = (
            int(payload["engine_queries"]) - unico.engine.num_queries
        )
    unico.clock.reset()
    unico.clock.advance(payload["clock_s"], label="restored")
    for design_payload in payload["pareto"]:
        ppa = NetworkPPA(
            latency_s=design_payload["ppa"]["latency_s"],
            energy_j=design_payload["ppa"]["energy_j"],
            power_w=design_payload["ppa"]["power_w"],
            area_mm2=design_payload["ppa"]["area_mm2"],
            feasible=True,
        )
        design = HWDesign(
            hw=_config_from_payload(space, design_payload["hw"]),
            mapping={},
            ppa=ppa,
            robustness=_robustness_from_payload(design_payload, ppa),
        )
        unico.pareto.add(design, design_payload["point"])
    unico.timeline = [
        TimelineEntry(
            time_s=entry["time_s"],
            ppa_vector=np.array(entry["ppa"], dtype=float),
            feasible=entry["feasible"],
        )
        for entry in payload["timeline"]
    ]
    unico.iteration_records = [
        IterationRecord(**record) for record in payload["iteration_records"]
    ]
    # resume point: completed iterations live on the optimizer, not in a
    # destructively shrunk config budget
    unico.completed_iterations = int(
        payload.get("completed_iterations", payload["iteration"])
    )
    return unico
