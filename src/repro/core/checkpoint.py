"""Algorithm 1's state as ``iteration_state`` journal lines, and the fold back.

Every committed iteration of a tracked run ends with one ``iteration_state``
line (:func:`encode_state`, via :meth:`~repro.core.unico.Unico.commit_state`
and :meth:`~repro.tracking.tracker.JournalTracker.checkpoint`).  It holds,
as deltas since the previous state line, the lists that only grow — the
high-fidelity training rows, the timeline, the designs that joined the
Pareto front and the UUL distance archive — and, whole, the small state:
the MOBO sampler's RNG, the normaliser, the selector scalars, the counters,
the simulated clock, ``completed_iterations`` and the ``search_health``
hypervolume reference.

:func:`fold_journal` replays a committed journal
(:func:`~repro.tracking.tracker.committed_journal`) onto a fresh optimizer
with the same spaces, config and seed; ``optimize()`` then continues after
the last committed iteration.  Iteration records come from the journal's
``iteration_end`` events.  A front delta lists the designs that joined
since the previous state and are still on it: dominance is transitive, so
adding them in order evicts what the ones that came and went evicted.
Per-layer mappings are not kept; front designs keep their PPA and
robustness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

import numpy as np

from repro.core.base import HWDesign, TimelineEntry
from repro.core.robustness import RobustnessResult
from repro.errors import ConfigurationError
from repro.ppa import NetworkPPA
from repro.tracking.tracker import replay_iteration_records

_PPA_FIELDS = ("latency_s", "energy_j", "power_w", "area_mm2")


@dataclass(frozen=True)
class StateMarks:
    """How much of each growing list the last state line covered."""

    train: int = 0
    timeline: int = 0
    distances: int = 0
    #: the front's designs at the last state line
    front: tuple = ()


def _floats(values) -> list:
    return [float(v) for v in values]


def _config_payload(space, config) -> Dict:
    return {str(k): v for k, v in space.from_config(config).items()}


def encode_state(unico) -> Dict:
    """The ``iteration_state`` payload of ``unico``; advances its marks."""
    marks, space = unico.state_marks, unico.space
    committed = {id(design) for design in marks.front}
    selector = {}
    distances = getattr(unico.selector, "_distance_archive", None)
    if distances is not None:
        selector = {
            "best_scalar": unico.selector.best_scalar,
            "uul": unico.selector.uul,
            "distances": distances[marks.distances:],
        }
    reference = getattr(unico, "_hv_reference", None)
    state = {
        "completed_iterations": unico.completed_iterations,
        "clock_s": unico.clock.now_s,
        "counters": {
            "trial_counter": unico._trial_counter,
            "total_hw_evaluated": unico.total_hw_evaluated,
            "engine_queries": unico.restored_engine_queries
            + unico.engine.num_queries,
        },
        "normalizer": {
            "low": _floats(unico.normalizer._low),
            "high": _floats(unico.normalizer._high),
        },
        "sampler_rng": unico.sampler.rng.bit_generator.state,
        "selector": selector,
        "hv_reference": None if reference is None else _floats(reference),
        "train": [
            {"hw": _config_payload(space, config), "objectives": _floats(y)}
            for config, y in zip(
                unico.train_configs[marks.train:],
                unico.train_objectives_raw[marks.train:],
            )
        ],
        "timeline": [
            [entry.time_s, _floats(entry.ppa_vector), bool(entry.feasible)]
            for entry in unico.timeline[marks.timeline:]
        ],
        "front": [
            {
                "hw": _config_payload(space, design.hw),
                "ppa": {name: getattr(design.ppa, name) for name in _PPA_FIELDS},
                "robustness": {
                    name: float(value)
                    for name, value in asdict(design.robustness).items()
                },
            }
            for design in unico.pareto.items
            if id(design) not in committed
        ],
    }
    unico.state_marks = _marks_of(unico)
    return state


def _marks_of(unico) -> StateMarks:
    return StateMarks(
        train=len(unico.train_configs),
        timeline=len(unico.timeline),
        distances=len(getattr(unico.selector, "_distance_archive", ())),
        front=unico.pareto.items,
    )


def fold_journal(unico, committed):
    """Restore ``unico`` from a committed journal scan; returns ``unico``.

    The scan's ``iteration_state`` payloads apply oldest first, and its
    ``iteration_end`` events give the iteration records.  ``unico`` must be
    freshly constructed with the same design space and configuration; a
    state of another objective count raises :class:`ConfigurationError`.
    ``completed_iterations`` is set on the optimizer and ``max_iterations``
    is left alone, so resumes never erode the budget.
    """
    space = unico.space
    for state in committed.of_type("iteration_state"):
        low = np.array(state["normalizer"]["low"], dtype=float)
        if low.shape != (unico.num_objectives,):
            raise ConfigurationError(
                "iteration_state objective count does not match the "
                f"optimizer's ({low.shape[0]} vs {unico.num_objectives})"
            )
        unico.normalizer._low = low
        unico.normalizer._high = np.array(state["normalizer"]["high"], dtype=float)
        for row in state["train"]:
            unico.train_configs.append(space.to_config(dict(row["hw"])))
            unico.train_objectives_raw.append(
                np.array(row["objectives"], dtype=float)
            )
        unico.timeline.extend(
            TimelineEntry(time_s, np.array(ppa, dtype=float), feasible)
            for time_s, ppa, feasible in state["timeline"]
        )
        for entry in state["front"]:
            design = HWDesign(
                hw=space.to_config(dict(entry["hw"])),
                mapping={},
                ppa=NetworkPPA(feasible=True, **entry["ppa"]),
                robustness=RobustnessResult(**entry["robustness"]),
            )
            unico.pareto.add(design, design.ppa_vector)
        selector = state["selector"]
        if selector:
            unico.selector._best_scalar = selector["best_scalar"]
            unico.selector._uul = selector["uul"]
            unico.selector._distance_archive.extend(selector["distances"])
        if state["hv_reference"] is not None:
            unico._hv_reference = np.array(state["hv_reference"], dtype=float)
        unico.sampler.rng.bit_generator.state = state["sampler_rng"]
        counters = state["counters"]
        unico._trial_counter = counters["trial_counter"]
        unico.total_hw_evaluated = counters["total_hw_evaluated"]
        unico.restored_engine_queries = (
            counters["engine_queries"] - unico.engine.num_queries
        )
        unico.clock.reset()
        unico.clock.advance(state["clock_s"], label="restored")
        unico.completed_iterations = int(state["completed_iterations"])
    unico.iteration_records = replay_iteration_records(committed)
    unico.state_marks = _marks_of(unico)
    return unico
