"""Tracker hooks: how a running co-search reports itself to the outside.

:class:`Tracker` is the observer interface threaded through
:meth:`repro.core.unico.Unico.optimize`, ``Unico._run_msh``, the
high-fidelity surrogate update and :func:`repro.experiments.harness.run_method`.
Every hook is a no-op on the base class, so custom trackers override only
what they need; the hot path guards event assembly behind
:attr:`Tracker.enabled` so an untracked search pays nothing.

:class:`JournalTracker` is the production implementation: it writes typed
events into a run's :class:`~repro.tracking.journal.EventJournal` and keeps
the run's ``manifest.json`` lifecycle up to date.  Every
``checkpoint_every`` committed iterations it closes the iteration with an
``iteration_state`` line, the optimizer's state
(``optimizer.commit_state()``) — the journal is all ``repro runs resume``
needs to continue a killed search.

:func:`committed_journal` reads a run back for a resume: the journal up to
its last complete ``iteration_state``, the point the resume cuts it back
to.  Whatever followed was the uncommitted part of an iteration; the
resumed run writes it again, so every iteration appears exactly once and
:func:`replay_iteration_records` refuses a journal where one does not.
"""

from __future__ import annotations

import bisect
import math
import pathlib
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Union, get_type_hints

import numpy as np

from repro.errors import TrackingError
from repro.tracking.journal import (
    JOURNAL_VERSION,
    EventJournal,
    JournalScan,
    encode_value,
    last_state_end,
    read_bytes_from,
    read_events,
    read_tail_events,
    scan_bytes,
    verify_sequence,
)
from repro.tracking.store import RunHandle
from repro.utils.records import to_jsonable


@dataclass
class IterationRecord:
    """Per-MOBO-iteration diagnostics: the ``iteration_end`` payload.

    Defined here, below the optimizers, because the journal persists it and
    :func:`replay_iteration_records` rebuilds it.
    """

    iteration: int
    time_s: float
    uul: float
    num_selected: int
    num_feasible: int
    pareto_size: int
    best_scalar: float


class Tracker:
    """Observer interface for co-search runs; every hook is optional.

    ``optimizer`` is always the co-optimizer emitting the event; hooks
    must not mutate it.  Objects in payload positions (configs,
    evaluations, records) are *live* — serialize, don't keep.
    """

    #: hot paths skip event assembly entirely when this is False
    enabled: bool = True

    def on_run_start(self, optimizer) -> None:
        """Called once at the top of ``optimize()`` (also on resume)."""

    def on_iteration_start(self, optimizer, iteration: int) -> None:
        """A MOBO iteration is about to sample its batch."""

    def on_hw_sampled(self, optimizer, iteration: int, configs: List) -> None:
        """The iteration's hardware batch was drawn from the sampler."""

    def on_msh_round(
        self,
        optimizer,
        iteration: int,
        round_index: int,
        cumulative_budget: int,
        candidates: List[int],
        tv: Dict[int, float],
        auc: Dict[int, float],
        survivors: List[int],
        promoted: List[int],
    ) -> None:
        """One (M)SH round finished; ``promoted`` survived only via AUC."""

    def on_evaluation(
        self,
        optimizer,
        evaluation,
        added: bool,
        batch_id=None,
        batch_size=None,
    ) -> None:
        """A candidate's Y was assembled; ``added`` = joined the front.

        ``batch_id``/``batch_size`` identify the HW-evaluation batch the
        candidate belonged to (when the optimizer evaluates in batches), so
        consumers can report effective throughput per batch.
        """

    def on_surrogate_update(
        self,
        optimizer,
        iteration: int,
        scalars: np.ndarray,
        selected: np.ndarray,
        uul_before: float,
        uul_after: float,
    ) -> None:
        """The UUL (or champion) rule accepted/rejected batch members."""

    def on_iteration_end(self, optimizer, record: IterationRecord) -> None:
        """An :class:`IterationRecord` was finalized."""

    def on_search_health(self, optimizer, iteration: int, health: Dict) -> None:
        """Per-iteration search-health beacon (HV, front size, screening).

        ``health`` is a plain JSON-ready dict assembled by the optimizer,
        so a reader of the journal sees hypervolume progress and screening
        drift without replaying the run.
        """

    def on_iteration_committed(self, optimizer) -> None:
        """The iteration is over and every line of it is written: the
        point where its state may be journaled."""

    def on_run_end(self, optimizer, result) -> None:
        """``optimize()`` is returning ``result``."""

    def on_run_failed(self, optimizer, error: BaseException) -> None:
        """``optimize()`` raised; the run is being abandoned."""

    def close(self) -> None:
        """Release any resources (files, sockets)."""


class NullTracker(Tracker):
    """The default: observes nothing, costs nothing."""

    enabled = False


#: per-object JSON texts a sample sink holds (hardware, layer shapes),
#: cleared past this many — bounded like the engine's hardware keys
TEXTS_HELD = 256


def _held_text(texts: Dict, obj, render) -> str:
    """``render(obj)``, kept in ``texts`` by object identity.  The object
    is held with its text, so its ``id`` stays its own while cached."""
    held = texts.get(id(obj))
    if held is None or held[0] is not obj:
        if len(texts) >= TEXTS_HELD:
            texts.clear()
        held = texts[id(obj)] = (obj, render(obj))
    return held[1]


def _finite_text(value: float) -> str:
    """A float as the journal writes a measured one: non-finite is null."""
    value = float(value)
    return float.__repr__(value) if math.isfinite(value) else "null"


def _hw_text(hw) -> str:
    """``', "hw": {...}, "latency_s": '`` — the config's part of a sample."""
    fields = {str(k): to_jsonable(v) for k, v in vars(hw).items()}
    return f', "hw": {encode_value(fields)}, "latency_s": '


def _shape_text(shape) -> str:
    """The tail of a sample line after its ``seq``."""
    dims = encode_value((shape.m, shape.n, shape.k, shape.reuse_penalty))
    return f', "shape": {dims}, "type": "engine_sample"}}'


class JournalSampleSink:
    """Engine sample sink that journals per-candidate ``engine_sample`` events.

    Installed on a ``PPAEngine`` (``engine.sample_sink = sink``) it records
    one event per *computed* cost-model query — the training data the
    :mod:`repro.learned` subsystem distills.  The engine calls it once per
    engine call, ``sink(hw, samples)`` with ``samples = [(layer_name,
    mapping, shape, result), ...]``, and the samples of one call are
    group-committed: consecutive ``seq``, one journal write.  The payload
    is self-contained (hardware variables, mapping key, layer shape, exact
    PPA), so datasets can be extracted from a journal without the run's
    design space or workload registry.

    Lines are rendered here, not encoded from dicts: each is the text the
    journal's encoder would write for the event (sorted keys, the same
    value texts), cut at its ``seq`` for
    :meth:`~repro.tracking.journal.EventJournal.append_framed`.  The
    config's text is encoded once per ``hw`` object and the shape's once
    per shape object, held by identity up to :data:`TEXTS_HELD` each —
    more than the last one, because a lockstep MSH round hands over its
    live trials' configs in turn.  An engine calls its sink outside its
    lock, from whichever thread queried it; the caches only ever gain
    whole entries or are cleared, and the journal's group appends order
    the lines.
    """

    #: payload schema, independent of JOURNAL_VERSION so the sample shape
    #: can grow without a journal format bump
    SAMPLE_SCHEMA = 1

    def __init__(self, journal: EventJournal):
        self.journal = journal
        #: ``id(hw) -> (hw, _hw_text(hw))``
        self._hw_texts: Dict[int, tuple] = {}
        #: ``id(shape) -> (shape, _shape_text(shape))``
        self._shape_texts: Dict[int, tuple] = {}
        #: layer name -> its JSON string
        self._layer_texts: Dict[str, str] = {}
        self._seq_lead = f', "sample_schema": {self.SAMPLE_SCHEMA}, "seq": '

    def __call__(self, hw, samples) -> None:
        hw_text = _held_text(self._hw_texts, hw, _hw_text)
        shape_texts, layer_texts = self._shape_texts, self._layer_texts
        seq_lead = self._seq_lead
        frames = []
        for layer_name, mapping, shape, result in samples:
            layer_text = layer_texts.get(layer_name)
            if layer_text is None:
                if len(layer_texts) >= TEXTS_HELD:
                    layer_texts.clear()
                layer_text = layer_texts[layer_name] = encode_basestring_ascii(
                    str(layer_name)
                )
            frames.append((
                f'{{"energy_j": {_finite_text(result.energy_j)}, '
                f'"feasible": {"true" if result.feasible else "false"}'
                f"{hw_text}{_finite_text(result.latency_s)}, "
                f'"layer": {layer_text}, '
                f'"mapping": {encode_value(mapping.key())}, '
                f'"reason": {encode_basestring_ascii(str(result.infeasible_reason))}'
                f"{seq_lead}",
                _held_text(shape_texts, shape, _shape_text),
            ))
        self.journal.append_framed(frames)


class JournalTracker(Tracker):
    """Persist a run's trajectory into its run directory.

    Parameters
    ----------
    run:
        The :class:`~repro.tracking.store.RunHandle` to write into.
    checkpoint_every:
        Period, in committed iterations, of the ``iteration_state`` lines a
        resume folds (``0``: journal only, not resumable).
    fsync:
        Flush every journal line to stable storage (see
        :class:`~repro.tracking.journal.EventJournal`).
    resume:
        The run's :func:`committed_journal`: the journal is cut back to its
        end, numbering continues after it, and a ``resume`` event is
        announced instead of ``run_start``.
    """

    def __init__(
        self,
        run: RunHandle,
        checkpoint_every: int = 1,
        fsync: bool = False,
        resume: Optional[JournalScan] = None,
    ):
        if checkpoint_every < 0:
            raise TrackingError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.run = run
        self.checkpoint_every = checkpoint_every
        self._resuming = resume is not None
        self.journal = (
            EventJournal.open_resume(run.journal_path, fsync=fsync, scan=resume)
            if self._resuming
            else EventJournal(run.journal_path, fsync=fsync)
        )

    # ------------------------------------------------------------------ events
    def _emit(self, optimizer, event_type: str, payload: Dict) -> None:
        event = {"wall_time": time.time()}
        if optimizer is not None:
            event["time_s"] = float(optimizer.clock.now_s)
        event.update(payload)
        self.journal.append(event_type, event)

    def _hw_payload(self, optimizer, hw) -> Dict:
        return {str(k): to_jsonable(v) for k, v in optimizer.space.from_config(hw).items()}

    def on_run_start(self, optimizer) -> None:
        completed = int(getattr(optimizer, "completed_iterations", 0))
        payload = {
            "journal_version": JOURNAL_VERSION,
            "run_id": self.run.run_id,
            "method": optimizer.method_name,
            "completed_iterations": completed,
        }
        self._emit(optimizer, "resume" if self._resuming else "run_start", payload)
        self.run.set_status("running")

    def on_iteration_start(self, optimizer, iteration: int) -> None:
        self._emit(optimizer, "iteration_start", {"iteration": iteration})

    def on_hw_sampled(self, optimizer, iteration: int, configs: List) -> None:
        self._emit(
            optimizer,
            "hw_sampled",
            {
                "iteration": iteration,
                "num_configs": len(configs),
                "configs": [self._hw_payload(optimizer, hw) for hw in configs],
            },
        )

    def on_msh_round(
        self,
        optimizer,
        iteration: int,
        round_index: int,
        cumulative_budget: int,
        candidates: List[int],
        tv: Dict[int, float],
        auc: Dict[int, float],
        survivors: List[int],
        promoted: List[int],
    ) -> None:
        self._emit(
            optimizer,
            "msh_round",
            {
                "iteration": iteration,
                "round_index": round_index,
                "cumulative_budget": cumulative_budget,
                "candidates": list(candidates),
                "tv": {str(k): to_jsonable(v) for k, v in tv.items()},
                "auc": {str(k): to_jsonable(v) for k, v in auc.items()},
                "survivors": list(survivors),
                "auc_promoted": list(promoted),
            },
        )

    def on_evaluation(
        self,
        optimizer,
        evaluation,
        added: bool,
        batch_id=None,
        batch_size=None,
    ) -> None:
        payload = {
            "hw": self._hw_payload(optimizer, evaluation.hw),
            "objectives": to_jsonable(evaluation.objectives),
            "feasible": bool(evaluation.feasible),
            "added_to_pareto": bool(added),
        }
        # batch membership is additive: untracked (scalar) optimizers keep
        # the historical event shape, so resume semantics are unchanged
        if batch_id is not None:
            payload["batch_id"] = int(batch_id)
        if batch_size is not None:
            payload["batch_size"] = int(batch_size)
        self._emit(optimizer, "evaluation", payload)
        if added:
            self._emit(
                optimizer,
                "pareto_update",
                {
                    "pareto_size": len(optimizer.pareto),
                    "point": to_jsonable(evaluation.ppa_vector),
                },
            )

    def on_surrogate_update(
        self,
        optimizer,
        iteration: int,
        scalars: np.ndarray,
        selected: np.ndarray,
        uul_before: float,
        uul_after: float,
    ) -> None:
        self._emit(
            optimizer,
            "surrogate_update",
            {
                "iteration": iteration,
                "rule": type(optimizer.selector).__name__,
                "scalars": to_jsonable(scalars),
                "accepted": [int(i) for i in np.flatnonzero(selected)],
                "rejected": [int(i) for i in np.flatnonzero(~np.asarray(selected))],
                "uul_before": to_jsonable(uul_before),
                "uul_after": to_jsonable(uul_after),
                "best_scalar": to_jsonable(optimizer.selector.best_scalar)
                if hasattr(optimizer.selector, "best_scalar")
                else None,
            },
        )

    def on_iteration_end(self, optimizer, record) -> None:
        self._emit(
            optimizer,
            "iteration_end",
            {"iteration": record.iteration, "record": to_jsonable(record)},
        )

    def on_search_health(self, optimizer, iteration: int, health: Dict) -> None:
        payload = {"iteration": int(iteration)}
        payload.update({str(k): to_jsonable(v) for k, v in health.items()})
        self._emit(optimizer, "search_health", payload)

    def on_iteration_committed(self, optimizer) -> None:
        completed = int(getattr(optimizer, "completed_iterations", 0))
        if self.checkpoint_every and completed % self.checkpoint_every == 0:
            self.checkpoint(optimizer)

    def checkpoint(self, optimizer) -> None:
        """Journal the optimizer's ``iteration_state`` line.

        The payload is ``optimizer.commit_state()``: what changed since
        the previous state line, and the small state whole (see
        :mod:`repro.core.checkpoint`).
        """
        self._emit(optimizer, "iteration_state", optimizer.commit_state())

    def engine_snapshot(self, optimizer) -> None:
        """Journal the engine + metrics state (observability)."""
        payload: Dict = {}
        engine = getattr(optimizer, "engine", None)
        if engine is not None and hasattr(engine, "stats"):
            payload["engine"] = to_jsonable(engine.stats())
        metrics = getattr(engine, "metrics", None)
        if metrics is not None and hasattr(metrics, "summary"):
            payload["metrics"] = metrics.summary()
        self._emit(optimizer, "engine_snapshot", payload)

    def on_run_end(self, optimizer, result) -> None:
        self.engine_snapshot(optimizer)
        self._emit(
            optimizer,
            "run_end",
            {
                "completed_iterations": int(
                    getattr(optimizer, "completed_iterations", 0)
                ),
                "total_hw_evaluated": result.total_hw_evaluated,
                "total_engine_queries": result.total_engine_queries,
                "total_time_s": result.total_time_s,
                "pareto_size": len(result.pareto),
            },
        )
        self.run.set_status(
            "completed",
            total_time_s=result.total_time_s,
            total_hw_evaluated=result.total_hw_evaluated,
            pareto_size=len(result.pareto),
        )
        self.close()

    def on_run_failed(self, optimizer, error: BaseException) -> None:
        self.run.set_status("failed", error=f"{type(error).__name__}: {error}")
        self.close()

    def close(self) -> None:
        self.journal.close()


# ------------------------------------------------- reading a run back
def replay_iteration_records(
    source: Union[str, pathlib.Path, JournalScan]
) -> List[IterationRecord]:
    """Reconstruct the :class:`IterationRecord` sequence from a journal.

    Returns records ordered by iteration index.  An iteration recorded
    twice is a :class:`TrackingError`: a resume cuts the uncommitted part
    of an iteration away before it runs that iteration again.
    """
    scan = source if isinstance(source, JournalScan) else read_events(source)
    by_iteration: Dict[int, IterationRecord] = {}
    for event in scan.of_type("iteration_end"):
        payload = event.get("record") or {}
        try:
            record = IterationRecord(**{
                name: cast(payload[name])
                for name, cast in get_type_hints(IterationRecord).items()
            })
        except (KeyError, TypeError, ValueError) as error:
            raise TrackingError(
                f"malformed iteration_end event (seq {event.get('seq')}): {error}"
            )
        if record.iteration in by_iteration:
            raise TrackingError(
                f"iteration {record.iteration} is recorded twice "
                f"(again at seq {event.get('seq')})"
            )
        by_iteration[record.iteration] = record
    return [by_iteration[i] for i in sorted(by_iteration)]


def committed_journal(run: RunHandle) -> JournalScan:
    """A run's journal up to the end of its last complete ``iteration_state``.

    The scan's :attr:`~JournalScan.valid_bytes` is the cut a resume makes
    (:func:`~repro.tracking.journal.last_state_end`), and it reports a
    truncated tail when the file runs on past it.  Nothing is written.
    Refuses (:class:`TrackingError`) a run kept in checkpoint files, a
    journal without a state line and one whose sequence is broken.
    """
    if (run.dir / "checkpoints").is_dir():
        raise TrackingError(
            f"run {run.run_id} keeps its state in checkpoint files, which "
            "this version does not read; re-run it from scratch"
        )
    raw = read_bytes_from(run.journal_path, 0)
    scan = scan_bytes(raw[:last_state_end(raw)], 0)
    end = last_state_end(raw, scan.valid_bytes)  # before any corrupt line
    kept = bisect.bisect_right(scan.event_offsets, end)
    if end == 0 or scan.events[kept - 1].get("type") != "iteration_state":
        raise TrackingError(
            f"run {run.run_id} has no checkpoint (no complete iteration_state "
            "line) to resume from; re-run it from scratch instead"
        )
    del scan.events[kept:], scan.event_offsets[kept:]
    scan.truncated_tail = end < len(raw)
    scan.valid_bytes = end
    scan.last_seq = int(scan.events[-1]["seq"])
    verify_sequence(scan)
    return scan


def committed_iterations(run: RunHandle) -> Optional[int]:
    """Iterations a resume of ``run`` starts after (its journal's last
    ``iteration_state``, read from the tail); ``None``: not resumable."""
    if run.journal_path.exists():
        tail = read_tail_events(run.journal_path, 1, event_type="iteration_state")
        if tail.events:
            return int(tail.events[-1]["completed_iterations"])
    return None


def verify_run(run: RunHandle) -> Dict:
    """Structural consistency check of one run directory.

    Returns a summary dict (with the replayed ``iteration_records`` and
    the ``committed_iterations`` a resume would start after); raises
    :class:`TrackingError` on broken sequence numbering or missing
    artifacts.  A truncated journal tail (the signature of a kill
    mid-write) is reported, not rejected.
    """
    manifest = run.read_manifest()
    if not run.journal_path.exists():
        raise TrackingError(f"run {run.run_id} has no journal")
    scan = read_events(run.journal_path)
    verify_sequence(scan)
    records = replay_iteration_records(scan)
    expected = list(range(len(records)))
    if [r.iteration for r in records] != expected:
        raise TrackingError(
            f"run {run.run_id}: journal iteration records are not contiguous "
            f"({[r.iteration for r in records]})"
        )
    return {
        "run_id": run.run_id,
        "status": manifest.get("status", "created"),
        "num_events": len(scan.events),
        "truncated_tail": scan.truncated_tail,
        "journal_iterations": len(records),
        "iteration_records": records,
        "committed_iterations": committed_iterations(run),
    }


__all__ = [
    "IterationRecord",
    "JournalSampleSink",
    "JournalTracker",
    "NullTracker",
    "Tracker",
    "committed_iterations",
    "committed_journal",
    "replay_iteration_records",
    "verify_run",
]
