"""Single-worker run scheduler over the :class:`~repro.tracking.store.RunStore`.

The hub owns run *lifecycle*, not run *execution semantics*: a submitted
spec is validated and written by the harness's
:class:`~repro.experiments.harness.RunSpec`, and executing it is exactly a
:func:`~repro.experiments.harness.launch` call in a child process — the
recipe ``run_method`` and ``repro runs resume`` use — so the crash-safe
journal with its ``iteration_state`` lines, resume and the manifest shape
are the same by whichever route a run started.  One worker executes at a
time (co-searches are CPU-bound; queueing is the honest model on one
box), and the manifest is the single source of truth for state:

``queued`` → (worker picks up) → ``running`` → ``completed`` | ``failed``
                              ↘ (SIGTERM on cancel) → ``cancelled``

Crash handling mirrors the journal's own semantics: a run whose manifest
says ``running`` but whose worker is gone was interrupted — ``reconcile``
marks it ``failed`` with ``interrupted: true`` and ``resumable: true``
when its journal holds an ``iteration_state`` line, so ``repro runs
resume`` (or a hub resubmit with ``resume=True``) can continue it, at the
``checkpoint_every`` it was submitted with.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import sys
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Union

from repro.errors import ConfigurationError, TrackingError
from repro.tracking.store import RunStore
from repro.tracking.tracker import committed_iterations
from repro.utils.metrics import MetricsRegistry
from repro.utils import fork_context

__all__ = ["RunScheduler"]

#: manifest statuses a run cannot leave
TERMINAL_STATUSES = ("completed", "failed", "cancelled")

#: how long :meth:`RunScheduler.stop` waits for its worker thread
STOP_TIMEOUT_S = 10.0

#: what ``POST /runs`` may set: the spec fields that are safe to take from
#: the network (no filesystem paths), plus the run id
SUBMIT_FIELDS = frozenset({
    "method", "scenario", "workload", "preset", "seed", "time_budget_s",
    "eval_batch_size", "checkpoint_every", "tool", "run_id",
})


def _close_fit_helper() -> None:
    """Reap the run's GP-fit helper, if a fit forked one: the run child
    leaves by ``os._exit``, past the ``atexit`` hook that would."""
    # looked up, not imported: a signal that lands while the run is still
    # importing must not import (no fit can have forked a helper yet)
    gp = sys.modules.get("repro.optim.gp")
    if gp is not None:
        gp.close_fit_helper()


def _die_of_signal(signum, _frame) -> None:
    """Die of ``signum`` as its default action would, once the run's GP-fit
    helper is reaped; nothing else of the run executes."""
    _close_fit_helper()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _execute_run(runs_dir: str, run_id: str, resume: bool) -> None:
    """Child-process entry point: run (or resume) one tracked search."""
    # a forked child inherits the hub's SIGTERM/SIGINT drain handlers;
    # replace them so cancellation's SIGTERM actually kills the child and
    # a group-wide Ctrl-C doesn't run the hub shutdown in here
    signal.signal(signal.SIGTERM, _die_of_signal)
    signal.signal(signal.SIGINT, _die_of_signal)
    try:
        from repro.experiments.harness import RunSpec, launch

        run = RunStore(runs_dir).get(run_id)
        launch(RunSpec.from_manifest(run.read_manifest()), run=run, resume=resume)
    finally:
        _close_fit_helper()


class RunScheduler:
    """FIFO scheduler executing one tracked run at a time in a child process."""

    def __init__(
        self,
        store: Union[RunStore, str, pathlib.Path],
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: Deque[str] = deque()
        self._cv = threading.Condition()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        #: run id the worker is currently executing, and its process
        self._current_id: Optional[str] = None
        self._current_proc: Optional[multiprocessing.process.BaseProcess] = None
        self._cancel_requested: Set[str] = set()
        #: run ids queued for resume rather than a fresh start
        self._resume_ids: Set[str] = set()

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "RunScheduler":
        if self._thread is None:
            self._stopping = False
            self._thread = threading.Thread(target=self._worker, daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the worker; a running child is terminated (SIGTERM)."""
        with self._cv:
            self._stopping = True
            proc = self._current_proc
            self._cv.notify_all()
        self._terminate(proc)
        if self._thread is not None:
            self._thread.join(timeout=STOP_TIMEOUT_S)
            self._thread = None

    @staticmethod
    def _terminate(proc: Optional[multiprocessing.process.BaseProcess]) -> None:
        """SIGTERM a child, tolerating it exiting between check and signal."""
        if proc is None:
            return
        try:
            if proc.is_alive():
                proc.terminate()
        except (AttributeError, ValueError, ProcessLookupError):
            pass  # already gone (or a handle copied into the child itself)

    def __enter__(self) -> "RunScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission -------------------------------------------------------------
    def submit(self, spec: Dict) -> str:
        """Validate a run spec, allocate its run directory, and enqueue it.

        The manifest written here is :meth:`RunSpec.to_manifest` — the
        shape every route writes, full preset parameters included, so a
        hub-submitted run is resumable even if its preset name is never
        registered on a future code version.
        """
        unknown = set(spec) - SUBMIT_FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown run-spec fields {sorted(unknown)}"
            )
        from repro.experiments.harness import RunSpec

        manifest = RunSpec.from_manifest(spec).to_manifest()
        manifest.update(submitted_via="hub", status="queued")
        run = self.store.create_run(manifest, run_id=spec.get("run_id"))
        self.metrics.counter("hub_runs_submitted_total").inc()
        with self._cv:
            self._queue.append(run.run_id)
            self._cv.notify_all()
        return run.run_id

    def submit_resume(self, run_id: str) -> str:
        """Enqueue an interrupted run for continuation from its journal."""
        from repro.experiments.harness import RunSpec

        run = self.store.get(run_id)
        manifest = run.read_manifest()
        RunSpec.from_manifest(manifest)  # a manifest launch could not rebuild: 400
        if manifest.get("status") == "completed":
            raise TrackingError(f"run {run_id} already completed")
        with self._cv:
            if run_id in self._queue or run_id == self._current_id:
                raise TrackingError(f"run {run_id} is already scheduled")
            run.set_status("queued", resumable=False)
            self._resume_ids.add(run_id)
            self._queue.append(run_id)
            self._cv.notify_all()
        self.metrics.counter("hub_runs_submitted_total").inc()
        return run_id

    # -- cancellation -----------------------------------------------------------
    def cancel(self, run_id: str) -> str:
        """Cancel a queued or running run; returns the resulting status.

        Queued runs go terminal immediately; the running run gets
        SIGTERM (the child dies mid-iteration, which is exactly the crash
        the journal tolerates) and the worker's postmortem marks it
        ``cancelled`` — so the reply here is ``cancelling``.
        """
        with self._cv:
            if run_id in self._queue:
                self._queue.remove(run_id)
                self._resume_ids.discard(run_id)
                self.store.get(run_id).set_status("cancelled")
                self.metrics.counter("hub_runs_cancelled_total").inc()
                return "cancelled"
            if run_id == self._current_id:
                self._cancel_requested.add(run_id)
                self._terminate(self._current_proc)
                return "cancelling"
        status = self.store.get(run_id).read_manifest().get("status")
        raise TrackingError(
            f"run {run_id} is not cancellable (status {status!r}; "
            "only hub-queued or hub-running runs can be cancelled)"
        )

    # -- introspection ----------------------------------------------------------
    def state(self) -> Dict:
        with self._cv:
            return {
                "queued": list(self._queue),
                "running": self._current_id,
            }

    def reconcile(self) -> List[str]:
        """Mark orphaned ``running``/``queued`` manifests after a hub crash.

        A ``running`` run with no live worker was interrupted: it becomes
        ``failed`` with ``interrupted: true`` and ``resumable: true``
        when its journal holds an ``iteration_state`` line.  An orphaned
        ``queued`` run (submitted before a hub restart) is re-enqueued.
        """
        touched: List[str] = []
        with self._cv:
            scheduled = set(self._queue)
            if self._current_id is not None:
                scheduled.add(self._current_id)
        for run in self.store.list_runs():
            if run.run_id in scheduled:
                continue
            try:
                manifest = run.read_manifest()
            except TrackingError:
                continue
            status = manifest.get("status")
            if status == "running":
                run.set_status(
                    "failed",
                    error="interrupted: no live worker owns this run",
                    interrupted=True,
                    resumable=committed_iterations(run) is not None,
                )
                touched.append(run.run_id)
            elif status == "queued" and manifest.get("submitted_via") == "hub":
                with self._cv:
                    self._queue.append(run.run_id)
                    self._cv.notify_all()
                touched.append(run.run_id)
        return touched

    # -- worker -----------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopping:
                    self._cv.wait(timeout=0.5)
                if self._stopping:
                    return
                run_id = self._queue.popleft()
                resume = run_id in self._resume_ids
                self._resume_ids.discard(run_id)
                self._current_id = run_id
            try:
                self._run_one(run_id, resume)
            finally:
                with self._cv:
                    self._current_id = None
                    self._current_proc = None
                    self._cancel_requested.discard(run_id)

    def _run_one(self, run_id: str, resume: bool) -> None:
        context = fork_context()
        process = context.Process(
            target=_execute_run,
            args=(str(self.store.root), run_id, resume),
            daemon=True,
        )
        with self._cv:
            self._current_proc = process
            cancelled_early = run_id in self._cancel_requested
        if cancelled_early:
            self.store.get(run_id).set_status("cancelled")
            self.metrics.counter("hub_runs_cancelled_total").inc()
            return
        process.start()
        process.join()
        self._postmortem(run_id, process.exitcode)

    def _postmortem(self, run_id: str, exitcode: Optional[int]) -> None:
        """Reconcile the manifest with how the child actually exited."""
        run = self.store.get(run_id)
        try:
            status = run.read_manifest().get("status")
        except TrackingError:  # pragma: no cover - manifest corrupted
            status = None
        cancelled = run_id in self._cancel_requested
        if cancelled and status != "completed":
            run.set_status(
                "cancelled",
                interrupted=True,
                resumable=committed_iterations(run) is not None,
            )
            self.metrics.counter("hub_runs_cancelled_total").inc()
            return
        if status == "completed":
            self.metrics.counter("hub_runs_completed_total").inc()
            return
        if status != "failed":
            # the child died without reaching a terminal status (hard
            # crash, OOM kill): record the interruption honestly
            run.set_status(
                "failed",
                error=f"worker exited with code {exitcode} "
                      "before the run reached a terminal status",
                interrupted=True,
                resumable=committed_iterations(run) is not None,
            )
        self.metrics.counter("hub_runs_failed_total").inc()
