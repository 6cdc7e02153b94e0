"""Job execution backends for the parallel implementation (Section 3.5).

"Within each successive halving round, we run standalone Jobs via
multi-processing in parallel, where each job handles the SW mapping search
for a selected hardware configuration."

Two layers of parallelism are modeled in this reproduction:

* **Simulated-time parallelism** — the co-optimizers always account for the
  worker count through :meth:`SimulatedClock.advance_parallel`; this is what
  the reported Cost(h) columns measure.
* **Real compute parallelism** — :class:`JobRunner` dispatches the actual
  Python work.  The in-process analytical engine is so fast that the serial
  backend is the default, and ``Unico`` does not hand a serial round to
  this class at all: it advances the round's live trials in lockstep
  (:func:`repro.core.evaluation.advance_lockstep`), so that trials sharing
  one :class:`~repro.costmodel.service.RemotePPAEngine` (the deployment of
  Fig. 6(b)) share each HTTP exchange.  The ``thread`` backend runs every
  trial as its own job; it overlaps only the time a job spends blocked on
  a socket, and measured on the ``remote_inner`` benchmark workload
  (DESIGN.md section 4l) that is not enough to beat one trial at a time —
  the client side of an exchange is Python under the GIL — while lockstep
  is about a fifth faster than either.  The ``process`` backend is the
  paper's multi-processing dispatch for CPU-bound standalone jobs.

Process dispatch requires picklable jobs (results come back over a pipe,
and mutations of shared objects would be lost in the child).  ``JobRunner``
checks picklability up front and degrades to the thread pool — counting
the fallback — rather than crashing mid-round or silently dropping
side effects.
"""

from __future__ import annotations

import functools
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.utils.metrics import MetricsRegistry
from repro.utils import fork_context

ResultT = TypeVar("ResultT")

BACKENDS = ("serial", "thread", "process")


class JobRunner:
    """Run a list of no-argument jobs and return their results in order."""

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; use one of {BACKENDS}"
            )
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.backend = backend
        self.max_workers = max_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.num_batches = 0
        self.num_jobs = 0
        #: process batches degraded to threads because a job failed to pickle
        self.num_pickle_fallbacks = 0

    def map(self, jobs: Sequence[Callable[[], ResultT]]) -> List[ResultT]:
        """Execute every job; results keep the submission order.

        A failing job propagates its exception (after all submitted jobs
        have been scheduled) — silent partial results would corrupt a
        successive-halving round.
        """
        if not jobs:
            return []
        self.num_batches += 1
        self.num_jobs += len(jobs)
        self.metrics.counter("runner_batches_total").inc()
        self.metrics.counter("runner_jobs_total").inc(len(jobs))
        start = time.perf_counter()
        try:
            if self.backend == "serial" or len(jobs) == 1:
                return [job() for job in jobs]
            if self.backend == "process":
                if self._all_picklable(jobs):
                    return self._map_process(jobs)
                self.num_pickle_fallbacks += 1
                self.metrics.counter("runner_pickle_fallbacks_total").inc()
            return self._map_thread(jobs)
        finally:
            self.metrics.histogram("runner_batch_seconds").observe(
                time.perf_counter() - start
            )

    def stats(self) -> dict:
        """Dispatch counters, JSON-able (journaled by engine snapshots)."""
        return {
            "backend": self.backend,
            "max_workers": self.max_workers,
            "num_batches": self.num_batches,
            "num_jobs": self.num_jobs,
            "num_pickle_fallbacks": self.num_pickle_fallbacks,
        }

    def starmap(
        self, fn: Callable[..., ResultT], args_list: Sequence[tuple]
    ) -> List[ResultT]:
        """Convenience: apply ``fn`` to each argument tuple.

        Jobs are built with :func:`functools.partial`, so a module-level
        ``fn`` with picklable arguments dispatches to real processes.
        """
        return self.map([functools.partial(fn, *args) for args in args_list])

    # ------------------------------------------------------------------ backends
    def _map_thread(self, jobs: Sequence[Callable[[], ResultT]]) -> List[ResultT]:
        workers = min(self.max_workers, len(jobs))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(job) for job in jobs]
            return [future.result() for future in futures]

    def _map_process(self, jobs: Sequence[Callable[[], ResultT]]) -> List[ResultT]:
        workers = min(self.max_workers, len(jobs))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=fork_context()
        ) as pool:
            futures = [pool.submit(job) for job in jobs]
            return [future.result() for future in futures]

    def _all_picklable(self, jobs: Sequence[Callable[[], ResultT]]) -> bool:
        for job in jobs:
            try:
                pickle.dumps(job)
            except Exception as error:
                # expected for closures/local state; surfaced through the
                # metrics path (not swallowed) so operators can see *why*
                # process dispatch degraded to threads
                self.metrics.counter("runner_unpicklable_jobs_total").inc()
                self.metrics.counter(
                    f"runner_unpicklable_{type(error).__name__}_total"
                ).inc()
                return False
        return True
