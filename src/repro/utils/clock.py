"""Simulated wall clock for search-cost accounting.

The paper reports search cost in wall-clock hours on a fixed server, where
the dominant cost is PPA evaluation: an analytical model call costs a fraction
of a second, a cycle-accurate model call costs 2-10 minutes.  Re-burning those
hours is neither feasible nor necessary for reproducing the *comparison*:
every method's cost curve is a function of how many and which evaluations it
spends.  ``SimulatedClock`` charges a modeled duration per event and exposes
the accumulated virtual time; experiment harnesses read it instead of
``time.time()``.  A co-optimizer owns the one clock of a search and charges
it per query its trials spent; PPA engines only count queries.

Parallelism is modeled with :meth:`advance_parallel`: a batch of jobs run on
``workers`` machines advances the clock by the makespan of a longest-
processing-time-first schedule, mirroring the paper's master-slave execution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Sequence


@dataclass
class SimulatedClock:
    """Accumulates simulated seconds, in total and per label.

    Keeps no per-charge log, only a total per label: a long search
    charges it once per round or candidate for as long as it runs.

    Parameters
    ----------
    workers:
        Number of parallel evaluation workers available to
        :meth:`advance_parallel`.  Serial methods simply call
        :meth:`advance`.
    """

    workers: int = 1
    _now_s: float = 0.0
    _totals: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_s

    def advance(self, duration_s: float, label: str = "event") -> float:
        """Charge one serial event and return the new time."""
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        self._now_s += duration_s
        self._totals[label] = self._totals.get(label, 0.0) + duration_s
        return self._now_s

    def advance_parallel(
        self, durations_s: Sequence[float], label: str = "batch"
    ) -> float:
        """Charge a batch of jobs scheduled on ``self.workers`` machines.

        The clock advances by the makespan of a longest-processing-time-first
        (LPT) schedule, which is how a work-stealing pool behaves in practice.
        Returns the new time.
        """
        durations = [float(d) for d in durations_s]
        if any(d < 0 for d in durations):
            raise ValueError("durations must be non-negative")
        if not durations:
            return self._now_s
        if self.workers == 1:
            return self.advance(sum(durations), label)
        loads = [0.0] * self.workers
        heapq.heapify(loads)
        for duration in sorted(durations, reverse=True):
            least = heapq.heappop(loads)
            heapq.heappush(loads, least + duration)
        return self.advance(max(loads), label)

    def total(self, label: str) -> float:
        """Total seconds charged under ``label``."""
        return self._totals.get(label, 0.0)

    def reset(self) -> None:
        """Zero the clock and every label's total."""
        self._now_s = 0.0
        self._totals.clear()
