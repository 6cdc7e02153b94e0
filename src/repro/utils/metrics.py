"""Process-local observability primitives: counters and latency histograms.

The production deployment of the Section 3.5 estimation service (Fig. 6b)
needs visibility into what the service is doing — how many queries it
served, how the cache behaves, how long real computations take, how often
clients had to retry.  This module provides the minimal, dependency-free
instruments the rest of the library threads through its hot paths:

* :class:`Counter` — a monotonically increasing count (queries, hits,
  evictions, retries, ...).
* :class:`Histogram` — bucketed observations of *real* elapsed seconds
  (distinct from the :class:`~repro.utils.clock.SimulatedClock`, which
  models search cost; histograms measure the wall time this process
  actually spent).
* :class:`MetricsRegistry` — a named collection of the above, shared by an
  engine and its HTTP server, snapshot as JSON for the ``GET /metrics``
  endpoint and the ``python -m repro stats`` subcommand.

All instruments are thread-safe: the service's handler threads count
against one shared engine, and so do the ``max_inflight`` fan-out threads
of a :class:`~repro.costmodel.service.RemotePPAEngine` on the client side.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

#: Default latency buckets (seconds), roughly log-spaced like Prometheus'
#: defaults; the last implicit bucket is +Inf.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the counter in place (held references stay live)."""
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self._value})"


class Histogram:
    """Bucketed observations (cumulative-style buckets, like Prometheus).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; one extra
    overflow bucket counts the rest.  Also tracks count/sum/min/max so
    summaries stay exact even when the bucketing is coarse.
    """

    __slots__ = ("name", "bounds", "_bucket_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BOUNDS
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError(f"bounds must be non-empty and sorted, got {chosen}")
        self.bounds: Tuple[float, ...] = chosen
        self._bucket_counts = [0] * (len(chosen) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # the first bound ``value`` is <= to; a nan is <= none of them
        index = bisect_left(self.bounds, value) if value == value else len(self.bounds)
        with self._lock:
            self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def time(self) -> "_Timer":
        """Context manager observing the elapsed real time of its body."""
        return _Timer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket boundaries.

        Exact at the recorded min/max; interior quantiles resolve to the
        upper bound of the bucket containing the q-th observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            if q == 0.0:
                return self._min
            target = q * self._count
            seen = 0
            for i, bucket_count in enumerate(self._bucket_counts):
                seen += bucket_count
                if seen >= target:
                    if i == len(self.bounds):
                        return self._max
                    return min(self.bounds[i], self._max)
            return self._max

    def reset(self) -> None:
        """Clear all observations in place (held references stay live)."""
        with self._lock:
            self._bucket_counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "mean": self._sum / self._count if self._count else 0.0,
                "bounds": list(self.bounds),
                "bucket_counts": list(self._bucket_counts),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, count={self._count})"


class _Timer:
    """Times a ``with`` body on the real clock and records it."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        import time

        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        import time

        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """Named counters and histograms with a JSON-able snapshot.

    Instruments are created on first use, so call sites stay one-liners::

        registry.counter("engine_queries_total").inc()
        with registry.histogram("engine_compute_seconds").time():
            result = compute()
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                if name in self._histograms:
                    raise ValueError(f"{name!r} is already a histogram")
                instrument = Counter(name)
                self._counters[name] = instrument
            return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                if name in self._counters:
                    raise ValueError(f"{name!r} is already a counter")
                instrument = Histogram(name, bounds)
                self._histograms[name] = instrument
            return instrument

    def counter_value(self, name: str) -> float:
        """Current value of a counter; 0 if it was never created."""
        with self._lock:
            instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0.0

    def snapshot(self) -> Dict:
        """JSON-serializable view of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }

    def summary(self) -> Dict:
        """Compact snapshot: counters plus count/mean/max per histogram.

        Event journals embed this instead of :meth:`snapshot` — per-run
        trajectories want the headline numbers, not every bucket.
        """
        snap = self.snapshot()
        return {
            "counters": snap["counters"],
            "histograms": {
                name: {
                    "count": hist["count"],
                    "mean": hist["mean"],
                    "max": hist["max"],
                }
                for name, hist in snap["histograms"].items()
            },
        }

    def reset(self) -> None:
        """Reset every instrument in place.

        Instruments stay registered and any references held by call sites
        remain live — only the recorded values are cleared.  Used for
        hermetic per-test registries and the overhead benchmark's paired
        rounds.
        """
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        for counter in counters:
            counter.reset()
        for histogram in histograms:
            histogram.reset()

    def render_text(self) -> str:
        """Prometheus text exposition of the registry.

        Delegates to :func:`repro.utils.prom.render_prometheus`, which
        follows the full exposition conventions (``# TYPE`` headers,
        label extraction, cumulative buckets).
        """
        from repro.utils.prom import render_prometheus

        return render_prometheus(self.snapshot())


__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
]
