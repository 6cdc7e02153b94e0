"""Append-only time-series store for scraped metrics (the telemetry journal).

The hub's scrape loop (:mod:`repro.hub.telemetry`) polls every replica's
``/metrics`` on an interval; this module is where those samples land and
how they are asked about afterwards.  One :class:`MetricsStore` holds one
append-only JSONL file per *target* (a replica ``host:port``, the
``fleet`` rollup, ``hub``, or a ``run:<run-id>`` search-health stream):

    {"t": 1723111845.2, "s": {"up": 1, "engine_queries_total": 4102, ...}}

The file discipline is the :class:`~repro.tracking.journal.EventJournal`
discipline because it is the same code on both sides:

* **atomic line appends** — each sample is serialized to one complete
  line and handed to the journal's
  :class:`~repro.tracking.journal.AppendLog` (one ``os.write`` on an
  append-mode descriptor), so a crash can only truncate the final line;
  the first append to a crash-damaged file truncates it back to its last
  complete line, so the write cannot weld onto partial bytes;
* **truncation-tolerant reads** — scans are the journal's own
  ``read_events`` / ``read_events_from``, stopping at the first
  partial/corrupt line and reporting it instead of failing;
* **byte-offset resume** — :meth:`MetricsStore.append` returns the offset
  past its line (the log's own count: size at open plus bytes written,
  no ``stat`` per sample) and :meth:`MetricsStore.read_from` takes the
  ``valid_bytes`` cursor of a previous scan and returns only newer
  samples.

On top sits the query layer the alert rules and dashboards consume:
``last``/``avg``/``max``/``min`` over a time window, counter-reset-aware
``rate()`` and ``increase()``, and quantile-from-histogram over windowed
bucket increases.  Recent samples are served from a per-target in-memory
window (the scrape loop is the only writer), so steady-state rule
evaluation never touches disk.

Retention is explicit: :meth:`MetricsStore.compact` downsamples samples
older than ``downsample_after_s`` to one per ``downsample_to_s`` bucket
and drops everything older than ``retention_s``, rewriting the file
atomically (tmp + rename) — the scrape loop calls it periodically.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TrackingError
from repro.tracking.journal import (
    AppendLog,
    JournalScan,
    read_events,
    read_events_from,
)

__all__ = [
    "MetricsStore",
    "Sample",
    "counter_increase",
    "flatten_families",
    "histogram_quantile",
    "series_key",
]

#: (timestamp, {series_key: value}) — one appended line
Sample = Tuple[float, Dict[str, float]]

#: filename-safe encoding of target names; ``:`` and ``.`` survive
#: (replica targets are ``host:port``), anything else becomes ``_``
_TARGET_UNSAFE = re.compile(r"[^A-Za-z0-9_.:-]")


def _target_filename(target: str) -> str:
    if not target:
        raise TrackingError("metrics target name must be non-empty")
    return _TARGET_UNSAFE.sub("_", target) + ".jsonl"


def series_key(name: str, labels: Dict[str, str]) -> str:
    """Flatten one Prometheus sample name + label set into a series key.

    ``service_requests_total`` + ``{path="/metrics"}`` becomes
    ``service_requests_total{path="/metrics"}``; label order is sorted so
    the key is stable across scrapes.  The ``replica`` label is the
    *target* dimension of the store, never part of a key.
    """
    kept = {k: v for k, v in labels.items() if k != "replica"}
    if not kept:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in sorted(kept.items()))
    return f"{name}{{{body}}}"


def flatten_families(families: Dict[str, Dict]) -> Dict[str, float]:
    """One scrape's parsed metric families → a flat ``{series: value}`` map.

    ``families`` is the output of
    :func:`repro.obs.prom.parse_prometheus_text`.  Histogram series keep
    their ``_bucket{le="..."}``/``_sum``/``_count`` names, so windowed
    quantiles can be computed from bucket increases later.
    """
    flat: Dict[str, float] = {}
    for data in families.values():
        for name, labels, value in data["samples"]:
            flat[series_key(name, labels)] = float(value)
    return flat


# ------------------------------------------------------------------ queries
def counter_increase(points: Sequence[Tuple[float, float]]) -> float:
    """Reset-aware counter increase over ordered ``(t, value)`` points.

    Sums positive deltas only: a counter that falls (replica restart)
    contributes its post-reset value as new growth instead of a negative
    delta, matching Prometheus ``increase()`` semantics closely enough
    for alerting.
    """
    total = 0.0
    for (_t0, v0), (_t1, v1) in zip(points, points[1:]):
        delta = v1 - v0
        total += delta if delta >= 0.0 else v1
    return total


def histogram_quantile(
    q: float, bucket_increases: Dict[str, float]
) -> Optional[float]:
    """Interpolated quantile from cumulative-bucket *increases*.

    ``bucket_increases`` maps ``le`` bound strings (``"0.01"``, ``"+Inf"``)
    to the windowed increase of that cumulative bucket.  Returns ``None``
    when the window saw no observations.  The top bucket clamps to its
    lower finite bound, as Prometheus does.
    """
    if not 0.0 <= q <= 1.0:
        raise TrackingError(f"quantile must be in [0, 1], got {q}")
    bounds: List[Tuple[float, float]] = []
    for le, value in bucket_increases.items():
        bound = math.inf if le == "+Inf" else float(le)
        bounds.append((bound, max(0.0, value)))
    bounds.sort(key=lambda item: item[0])
    if not bounds or not math.isinf(bounds[-1][0]):
        return None
    total = bounds[-1][1]
    if total <= 0.0:
        return None
    rank = q * total
    previous_bound = 0.0
    previous_cum = 0.0
    for bound, cumulative in bounds:
        if cumulative >= rank:
            if math.isinf(bound):
                return previous_bound
            width = bound - previous_bound
            share = cumulative - previous_cum
            if share <= 0.0 or width <= 0.0:
                return bound
            return previous_bound + width * (rank - previous_cum) / share
        previous_bound, previous_cum = bound, cumulative
    return previous_bound


class _Target:
    """One target's append state + in-memory sample window."""

    __slots__ = ("path", "log", "cache", "cache_complete", "lock")

    def __init__(
        self, path: Optional[pathlib.Path], cache_samples: int, fsync: bool
    ):
        self.path = path
        self.log = AppendLog(path, fsync=fsync) if path is not None else None
        self.cache: Deque[Sample] = deque(maxlen=cache_samples)
        #: True while the cache holds the file's complete history
        self.cache_complete = path is None or not (
            path.exists() and path.stat().st_size > 0
        )
        self.lock = threading.Lock()


class MetricsStore:
    """Crash-safe per-target sample journals plus their query layer.

    ``root=None`` runs fully in memory (no files) — the mode
    ``repro fleet top`` uses for its ad-hoc local scrape loop.
    """

    def __init__(
        self,
        root: Optional[Union[str, pathlib.Path]] = None,
        cache_samples: int = 16384,
        fsync: bool = False,
    ):
        if cache_samples < 2:
            raise TrackingError(
                f"cache_samples must be >= 2, got {cache_samples}"
            )
        self.root = pathlib.Path(root) if root is not None else None
        self.cache_samples = cache_samples
        self.fsync = fsync
        self._targets: Dict[str, _Target] = {}
        self._lock = threading.Lock()
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- targets
    def _target(self, target: str) -> _Target:
        with self._lock:
            state = self._targets.get(target)
            if state is None:
                path = (
                    self.root / _target_filename(target)
                    if self.root is not None
                    else None
                )
                state = self._targets[target] = _Target(
                    path, self.cache_samples, self.fsync
                )
            return state

    def targets(self) -> List[str]:
        """Every target with samples (on disk or in memory), sorted."""
        names = set(self._targets)
        if self.root is not None:
            names.update(
                path.name[: -len(".jsonl")]
                for path in self.root.glob("*.jsonl")
            )
        return sorted(names)

    def path_for(self, target: str) -> Optional[pathlib.Path]:
        """The target's journal path (None for a memory-only store)."""
        if self.root is None:
            return None
        return self.root / _target_filename(target)

    # -------------------------------------------------------------- append
    def append(self, target: str, t: float, series: Dict[str, float]) -> int:
        """Append one sample atomically; returns the byte offset past it.

        A memory-only store returns ``-1``.  The first append to an
        existing file truncates any crash-damaged tail back to the last
        complete line, so the write never welds onto partial bytes.
        """
        state = self._target(target)
        record = {"t": float(t), "s": {k: float(v) for k, v in series.items()}}
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with state.lock:
            state.cache.append((record["t"], record["s"]))
            if state.log is None:
                return -1
            return state.log.write(line)

    # --------------------------------------------------------------- reads
    def read_from(self, target: str, offset: int) -> Tuple[List[Sample], JournalScan]:
        """Samples past a byte-offset cursor, truncation-tolerant.

        The incremental read behind exporters: pass a previous scan's
        ``valid_bytes`` back to receive only newer samples.
        """
        path = self.path_for(target)
        if path is None or not path.exists():
            return [], JournalScan(start_offset=offset, valid_bytes=offset)
        scan = read_events_from(path, offset)
        return [_as_sample(event) for event in scan.events], scan

    def samples(
        self,
        target: str,
        start_t: Optional[float] = None,
        end_t: Optional[float] = None,
    ) -> List[Sample]:
        """Samples in ``[start_t, end_t]``, memory-first, disk-complete."""
        state = self._target(target)
        with state.lock:
            cached = list(state.cache)
            complete = state.cache_complete and (
                len(cached) < self.cache_samples
            )
        need_disk = state.path is not None and not complete
        if need_disk and cached and start_t is not None:
            # the cache still covers the window if its oldest sample
            # predates the window start
            need_disk = cached[0][0] > start_t
        if need_disk and state.path is not None and state.path.exists():
            scan = read_events(state.path)
            cached = [_as_sample(event) for event in scan.events]
        return [
            (t, s)
            for t, s in cached
            if (start_t is None or t >= start_t)
            and (end_t is None or t <= end_t)
        ]

    def series(
        self,
        target: str,
        name: str,
        start_t: Optional[float] = None,
        end_t: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """One series' ``(t, value)`` points over a window, in time order."""
        return [
            (t, s[name])
            for t, s in self.samples(target, start_t, end_t)
            if name in s
        ]

    def latest(self, target: str) -> Optional[Sample]:
        state = self._target(target)
        with state.lock:
            if state.cache:
                return state.cache[-1]
        points = self.samples(target)
        return points[-1] if points else None

    def series_names(self, target: str, prefix: str = "") -> List[str]:
        """Series keys the target has ever reported (windowed by cache)."""
        names: set = set()
        for _t, series in self.samples(target):
            names.update(k for k in series if k.startswith(prefix))
        return sorted(names)

    # --------------------------------------------------------------- query
    def query(
        self,
        target: str,
        series: str,
        fn: str = "last",
        window_s: float = 60.0,
        now: Optional[float] = None,
        q: Optional[float] = None,
    ) -> Optional[float]:
        """Evaluate one query function over a trailing window.

        ``fn`` is one of ``last``/``avg``/``max``/``min`` (sample
        statistics), ``increase``/``rate`` (counter semantics:
        reset-aware increase over the window, rate = increase divided by
        the window length; a series that exists but has at most one point
        in the window reads as 0 increase — a stopped counter, not a
        missing one), or ``quantile`` (``series`` names a histogram
        family; ``q`` in [0, 1]).  Returns ``None`` when the series has
        never been seen on the target — callers distinguish "no signal"
        from "signal says zero".
        """
        if window_s <= 0.0:
            raise TrackingError(f"window_s must be > 0, got {window_s}")
        if fn == "quantile":
            if q is None:
                raise TrackingError("quantile query needs q=")
            return self.quantile(target, series, q, window_s, now=now)
        if now is None:
            latest = self.latest(target)
            if latest is None:
                return None
            now = latest[0]
        points = self.series(target, series, start_t=now - window_s, end_t=now)
        if fn in ("increase", "rate"):
            if not points and not self._series_ever(target, series, now):
                return None
            increase = counter_increase(points) if len(points) > 1 else 0.0
            return increase / window_s if fn == "rate" else increase
        if not points:
            return None
        values = [v for _t, v in points]
        if fn == "last":
            return values[-1]
        if fn == "avg":
            return sum(values) / len(values)
        if fn == "max":
            return max(values)
        if fn == "min":
            return min(values)
        raise TrackingError(
            f"unknown query fn {fn!r}; use last/avg/max/min/rate/"
            "increase/quantile"
        )

    def _series_ever(self, target: str, name: str, now: float) -> bool:
        """Did the target report this series at any cached point in time?"""
        for t, series in self.samples(target, end_t=now):
            if name in series:
                return True
        return False

    def quantile(
        self,
        target: str,
        family: str,
        q: float,
        window_s: float,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Windowed quantile from a histogram family's bucket increases."""
        if now is None:
            latest = self.latest(target)
            if latest is None:
                return None
            now = latest[0]
        prefix = f"{family}_bucket{{le="
        increases: Dict[str, float] = {}
        per_bucket: Dict[str, List[Tuple[float, float]]] = {}
        for t, series in self.samples(target, start_t=now - window_s, end_t=now):
            for key, value in series.items():
                if key.startswith(prefix):
                    per_bucket.setdefault(key, []).append((t, value))
        for key, points in per_bucket.items():
            le = key[len(prefix):].rstrip("}").strip('"')
            increases[le] = (
                counter_increase(points) if len(points) > 1 else 0.0
            )
        if not increases:
            return None
        return histogram_quantile(q, increases)

    # ----------------------------------------------------------- retention
    def compact(
        self,
        target: str,
        now: float,
        retention_s: float = 7 * 86400.0,
        downsample_after_s: float = 3600.0,
        downsample_to_s: float = 60.0,
    ) -> int:
        """Retention + downsampling rewrite; returns samples kept.

        Samples older than ``retention_s`` are dropped; samples older
        than ``downsample_after_s`` keep only the last one per
        ``downsample_to_s`` bucket; recent samples are kept raw.  The
        rewrite is atomic (tmp file + ``os.replace``) and resets the
        append descriptor so the next append reopens the new file.
        """
        state = self._target(target)
        with state.lock:
            if state.path is None:
                kept = [
                    (t, s) for t, s in state.cache if now - t <= retention_s
                ]
                state.cache.clear()
                state.cache.extend(kept)
                return len(kept)
            if not state.path.exists():
                return 0
            scan = read_events(state.path)
            raw_samples = [_as_sample(event) for event in scan.events]
            kept: List[Sample] = []
            buckets: Dict[int, Sample] = {}
            for t, series in raw_samples:
                age = now - t
                if age > retention_s:
                    continue
                if age > downsample_after_s:
                    buckets[int(t // downsample_to_s)] = (t, series)
                else:
                    kept.append((t, series))
            downsampled = [buckets[k] for k in sorted(buckets)]
            final = downsampled + kept
            tmp = state.path.with_suffix(".jsonl.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for t, series in final:
                    handle.write(
                        json.dumps({"t": t, "s": series}, sort_keys=True)
                        + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, state.path)
            state.log.close()
            state.cache.clear()
            state.cache.extend(final[-self.cache_samples:])
            state.cache_complete = len(final) <= self.cache_samples
            return len(final)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        with self._lock:
            for state in self._targets.values():
                with state.lock:
                    if state.log is not None:
                        state.log.close()

    def __enter__(self) -> "MetricsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _as_sample(event: Dict) -> Sample:
    series = event.get("s") or {}
    return (
        float(event.get("t", 0.0)),
        {str(k): float(v) for k, v in series.items()},
    )
