"""A thread-safe circuit breaker with strict half-open probing.

The fleet router keeps one breaker *per shard* (a
:class:`~repro.costmodel.service.RemotePPAEngine` over one URL has one):
a dead replica fails fast without poisoning requests routed to its
healthy peers.

States (classic three-state breaker, consecutive-failure flavored):

* **closed** — requests flow; ``record(False)`` counts consecutive
  failures, ``record(True)`` zeroes them.
* **open** — after ``threshold`` consecutive failures, ``check()`` raises
  :class:`BreakerOpenError` for ``cooldown_s`` of real time.
* **half-open** — once the cooldown expires, exactly **one** caller is
  admitted as a probe; concurrent callers keep failing fast until that
  probe reports back.  A successful probe closes the breaker, a failed
  one re-opens it for a fresh cooldown.

The single-probe admission is the fix for the pre-fleet behavior, which
"let one probe through" by decrementing the failure count — under
concurrent threads every caller arriving after the cooldown saw the
decremented count and rushed the recovering service at once.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from repro.errors import EvaluationError, TransportError

__all__ = ["BreakerOpenError", "CircuitBreaker"]


class BreakerOpenError(TransportError):
    """Raised by :meth:`CircuitBreaker.check` while the circuit is open."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker guarding one target."""

    def __init__(
        self,
        target: str,
        threshold: int,
        cooldown_s: float,
        now: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise EvaluationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.target = target
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._now = now
        self._lock = threading.Lock()
        self._failures = 0
        self._open_until = 0.0  # monotonic deadline of the current cooldown
        self._probe_in_flight = False
        self.num_rejections = 0
        self.num_opens = 0

    # -- state probes -----------------------------------------------------------
    @property
    def failures(self) -> int:
        return self._failures

    def is_open(self) -> bool:
        """True while requests would fail fast (open, cooldown running).

        A peek for routing decisions: the shard router skips shards whose
        breaker is open so keys remap (rendezvous order) instead of
        failing.  Half-open (cooldown expired) reads as *not* open — the
        shard is eligible again and the next request becomes the probe.
        """
        with self._lock:
            return (
                self._failures >= self.threshold
                and self._open_until - self._now() > 0
            )

    # -- request path -----------------------------------------------------------
    def check(self) -> None:
        """Gate one request; raises :class:`BreakerOpenError` when open.

        When the cooldown has expired, the first caller is admitted as the
        half-open probe and must call :meth:`record`; until it does,
        concurrent callers are still rejected.
        """
        with self._lock:
            if self._failures < self.threshold:
                return
            remaining = self._open_until - self._now()
            if remaining > 0:
                self.num_rejections += 1
                raise BreakerOpenError(
                    f"circuit breaker open ({remaining:.2f}s left) after "
                    f"{self._failures} consecutive failures to {self.target}"
                )
            if self._probe_in_flight:
                self.num_rejections += 1
                raise BreakerOpenError(
                    f"circuit breaker open (half-open probe in flight) after "
                    f"{self._failures} consecutive failures to {self.target}"
                )
            self._probe_in_flight = True

    def record(self, success: bool) -> bool:
        """Report a request outcome; returns True when this opened the circuit.

        Safe to call from requests that started before the circuit opened
        (their success closes it, matching the pre-fleet behavior).
        """
        with self._lock:
            self._probe_in_flight = False
            if success:
                self._failures = 0
                return False
            # cap at threshold so the error message reports the consecutive
            # run that tripped the breaker, not cooldown-long pile-ups
            self._failures = min(self._failures + 1, self.threshold)
            if self._failures >= self.threshold:
                self._open_until = self._now() + self.cooldown_s
                self.num_opens += 1
                return True
            return False

    def reset(self) -> None:
        """Force-close (used when a replica is replaced wholesale)."""
        with self._lock:
            self._failures = 0
            self._open_until = 0.0
            self._probe_in_flight = False

    def stats(self) -> Dict:
        with self._lock:
            return {
                "target": self.target,
                "failures": self._failures,
                "open": (
                    self._failures >= self.threshold
                    and self._open_until - self._now() > 0
                ),
                "num_rejections": self.num_rejections,
                "num_opens": self.num_opens,
            }
