"""A fault injector for the PPA service: a replica that answers 500s.

:class:`FlakyEngine` is a :class:`~repro.costmodel.engine.MaestroEngine` whose
in-process kernel raises :class:`InjectedFailure` on a seeded fraction of
fresh computations.  Served by a
:class:`~repro.costmodel.service.PPAServiceServer`, such a failure is not
an :class:`~repro.errors.EvaluationError`, so the replica answers 500: the
transient service error :class:`~repro.costmodel.service.RemotePPAEngine`
retries.  The served engine keeps what it computed before the failure in
its cache, so a retry does not compute it again.

Failures are deterministic per construction seed, so tests replay, but
not per query key: a retried query usually succeeds.
"""

from __future__ import annotations

from repro.costmodel.engine import MaestroEngine
from repro.errors import EvaluationError
from repro.utils.rng import SeedLike, as_generator


class InjectedFailure(RuntimeError):
    """A transient failure raised on purpose by :class:`FlakyEngine`."""


class FlakyEngine(MaestroEngine):
    """A MAESTRO-like engine whose kernel fails a fraction of fresh calls."""

    def __init__(
        self, network, failure_rate: float = 0.2, seed: SeedLike = 0, **kwargs
    ):
        if not 0.0 <= failure_rate < 1.0:
            raise EvaluationError(
                f"failure_rate must be in [0, 1), got {failure_rate}"
            )
        super().__init__(network, **kwargs)
        self.failure_rate = failure_rate
        self._rng = as_generator(seed)
        self.num_injected_failures = 0

    def _compute_layer(self, hw, mapping, shape):
        if self._rng.random() < self.failure_rate:
            self.num_injected_failures += 1
            raise InjectedFailure("injected transient failure")
        return super()._compute_layer(hw, mapping, shape)
