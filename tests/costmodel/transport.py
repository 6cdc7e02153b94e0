"""Tune the remote engine's transport constants for one test.

Retries and backoff are constants of :mod:`repro.costmodel.service`, the
circuit breaker's of :mod:`repro.fleet.router`; a test that needs them
small (a dead port fails in milliseconds, not seconds) patches them:
``tune(monkeypatch, **FAST)``.  Set the breaker's before the engine is
built: each shard builds its breaker once.
"""

import repro.costmodel.service as service
import repro.fleet.router as router

#: failures surface at once: no retry, millisecond backoffs
FAST = dict(max_network_retries=0, backoff_base_s=0.001, backoff_max_s=0.002)


def tune(monkeypatch, **knobs):
    """Set the constant each keyword names, upper-cased, for the test."""
    for name, value in knobs.items():
        constant = name.upper()
        monkeypatch.setattr(service if hasattr(service, constant) else router, constant, value)
