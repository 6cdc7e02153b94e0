"""Shared low-level utilities used across the UNICO reproduction.

The sub-modules here are deliberately dependency-free (NumPy only) so that
every other subsystem — workloads, cost models, optimizers, the UNICO core —
can build on a common, well-tested foundation:

* :mod:`repro.utils.rng` — seeded random-number plumbing.  Every stochastic
  component in the library draws from an explicitly seeded
  :class:`numpy.random.Generator` so whole experiments replay bit-for-bit.
* :mod:`repro.utils.intmath` — integer helpers (divisors, tilings,
  two-three-smooth value grids) used by design spaces and mapping spaces.
* :mod:`repro.utils.clock` — the simulated wall clock that charges a modeled
  cost per PPA evaluation; search-cost curves are measured against it.
* :mod:`repro.utils.records` — lightweight JSON-serializable run records.
* :mod:`repro.utils.metrics` — thread-safe counters and real-time latency
  histograms threaded through the estimation-service path (engines, the
  REST server's handler threads, the remote engine's ``max_inflight``
  fan-out) and surfaced via ``GET /metrics``.

:func:`fork_context` is the one "fork where the platform has it" start
method the fleet supervisor and the hub's run child share.
"""


def fork_context():
    """The ``fork`` multiprocessing context (cheap, inherits the parent's
    imports), or the platform default where there is none."""
    import multiprocessing  # not at module level: every process imports this package

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()

