"""``repro.obs`` — observability: span tracing and run profiling.

The time-attribution layer over the co-search stack.  Flat counters
(:mod:`repro.utils.metrics`) and discrete journal events
(:mod:`repro.tracking`) say *what* happened; this package says *where
the time went*:

* :mod:`repro.obs.trace` — hierarchical :class:`Span`/:class:`Tracer`
  with dual wall/simulated timestamps and pluggable sinks.
* :mod:`repro.obs.chrome` — Chrome-trace-event JSON export
  (``runs/<run-id>/trace.json``, loadable in Perfetto).
* :mod:`repro.obs.profile` — per-phase breakdown behind
  ``repro runs profile``.

Import from the submodule that defines a name (``from repro.obs.trace
import Tracer``): the package itself imports none of them, so the engine's
``NULL_TRACER`` does not load the profiling code with it.
"""
