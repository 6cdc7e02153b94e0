"""Exception hierarchy for the UNICO reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with one clause while the tests can still assert the
specific subtype.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or out-of-range fields."""


class DesignSpaceError(ReproError):
    """A hardware configuration is outside its declared design space."""


class MappingError(ReproError):
    """A software mapping is malformed or incompatible with a workload."""


class WorkloadError(ReproError):
    """A workload/layer definition is invalid or unknown."""


class EvaluationError(ReproError):
    """A PPA engine failed to evaluate a (hw, mapping, workload) triple."""


class TransportError(EvaluationError):
    """A remote PPA request failed at the transport level.

    Network failures, 5xx replies and open circuit breakers are
    *retryable* (and, with several replicas, *failover-able* to
    another replica) — unlike a 4xx semantic rejection, which stays a
    plain :class:`EvaluationError` because every replica would reject the
    same query."""


class SearchBudgetError(ReproError):
    """A search was invoked with a non-positive or inconsistent budget."""


class SurrogateError(ReproError):
    """The GP surrogate could not be fit or queried."""


class TrackingError(ReproError):
    """A run store, event journal, or resume operation is inconsistent."""
