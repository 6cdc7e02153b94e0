"""Control-plane hub: run lifecycle, live journal streaming, fleet metrics.

UNICO co-searches run for hours to days (MSH keeps many concurrent trials
alive, robustness assessment multiplies evaluation cost), and PR 7's fleet
spreads the estimation load over replicas — but before this module the
only views were post-hoc: ``runs tail`` after the fact, one replica's
``/metrics`` at a time.  :mod:`repro.hub` turns those pieces into one
observable system:

* :mod:`repro.hub.sse` — Server-Sent Events framing over the crash-safe
  JSONL journal, with byte-offset cursors as event ids so a dropped
  client resumes exactly where it left off (``Last-Event-ID``);
* :mod:`repro.hub.aggregate` — scrape every replica's Prometheus
  exposition, merge into one fleet view with ``replica=`` labels plus
  ``fleet:*`` rollup series and an ``up`` sample per replica;
* :mod:`repro.hub.scheduler` — a single-worker run scheduler over the
  :class:`~repro.tracking.RunStore` (submit/cancel/reconcile, resume of
  crash-interrupted runs);
* :mod:`repro.hub.server` — the HTTP control plane tying them together
  (``POST /runs``, ``GET /runs/<id>/events`` SSE, ``GET /fleet/metrics``);
* :mod:`repro.hub.client` — the pooled client behind
  ``repro runs tail --follow`` and ``repro fleet top --hub``.
"""

from repro.hub.aggregate import FleetAggregator, ReplicaScrape
from repro.hub.client import HubClient, StreamedEvent
from repro.hub.scheduler import RunScheduler
from repro.hub.server import HubServer
from repro.hub.sse import SSEEvent, format_sse_event, parse_sse_lines

__all__ = [
    "FleetAggregator",
    "HubClient",
    "HubServer",
    "ReplicaScrape",
    "RunScheduler",
    "SSEEvent",
    "StreamedEvent",
    "format_sse_event",
    "parse_sse_lines",
]
