"""``repro.fleet`` — distributed co-search over sharded PPA-service replicas.

The paper's master-slave deployment (Fig. 6b) at fleet scale:

* :mod:`repro.fleet.hashing` — rendezvous key placement (minimal remap);
* :mod:`repro.fleet.breaker` — per-shard circuit breakers with strict
  half-open probing;
* :mod:`repro.fleet.pool` — keep-alive connection pools (stdlib only);
* :mod:`repro.fleet.router` — health-checked shard routing;
* :mod:`repro.fleet.server` — :class:`FleetSupervisor`, N replica
  :class:`~repro.costmodel.service.PPAServiceServer` processes with
  graceful SIGTERM drain.

The client of all this is the one remote engine,
:class:`~repro.costmodel.service.RemotePPAEngine`: given N replica URLs
it owns a :class:`ShardRouter`, fans chunked batch evaluations across
the replicas concurrently and re-merges them in request order
(accounting stays bit-identical to the serial path).

Nothing here imports :mod:`repro.costmodel` at module level — the
supervisor builds its replicas' engines inside the forked child — so
:mod:`repro.costmodel.service` can import the router without a cycle.
"""

from repro.fleet.router import ShardRouter
from repro.fleet.server import FleetSupervisor, ReplicaSpec

__all__ = ["FleetSupervisor", "ReplicaSpec", "ShardRouter"]
