"""Replica fleet supervisor: N PPA-service processes with graceful drain.

:class:`FleetSupervisor` forks ``replicas`` independent
:class:`~repro.costmodel.service.PPAServiceServer` processes from one
picklable :class:`ReplicaSpec`, reports their URLs back over pipes, and
stops them with SIGTERM so each replica drains its in-flight requests
(returning fast 503s to new ones) before closing the listener.  That is
the restart contract :class:`~repro.costmodel.service.RemotePPAEngine`
relies on: a draining replica is *redirecting*, not *failing*, so the
client re-routes without charging the replica's circuit breaker.

Each replica builds its **own** engine from the spec — separate processes
cannot share a cache, and that is the point: the router's rendezvous
placement gives every replica a stable slice of the key space, so N
replicas aggregate N bounded LRU caches instead of thrashing one.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from http.client import HTTPException
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.fleet.pool import ConnectionPool
from repro.methods import ENGINES
from repro.utils import fork_context

#: how long a starting replica may take to report its URL (seconds)
START_TIMEOUT_S = 30.0
#: the socket timeout of a :meth:`FleetSupervisor.status` health poll
STATUS_TIMEOUT_S = 2.0
#: how long :meth:`FleetSupervisor.stop` waits before it SIGKILLs
STOP_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ReplicaSpec:
    """Picklable recipe for one service replica's engine + server."""

    network: str
    engine: str = "maestro"
    cache_capacity: Optional[int] = None
    host: str = "127.0.0.1"
    ports: tuple = field(default_factory=tuple)  # empty -> OS-assigned

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown replica engine {self.engine!r}; "
                f"available: {ENGINES}"
            )


def build_replica_engine(spec: ReplicaSpec):
    """Construct the engine a replica, or ``repro serve``, serves (the
    spec's ``cache_capacity`` bounds the LRU its server keeps in front)."""
    from repro.workloads.registry import get_network

    network = get_network(spec.network)
    if spec.engine == "maestro":
        from repro.costmodel.engine import MaestroEngine

        return MaestroEngine(network)
    if spec.engine == "timeloop":
        from repro.costmodel.timeloop import TimeloopEngine

        return TimeloopEngine(network)
    from repro.camodel.engine import NOISE_FRACTION, AscendCAEngine

    return AscendCAEngine(network, noise_fraction=NOISE_FRACTION)


def _replica_main(spec: ReplicaSpec, index: int, conn) -> None:
    """Entry point of one replica process.

    Builds the engine + server, reports the bound URL through ``conn``,
    then parks until SIGTERM/SIGINT triggers the graceful drain-and-stop
    installed by ``install_signal_handlers``.
    """
    from repro.costmodel.service import PPAServiceServer

    try:
        engine = build_replica_engine(spec)
        port = spec.ports[index] if index < len(spec.ports) else 0
        server = PPAServiceServer(
            engine, host=spec.host, port=port, cache_capacity=spec.cache_capacity
        )
        server.start()
        stopped = server.install_signal_handlers()
        conn.send({"ok": True, "url": server.url, "pid": os.getpid()})
    except Exception as error:  # pragma: no cover - startup failure path
        conn.send({"ok": False, "error": f"{type(error).__name__}: {error}"})
        return
    finally:
        conn.close()
    stopped.wait()


class FleetSupervisor:
    """Start, watch, and gracefully stop N service replica processes.

    >>> spec = ReplicaSpec(network="mobilenetv3_small")
    >>> with FleetSupervisor(spec, replicas=4) as fleet:
    ...     engine = RemotePPAEngine(network, fleet.urls, area_fn)
    """

    def __init__(
        self,
        spec: ReplicaSpec,
        replicas: int = 2,
    ):
        if replicas < 1:
            raise ConfigurationError(f"need at least 1 replica, got {replicas}")
        self.spec = spec
        self.replicas = replicas
        self.urls: List[str] = []
        self._procs: List[multiprocessing.process.BaseProcess] = []
        #: keep-alive connections :meth:`status` polls ``/health`` over
        self._pools: Dict[str, ConnectionPool] = {}

    def start(self) -> "FleetSupervisor":
        """Spawn every replica and block until each reports its URL."""
        if self._procs:
            raise ConfigurationError("fleet already started")
        ctx = fork_context()
        pending = []
        for index in range(self.replicas):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_replica_main,
                args=(self.spec, index, child_conn),
                name=f"ppa-replica-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            pending.append((index, proc, parent_conn))
        urls: List[str] = []
        try:
            for index, proc, conn in pending:
                if not conn.poll(START_TIMEOUT_S):
                    raise ConfigurationError(
                        f"replica {index} did not report within "
                        f"{START_TIMEOUT_S}s"
                    )
                report = conn.recv()
                conn.close()
                if not report.get("ok"):
                    raise ConfigurationError(
                        f"replica {index} failed to start: "
                        f"{report.get('error', 'unknown error')}"
                    )
                urls.append(report["url"])
        except Exception:
            self._procs = [proc for _, proc, _ in pending]
            self.stop(graceful=False)
            raise
        self._procs = [proc for _, proc, _ in pending]
        self.urls = urls
        return self

    def status(self) -> List[Dict]:
        """Liveness + ``/health`` of every replica (best effort).

        Polls over one keep-alive connection per replica, opened by the
        first call and closed by :meth:`stop`.
        """
        rows: List[Dict] = []
        for index, proc in enumerate(self._procs):
            row: Dict = {
                "replica": index,
                "pid": proc.pid,
                "alive": proc.is_alive(),
                "url": self.urls[index] if index < len(self.urls) else None,
            }
            if row["alive"] and row["url"]:
                pool = self._pools.get(row["url"])
                if pool is None:
                    pool = self._pools[row["url"]] = ConnectionPool(
                        row["url"], timeout_s=STATUS_TIMEOUT_S
                    )
                try:
                    row["health"] = json.loads(pool.fetch("/health"))
                except (OSError, HTTPException) as error:
                    row["health"] = {"error": f"{type(error).__name__}: {error}"}
            rows.append(row)
        return rows

    def terminate_replica(self, index: int) -> None:
        """SIGTERM one replica (graceful drain); used by failover tests."""
        proc = self._procs[index]
        if proc.is_alive() and proc.pid is not None:
            os.kill(proc.pid, signal.SIGTERM)

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM every replica, escalating to SIGKILL on those still
        running :data:`STOP_TIMEOUT_S` later."""
        if graceful:
            for proc in self._procs:
                if proc.is_alive() and proc.pid is not None:
                    os.kill(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        for pool in self._pools.values():
            pool.close()
        self._pools = {}
        self._procs = []
        self.urls = []

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "FleetSupervisor",
    "ReplicaSpec",
    "build_replica_engine",
]
