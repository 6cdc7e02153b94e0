"""A replica serving a fresh engine, and one client of it, for tests of
the replica's result cache (``PPAServiceServer``) from the outside."""

from contextlib import contextmanager

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine


@contextmanager
def served(network, engine_cls=MaestroEngine, **capacity):
    """Yield ``(server, client)``; both are closed afterwards.

    ``capacity`` is empty or ``cache_capacity=N``: the bound of the
    server's cache (``None`` = unbounded).
    """
    backend = engine_cls(network)
    with PPAServiceServer(backend, **capacity) as server, RemotePPAEngine(
        network, server.url, area_fn=spatial_area_mm2
    ) as client:
        yield server, client
