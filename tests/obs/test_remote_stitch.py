"""Cross-process trace stitching through the PPA service wire."""

import json
from urllib.request import urlopen

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import (
    METRICS_SCHEMA_VERSION,
    PPAServiceServer,
    RemotePPAEngine,
)
from repro.costmodel.maestro import spatial_area_mm2
from repro.mapping.gemm_mapping import GemmMapping
from repro.obs.prom import parse_prometheus_text
from repro.obs.trace import InMemorySink, Tracer


@pytest.fixture()
def traced_server(tiny_network):
    """Service whose request handler opens server-side spans."""
    backend = MaestroEngine(tiny_network)
    server_sink = InMemorySink()
    tracer = Tracer(sinks=[server_sink])
    with PPAServiceServer(backend, tracer=tracer) as srv:
        srv._test_sink = server_sink
        yield srv


@pytest.fixture()
def traced_remote(traced_server, tiny_network):
    """Tracing client engine pointed at the traced service."""
    engine = RemotePPAEngine(
        tiny_network, traced_server.url, area_fn=spatial_area_mm2
    )
    sink = InMemorySink()
    engine.tracer = Tracer(sinks=[sink])
    engine._test_sink = sink
    return engine


class TestStitching:
    def test_server_span_joins_client_trace(
        self, traced_server, traced_remote, sample_hw
    ):
        traced_remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        spans = traced_remote._test_sink.spans
        by_name = {s["name"]: s for s in spans}
        client_span = by_name["remote/evaluate_layers"]
        server_span = by_name["service/evaluate_layers"]
        # one trace: the server span adopted the client's trace id ...
        assert server_span["trace_id"] == traced_remote.tracer.trace_id
        # ... and hangs off the client request span
        assert server_span["parent_id"] == client_span["span_id"]
        assert server_span["attrs"]["remote"] is True
        assert server_span["attrs"]["status"] == 200
        # server-measured duration fits inside the client request interval
        assert server_span["wall_dur_s"] <= client_span["wall_dur_s"] + 1e-6
        assert server_span["wall_start_s"] >= client_span["wall_start_s"]

    def test_server_side_sink_sees_adopted_trace_id(
        self, traced_server, traced_remote, sample_hw
    ):
        traced_remote.evaluate_layer(sample_hw, GemmMapping(2, 4, 4), "gemm")
        server_spans = traced_server._test_sink.spans
        assert server_spans
        assert all(
            s["trace_id"] == traced_remote.tracer.trace_id
            for s in server_spans
        )

    def test_untraced_client_unaffected(
        self, traced_server, tiny_network, sample_hw
    ):
        """A NullTracer client works against a tracing server."""
        engine = RemotePPAEngine(
            tiny_network, traced_server.url, area_fn=spatial_area_mm2
        )
        result = engine.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        assert result.feasible

    def test_untraced_server_tolerated(self, tiny_network, sample_hw):
        """A tracing client against a plain server: no remote spans, no error."""
        backend = MaestroEngine(tiny_network)
        with PPAServiceServer(backend) as srv:
            engine = RemotePPAEngine(
                tiny_network, srv.url, area_fn=spatial_area_mm2
            )
            sink = InMemorySink()
            engine.tracer = Tracer(sinks=[sink])
            result = engine.evaluate_layer(
                sample_hw, GemmMapping(4, 8, 4), "gemm"
            )
        assert result.feasible
        names = [s["name"] for s in sink.spans]
        assert "remote/evaluate_layers" in names
        assert not any(n.startswith("service/") for n in names)


class TestMetricsEndpoint:
    def test_json_metrics_schema_version_and_stable_ordering(
        self, traced_server
    ):
        with urlopen(f"{traced_server.url}/metrics") as response:
            raw = response.read().decode()
        payload = json.loads(raw)
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        assert raw == json.dumps(payload, sort_keys=True)

    def test_prom_metrics_parse(
        self, traced_server, traced_remote, sample_hw
    ):
        """Acceptance criterion: ?format=prom output is scrapeable."""
        traced_remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        with urlopen(f"{traced_server.url}/metrics?format=prom") as response:
            assert response.headers.get_content_type() == "text/plain"
            text = response.read().decode()
        families = parse_prometheus_text(text)
        assert any(f.startswith("service_requests") for f in families)
        histograms = [
            f for f, d in families.items() if d["type"] == "histogram"
        ]
        assert histograms  # request latency histogram present
