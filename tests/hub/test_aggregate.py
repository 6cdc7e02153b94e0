"""Fleet metrics aggregation, including the 4-replica acceptance test:
the merged exposition must pass the strict Prometheus parser and every
``fleet:*`` counter total must equal the sum of the per-replica scrapes."""

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.hub.aggregate import FleetAggregator
from repro.mapping.gemm_mapping import GemmMapping
from repro.obs.prom import parse_prometheus_text

MAPPINGS = [
    GemmMapping(4, 8, 4),
    GemmMapping(8, 8, 8),
    GemmMapping(16, 16, 8),
    GemmMapping(4, 16, 16),
    GemmMapping(8, 32, 8),
    GemmMapping(16, 8, 16),
]


@pytest.fixture()
def replicas(tiny_network):
    servers = [
        PPAServiceServer(MaestroEngine(tiny_network)) for _ in range(4)
    ]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


def drive_queries(tiny_network, servers, sample_hw):
    """Push real engine work through every replica via the remote engine."""
    sharded = RemotePPAEngine(
        tiny_network,
        [server.url for server in servers],
        area_fn=spatial_area_mm2,
        timeout_s=2.0,
        max_network_retries=0,
        batch_size=2,
    )
    try:
        sharded.evaluate_layers(sample_hw, [(m, "gemm") for m in MAPPINGS])
    finally:
        sharded.close()


def counter_total(families, name):
    family = families.get(name)
    if family is None:
        return 0.0
    return sum(value for _n, _l, value in family["samples"])


class TestScrape:
    def test_all_replicas_scraped_in_order(self, replicas):
        aggregator = FleetAggregator([s.url for s in replicas])
        try:
            scrapes = aggregator.scrape()
        finally:
            aggregator.close()
        assert [s.ok for s in scrapes] == [True] * 4
        assert [s.name for s in scrapes] == aggregator.replica_names

    def test_duplicate_urls_deduplicated(self, replicas):
        url = replicas[0].url
        aggregator = FleetAggregator([url, url, url + "/"])
        try:
            assert len(aggregator.replica_names) == 1
        finally:
            aggregator.close()

    def test_dead_replica_reported_down(self, replicas):
        aggregator = FleetAggregator(
            [replicas[0].url, "http://127.0.0.1:9"]  # port 9: discard
        )
        try:
            scrapes = aggregator.scrape()
        finally:
            aggregator.close()
        assert scrapes[0].ok
        assert not scrapes[1].ok
        assert scrapes[1].error
        assert aggregator.metrics.counter(
            "hub_fleet_scrape_errors_total"
        ).value == 1


class TestMergeAcceptance:
    def test_four_replica_rollup_sums_and_strict_parse(
        self, tiny_network, replicas, sample_hw
    ):
        """Acceptance: strict-parser-valid merged exposition whose
        ``fleet:*`` counter totals equal the sum of per-replica scrapes."""
        drive_queries(tiny_network, replicas, sample_hw)
        aggregator = FleetAggregator([s.url for s in replicas])
        try:
            scrapes = aggregator.scrape()
            merged = aggregator.merge(scrapes)
        finally:
            aggregator.close()

        families = parse_prometheus_text(merged)  # raises if invalid

        rollups = [n for n in families if n.startswith("fleet:")]
        assert "fleet:engine_queries_total" in rollups
        for rollup in rollups:
            base = rollup[len("fleet:"):]
            if families[rollup]["type"] != "counter":
                continue
            expected = sum(
                counter_total(scrape.families, base) for scrape in scrapes
            )
            assert counter_total(families, rollup) == pytest.approx(
                expected
            ), rollup
        # the sharded client spread all six mappings across the fleet
        assert counter_total(
            families, "fleet:engine_queries_total"
        ) == len(MAPPINGS)

    def test_replica_label_disambiguates_series(
        self, tiny_network, replicas, sample_hw
    ):
        drive_queries(tiny_network, replicas, sample_hw)
        aggregator = FleetAggregator([s.url for s in replicas])
        try:
            merged = aggregator.merge(aggregator.scrape())
        finally:
            aggregator.close()
        families = parse_prometheus_text(merged)
        labels = {
            sample_labels.get("replica")
            for _n, sample_labels, _v in families["engine_queries_total"][
                "samples"
            ]
        }
        # hash routing may leave a replica idle (no series yet), but every
        # series present must name a real replica, and work did spread
        assert labels <= set(aggregator.replica_names)
        assert len(labels) >= 2

    def test_histogram_rollup_stays_cumulative(
        self, tiny_network, replicas, sample_hw
    ):
        drive_queries(tiny_network, replicas, sample_hw)
        aggregator = FleetAggregator([s.url for s in replicas])
        try:
            merged = aggregator.merge(aggregator.scrape())
        finally:
            aggregator.close()
        families = parse_prometheus_text(merged)
        rollup_hists = [
            n for n, f in families.items()
            if n.startswith("fleet:") and f["type"] == "histogram"
        ]
        assert rollup_hists  # engine_compute_seconds at minimum

    def test_down_replica_excluded_but_merge_still_valid(
        self, tiny_network, replicas, sample_hw
    ):
        drive_queries(tiny_network, replicas, sample_hw)
        urls = [s.url for s in replicas]
        replicas[0].stop()
        aggregator = FleetAggregator(urls)
        try:
            scrapes = aggregator.scrape()
            merged = aggregator.merge(scrapes)
        finally:
            aggregator.close()
        assert [s.ok for s in scrapes].count(False) == 1
        families = parse_prometheus_text(merged)
        alive_total = sum(
            counter_total(s.families, "engine_queries_total")
            for s in scrapes if s.ok
        )
        assert counter_total(
            families, "fleet:engine_queries_total"
        ) == pytest.approx(alive_total)

    def test_merge_is_deterministic(self, replicas):
        """Merging the same scrapes twice is byte-identical — family and
        sample ordering is sorted, never dict-order dependent."""
        aggregator = FleetAggregator([s.url for s in replicas])
        try:
            scrapes = aggregator.scrape()
            assert aggregator.merge(scrapes) == aggregator.merge(scrapes)
        finally:
            aggregator.close()

    def test_empty_fleet_merges_to_empty(self):
        aggregator = FleetAggregator([])
        try:
            assert aggregator.merge(aggregator.scrape()) == ""
        finally:
            aggregator.close()


class TestSupervisorAcceptance:
    def test_four_replica_supervisor_fleet(self):
        """The same acceptance invariants against real replica processes
        under the PR-7 FleetSupervisor."""
        from repro.fleet.server import FleetSupervisor, ReplicaSpec
        from repro.workloads.registry import get_network

        spec = ReplicaSpec(network="mobilenetv3_small", cache_capacity=256)
        network = get_network("mobilenetv3_small")
        with FleetSupervisor(spec, replicas=4) as fleet:
            sharded = RemotePPAEngine(
                network,
                list(fleet.urls),
                area_fn=spatial_area_mm2,
                timeout_s=10.0,
                batch_size=2,
            )
            try:
                from repro.hw.spatial import edge_design_space

                hw = edge_design_space().to_config({
                    "pe_x": 8, "pe_y": 8, "l1_bytes": 4096,
                    "l2_kb": 256, "noc_bw": 64, "dataflow": "ws",
                })
                sharded.evaluate_layers(hw, [(m, "fc") for m in MAPPINGS])
            finally:
                sharded.close()
            aggregator = FleetAggregator(list(fleet.urls))
            try:
                scrapes = aggregator.scrape()
                merged = aggregator.merge(scrapes)
            finally:
                aggregator.close()
        assert all(s.ok for s in scrapes)
        families = parse_prometheus_text(merged)
        expected = sum(
            counter_total(s.families, "engine_queries_total")
            for s in scrapes
        )
        assert expected == len(MAPPINGS)
        assert counter_total(
            families, "fleet:engine_queries_total"
        ) == pytest.approx(expected)
