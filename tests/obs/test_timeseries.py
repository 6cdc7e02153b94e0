"""Tests for the append-only metrics store and its query layer."""

import json
import os

import pytest

from repro.errors import TrackingError
from repro.obs.timeseries import (
    MetricsStore,
    counter_increase,
    flatten_families,
    histogram_quantile,
    series_key,
)


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("up", {}) == "up"

    def test_labels_sorted(self):
        key = series_key("m", {"b": "2", "a": "1"})
        assert key == 'm{a="1",b="2"}'

    def test_replica_label_dropped(self):
        assert series_key("m", {"replica": "r0"}) == "m"
        assert series_key("m", {"replica": "r0", "path": "/x"}) == 'm{path="/x"}'


class TestFlattenFamilies:
    def test_prometheus_parse_round_trip(self):
        from repro.obs.prom import parse_prometheus_text

        text = (
            "# HELP service_requests_total total\n"
            "# TYPE service_requests_total counter\n"
            'service_requests_total{path="/evaluate"} 7\n'
            "# HELP request_seconds latency\n"
            "# TYPE request_seconds histogram\n"
            'request_seconds_bucket{le="0.1"} 3\n'
            'request_seconds_bucket{le="+Inf"} 5\n'
            "request_seconds_sum 0.4\n"
            "request_seconds_count 5\n"
        )
        flat = flatten_families(parse_prometheus_text(text))
        assert flat['service_requests_total{path="/evaluate"}'] == 7.0
        assert flat['request_seconds_bucket{le="0.1"}'] == 3.0
        assert flat["request_seconds_count"] == 5.0


class TestCounterIncrease:
    def test_monotone(self):
        assert counter_increase([(0, 1.0), (1, 4.0), (2, 9.0)]) == 8.0

    def test_reset_counts_post_restart_value(self):
        # 10 -> 2 is a restart: the 2 is new growth, not a -8 delta
        assert counter_increase([(0, 10.0), (1, 2.0), (2, 5.0)]) == 5.0

    def test_single_point_is_zero(self):
        assert counter_increase([(0, 10.0)]) == 0.0


class TestHistogramQuantile:
    BUCKETS = {"0.1": 10.0, "0.5": 20.0, "+Inf": 20.0}

    def test_median_interpolates(self):
        # rank 10 of 20 lands exactly on the 0.1 bound
        assert histogram_quantile(0.5, self.BUCKETS) == pytest.approx(0.1)

    def test_top_bucket_clamps_to_finite_bound(self):
        assert histogram_quantile(1.0, self.BUCKETS) == pytest.approx(0.5)

    def test_empty_window_is_none(self):
        assert histogram_quantile(0.5, {"0.1": 0.0, "+Inf": 0.0}) is None

    def test_missing_inf_bucket_is_none(self):
        assert histogram_quantile(0.5, {"0.1": 3.0}) is None

    def test_bad_q_rejected(self):
        with pytest.raises(TrackingError):
            histogram_quantile(1.5, self.BUCKETS)


class TestAppendRead:
    def test_memory_only_round_trip(self):
        store = MetricsStore()
        assert store.append("fleet", 1.0, {"up": 2.0}) == -1
        assert store.samples("fleet") == [(1.0, {"up": 2.0})]
        assert store.targets() == ["fleet"]

    def test_disk_round_trip_and_byte_cursor(self, tmp_path):
        with MetricsStore(tmp_path) as store:
            first = store.append("replica:a:1", 1.0, {"up": 1.0})
            second = store.append("replica:a:1", 2.0, {"up": 1.0})
            assert second > first
            samples, scan = store.read_from("replica:a:1", 0)
            assert [t for t, _s in samples] == [1.0, 2.0]
            assert scan.valid_bytes == second
            # incremental: resume from the first line's end cursor
            newer, _scan = store.read_from("replica:a:1", first)
            assert [t for t, _s in newer] == [2.0]

    def test_targets_discovered_from_disk(self, tmp_path):
        with MetricsStore(tmp_path) as store:
            store.append("fleet", 1.0, {"x": 1.0})
            store.append("hub", 1.0, {"y": 1.0})
        fresh = MetricsStore(tmp_path)
        assert fresh.targets() == ["fleet", "hub"]
        assert fresh.series("fleet", "x") == [(1.0, 1.0)]

    def test_unsafe_target_names_sanitized(self, tmp_path):
        with MetricsStore(tmp_path) as store:
            store.append("run/../evil name", 1.0, {"x": 1.0})
        files = [p.name for p in tmp_path.glob("*.jsonl")]
        assert files == ["run_.._evil_name.jsonl"]

    def test_empty_target_rejected(self, tmp_path):
        with pytest.raises(TrackingError):
            MetricsStore(tmp_path).append("", 1.0, {})


class TestCrashResume:
    def test_truncated_tail_survives_and_resumes_byte_consistently(
        self, tmp_path
    ):
        """Acceptance: a crash-torn final line is truncated on the next
        append and the file stays a clean sequence of complete lines."""
        with MetricsStore(tmp_path) as store:
            store.append("fleet", 1.0, {"x": 1.0})
            store.append("fleet", 2.0, {"x": 2.0})
        path = tmp_path / "fleet.jsonl"
        clean = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b'{"t": 3.0, "s": {"x":')  # simulated crash

        resumed = MetricsStore(tmp_path)
        samples, scan = resumed.read_from("fleet", 0)
        assert [t for t, _s in samples] == [1.0, 2.0]
        assert scan.truncated_tail
        assert scan.valid_bytes == len(clean)

        offset = resumed.append("fleet", 4.0, {"x": 4.0})
        raw = path.read_bytes()
        assert raw.startswith(clean)  # damage truncated, history intact
        assert offset == len(raw)
        lines = [json.loads(line) for line in raw.splitlines()]
        assert [line["t"] for line in lines] == [1.0, 2.0, 4.0]
        resumed.close()

    def test_first_append_after_a_cut_at_every_byte(self, tmp_path):
        """The shared append log: wherever the last sample was torn, the
        first append cuts the tail, and its offset is the file's size."""
        with MetricsStore(tmp_path / "whole") as store:
            store.append("fleet", 1.0, {"x": 1.0})
            first = store.append("fleet", 2.0, {"x": 2.0})
            store.append("fleet", 3.0, {"x": 3.0, "y": 0.5})
        raw = (tmp_path / "whole" / "fleet.jsonl").read_bytes()
        path = tmp_path / "fleet.jsonl"
        for cut in range(first, len(raw) + 1):
            path.write_bytes(raw[:cut])
            survivors = [1.0, 2.0] + ([3.0] if cut == len(raw) else [])
            with MetricsStore(tmp_path) as store:
                offset = store.append("fleet", 4.0, {"x": 4.0})
            after = path.read_bytes()
            assert offset == len(after), cut
            assert [json.loads(line)["t"] for line in after.splitlines()] == (
                survivors + [4.0]
            ), cut

    def test_offsets_come_from_the_log_not_from_stat(self, tmp_path, monkeypatch):
        import pathlib

        path = tmp_path / "fleet.jsonl"
        with MetricsStore(tmp_path) as store:
            sizes = [store.append("fleet", 0.0, {"x": 0.0})]
            stats = []
            real_stat = pathlib.Path.stat
            monkeypatch.setattr(
                pathlib.Path,
                "stat",
                lambda self, **kw: stats.append(self) or real_stat(self, **kw),
            )
            sizes += [store.append("fleet", float(t), {"x": 1.0}) for t in (1, 2, 3)]
            monkeypatch.undo()
            assert stats == []
            assert sizes[-1] == path.stat().st_size
            assert sizes == sorted(set(sizes))
            # a compaction rewrites the file: the next offset is the new size
            store.compact("fleet", now=3.0, retention_s=1.5)
            assert store.append("fleet", 4.0, {"x": 4.0}) == path.stat().st_size

    def test_append_reopens_after_external_truncate(self, tmp_path):
        with MetricsStore(tmp_path) as store:
            store.append("fleet", 1.0, {"x": 1.0})
            os.truncate(tmp_path / "fleet.jsonl", 0)
            store.append("fleet", 2.0, {"x": 2.0})
        fresh = MetricsStore(tmp_path)
        # O_APPEND keeps writing at the (new) end: only the second survives
        assert [t for t, _s in fresh.samples("fleet")] == [2.0]


class TestQueries:
    def fill(self, store, target="replica:a"):
        for i in range(5):
            store.append(
                target, float(i),
                {"c_total": float(i * 2), "g": float(10 - i)},
            )

    def test_last_avg_max_min(self):
        store = MetricsStore()
        self.fill(store)
        q = lambda fn: store.query("replica:a", "g", fn, 10.0, now=4.0)
        assert q("last") == 6.0
        assert q("max") == 10.0
        assert q("min") == 6.0
        assert q("avg") == pytest.approx(8.0)

    def test_rate_and_increase(self):
        store = MetricsStore()
        self.fill(store)
        inc = store.query("replica:a", "c_total", "increase", 4.0, now=4.0)
        assert inc == 8.0
        rate = store.query("replica:a", "c_total", "rate", 4.0, now=4.0)
        assert rate == pytest.approx(2.0)

    def test_never_seen_series_is_none(self):
        store = MetricsStore()
        self.fill(store)
        assert store.query("replica:a", "nope", "rate", 4.0, now=4.0) is None
        assert store.query("replica:a", "nope", "last", 4.0, now=4.0) is None

    def test_stopped_counter_reads_zero_not_none(self):
        """A series seen historically but silent in the window is a
        stopped counter (rate 0) — the signal alert rules key on."""
        store = MetricsStore()
        self.fill(store)
        # window [96, 100] holds no points, but the series exists
        assert store.query("replica:a", "c_total", "rate", 4.0, now=100.0) == 0.0

    def test_unknown_fn_rejected(self):
        store = MetricsStore()
        self.fill(store)
        with pytest.raises(TrackingError):
            store.query("replica:a", "g", "stddev", 4.0, now=4.0)

    def test_quantile_from_histogram_series(self):
        store = MetricsStore()
        t0 = {
            'lat_bucket{le="0.1"}': 0.0,
            'lat_bucket{le="0.5"}': 0.0,
            'lat_bucket{le="+Inf"}': 0.0,
        }
        t1 = {
            'lat_bucket{le="0.1"}': 10.0,
            'lat_bucket{le="0.5"}': 20.0,
            'lat_bucket{le="+Inf"}': 20.0,
        }
        store.append("replica:a", 0.0, t0)
        store.append("replica:a", 1.0, t1)
        p50 = store.query(
            "replica:a", "lat", "quantile", 10.0, now=1.0, q=0.5
        )
        assert p50 == pytest.approx(0.1)

    def test_series_names_prefix(self):
        store = MetricsStore()
        self.fill(store)
        assert store.series_names("replica:a") == ["c_total", "g"]
        assert store.series_names("replica:a", prefix="c_") == ["c_total"]


class TestCompact:
    def test_retention_drops_and_downsamples(self, tmp_path):
        with MetricsStore(tmp_path) as store:
            now = 100_000.0
            # ancient (beyond retention), old (downsample band), recent
            store.append("fleet", now - 800.0, {"x": 1.0})
            for i in range(10):
                store.append("fleet", now - 400.0 + i, {"x": float(i)})
            store.append("fleet", now - 5.0, {"x": 99.0})
            kept = store.compact(
                "fleet", now,
                retention_s=600.0,
                downsample_after_s=100.0,
                downsample_to_s=60.0,
            )
            # 10 old samples collapse to one per 60s bucket (here: 1), +1 recent
            assert kept == 2
            samples = store.samples("fleet")
            assert samples[-1] == (now - 5.0, {"x": 99.0})
            # appends continue cleanly on the rewritten file
            store.append("fleet", now, {"x": 100.0})
        fresh = MetricsStore(tmp_path)
        assert len(fresh.samples("fleet")) == 3

    def test_memory_store_compacts_cache(self):
        store = MetricsStore()
        store.append("fleet", 0.0, {"x": 1.0})
        store.append("fleet", 1000.0, {"x": 2.0})
        assert store.compact("fleet", 1000.0, retention_s=100.0) == 1
        assert store.samples("fleet") == [(1000.0, {"x": 2.0})]


class TestObsCli:
    def test_obs_query_fn_flag_does_not_shadow_dispatch(self, tmp_path, capsys):
        # --fn must not land in args.fn: that slot holds the subcommand
        # handler, and overwriting it crashed dispatch with a TypeError
        from repro.cli import main

        with MetricsStore(tmp_path / "obs") as store:
            for i in range(4):
                store.append("fleet", float(i), {"c_total": float(2 * i)})
        rc = main([
            "obs", "query", "fleet", "c_total",
            "--fn", "rate", "--window", "3",
            "--obs-dir", str(tmp_path / "obs"),
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "2"
