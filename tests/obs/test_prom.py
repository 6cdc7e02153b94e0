"""Tests for Prometheus text exposition rendering and its strict parser."""

import pytest

from repro.utils.metrics import MetricsRegistry
from repro.utils.prom import (
    METRIC_HELP,
    help_for,
    help_line,
    parse_prometheus_text,
    render_prometheus,
    sample_line,
    sanitize_metric_name,
)


def make_registry():
    """A registry shaped like the estimation service's."""
    registry = MetricsRegistry()
    registry.counter("service_queries").inc(5)
    registry.counter("service_requests_total[/evaluate_layer]").inc(3)
    registry.counter("service_requests_total[/health]").inc(1)
    hist = registry.histogram("service_latency_s", bounds=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return registry


class TestSanitize:
    def test_legal_name_unchanged(self):
        assert sanitize_metric_name("service_queries") == "service_queries"

    def test_illegal_chars_replaced(self):
        assert sanitize_metric_name("lat-ms.p99") == "lat_ms_p99"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives").startswith("_")


class TestRender:
    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_output_parses_with_strict_parser(self):
        text = render_prometheus(make_registry().snapshot())
        families = parse_prometheus_text(text)
        assert families["service_queries"]["type"] == "counter"
        assert families["service_requests_total"]["type"] == "counter"
        assert families["service_latency_s"]["type"] == "histogram"

    def test_labeled_counter_convention(self):
        text = render_prometheus(make_registry().snapshot())
        assert 'service_requests_total{path="/evaluate_layer"} 3' in text
        assert 'service_requests_total{path="/health"} 1' in text
        # one TYPE header for the whole family
        assert text.count("# TYPE service_requests_total counter") == 1

    def test_histogram_conventions(self):
        text = render_prometheus(make_registry().snapshot())
        assert 'service_latency_s_bucket{le="0.1"} 1' in text
        assert 'service_latency_s_bucket{le="1"} 2' in text
        assert 'service_latency_s_bucket{le="+Inf"} 3' in text
        assert "service_latency_s_count 3" in text
        families = parse_prometheus_text(text)
        samples = families["service_latency_s"]["samples"]
        sums = [v for (n, _, v) in samples if n == "service_latency_s_sum"]
        assert sums == [pytest.approx(5.55)]

    def test_deterministic_output(self):
        registry = make_registry()
        assert render_prometheus(registry.snapshot()) == render_prometheus(
            registry.snapshot()
        )

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.counter('weird[/path"with\\quotes]').inc()
        text = render_prometheus(registry.snapshot())
        families = parse_prometheus_text(text)
        ((_, labels, value),) = families["weird"]["samples"]
        assert labels["path"] == '/path"with\\quotes'
        assert value == 1


class TestLineWriters:
    """The one writer the renderer and the hub's fleet merge share."""

    def test_int_exact_and_float_as_g(self):
        assert sample_line("x_count", {}, 1234567) == "x_count 1234567"
        assert sample_line("x_total", {}, 1234567.0) == "x_total 1.23457e+06"

    def test_labels_sorted_and_escaped(self):
        line = sample_line("x", {"z": "1", "a": 'q"\\\n'}, 0.5)
        assert line == 'x{a="q\\"\\\\\\n",z="1"} 0.5'
        (_name, labels, value), = parse_prometheus_text(
            "# TYPE x counter\n" + line + "\n"
        )["x"]["samples"]
        assert labels == {"a": 'q"\\\n', "z": "1"} and value == 0.5

    def test_help_line_escapes_backslash_and_newline(self):
        assert help_line("x", "a\\b\nc") == "# HELP x a\\\\b\\nc"


class TestHelpLines:
    def test_known_families_get_help(self):
        text = render_prometheus(make_registry().snapshot())
        assert "# HELP engine_queries_total" not in text  # not in registry
        # families with registry entries get their HELP line
        assert help_for("engine_queries_total")
        registry = MetricsRegistry()
        registry.counter("engine_queries_total").inc()
        text = render_prometheus(registry.snapshot())
        assert text.startswith("# HELP engine_queries_total ")
        assert "# TYPE engine_queries_total counter" in text

    def test_unknown_family_renders_without_help(self):
        registry = MetricsRegistry()
        registry.counter("bespoke_metric_total").inc()
        text = render_prometheus(registry.snapshot())
        assert "# HELP" not in text
        assert "# TYPE bespoke_metric_total counter" in text

    def test_parser_captures_help_text(self):
        registry = MetricsRegistry()
        registry.counter("engine_queries_total").inc(2)
        families = parse_prometheus_text(
            render_prometheus(registry.snapshot())
        )
        assert families["engine_queries_total"]["help"] == help_for(
            "engine_queries_total"
        )

    def test_custom_help_escapes_round_trip(self, monkeypatch):
        registry = MetricsRegistry()
        registry.counter("odd_total").inc()
        monkeypatch.setitem(METRIC_HELP, "odd_total", "line one\nline two \\ backslash")
        text = render_prometheus(registry.snapshot())
        assert "\n# TYPE" in text  # HELP stays one physical line
        families = parse_prometheus_text(text)
        assert families["odd_total"]["help"] == (
            "line one\nline two \\ backslash"
        )


class TestLabelEscapingRoundTrips:
    """Satellite acceptance: quotes, backslashes and newlines in label
    values must survive exposition → strict parse → re-exposition."""

    HOSTILE_VALUES = (
        'quote " inside',
        "back\\slash",
        "new\nline",
        'all \\ of " them\ntogether',
        "\\n literal-backslash-n",
        'trailing backslash \\',
    )

    @pytest.mark.parametrize("value", HOSTILE_VALUES)
    def test_value_survives_parse(self, value):
        registry = MetricsRegistry()
        registry.counter(f"weird[{value}]").inc(2)
        text = render_prometheus(registry.snapshot())
        families = parse_prometheus_text(text)
        ((_, labels, count),) = families["weird"]["samples"]
        assert labels["path"] == value
        assert count == 2

    def test_exposition_fixpoint(self):
        """Render → parse → render again is byte-identical (escaping is
        its own inverse, not merely lossless)."""
        registry = MetricsRegistry()
        for value in self.HOSTILE_VALUES:
            registry.counter(f"weird[{value}]").inc()
        first = render_prometheus(registry.snapshot())
        families = parse_prometheus_text(first)
        rebuilt = MetricsRegistry()
        for _name, labels, value in families["weird"]["samples"]:
            rebuilt.counter(f"weird[{labels['path']}]").inc(int(value))
        assert render_prometheus(rebuilt.snapshot()) == first

    def test_each_sample_is_one_physical_line(self):
        registry = MetricsRegistry()
        registry.counter("weird[new\nline]").inc()
        text = render_prometheus(registry.snapshot())
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 1
        assert '\\n' in lines[0]


class TestParser:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="outside its TYPE"):
            parse_prometheus_text("queries 5\n")

    def test_malformed_type_rejected(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus_text("# TYPE queries\nqueries 5\n")

    def test_unknown_metric_kind_rejected(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus_text("# TYPE queries widget\nqueries 5\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prometheus_text("# TYPE q counter\nq banana\n")

    def test_duplicate_type_rejected(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus_text(
                "# TYPE q counter\nq 1\n# TYPE q counter\nq 2\n"
            )

    def test_sample_from_other_family_rejected(self):
        with pytest.raises(ValueError, match="outside its TYPE"):
            parse_prometheus_text("# TYPE q counter\nother 1\n")

    def test_non_cumulative_histogram_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            parse_prometheus_text(text)

    def test_histogram_missing_inf_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            "h_sum 1\n"
            "h_count 1\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_prometheus_text(text)

    def test_inf_bucket_count_mismatch_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_prometheus_text(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# HELP q something\n\n# TYPE q counter\nq 1\n"
        families = parse_prometheus_text(text)
        assert families["q"]["samples"] == [("q", {}, 1.0)]


class TestTypeValidation:
    """A ``# TYPE`` declaration constrains which sample names may follow:
    exposition drift (``TYPE x counter`` then ``x_bytes 5``) is the kind
    of thing a lenient scraper mis-ingests silently."""

    def test_counter_rejects_suffixed_sample(self):
        with pytest.raises(ValueError, match="not a legal series"):
            parse_prometheus_text("# TYPE q counter\nq_bytes 5\n")

    def test_gauge_rejects_suffixed_sample(self):
        with pytest.raises(ValueError, match="not a legal series"):
            parse_prometheus_text("# TYPE g gauge\ng_total 5\n")

    def test_gauge_accepts_exact_name(self):
        families = parse_prometheus_text("# TYPE g gauge\ng 5\n")
        assert families["g"]["type"] == "gauge"

    def test_histogram_accepts_only_components(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\n'
            "h_sum 0.5\n"
            "h_count 1\n"
        )
        families = parse_prometheus_text(text)
        assert {n for n, _l, _v in families["h"]["samples"]} == {
            "h_bucket", "h_sum", "h_count"
        }

    def test_histogram_rejects_bare_family_sample(self):
        text = (
            "# TYPE h histogram\n"
            "h 1\n"
            'h_bucket{le="+Inf"} 1\n'
            "h_sum 0.5\nh_count 1\n"
        )
        with pytest.raises(ValueError, match="not a legal series"):
            parse_prometheus_text(text)

    def test_summary_accepts_quantile_and_components(self):
        text = (
            "# TYPE s summary\n"
            's{quantile="0.5"} 0.1\n'
            "s_sum 0.2\n"
            "s_count 2\n"
        )
        families = parse_prometheus_text(text)
        assert families["s"]["type"] == "summary"

    def test_rendered_exposition_type_lines_round_trip(self):
        """Every family the renderer emits carries an honest TYPE line:
        the strict parser re-ingests the whole exposition and agrees on
        the kind of every family."""
        text = render_prometheus(make_registry().snapshot())
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                base = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if name.endswith(suffix):
                        base = name[: -len(suffix)]
                assert f"# TYPE {base} " in text, name
        families = parse_prometheus_text(text)
        assert all(f["type"] in ("counter", "histogram")
                   for f in families.values())
