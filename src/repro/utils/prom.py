"""Prometheus text-format exposition for :class:`~repro.utils.metrics.MetricsRegistry`.

The estimation service serves ``GET /metrics?format=prom`` with the
output of :func:`render_prometheus`, so a stock Prometheus scraper can
monitor it without a JSON exporter in between.  The renderer follows the
text exposition format conventions:

* metric names sanitized to ``[a-zA-Z_:][a-zA-Z0-9_:]*``;
* counters emitted under one ``# TYPE <name> counter`` header — the
  registry's ``name[label]`` convention (e.g.
  ``service_requests_total[/evaluate_layers]``) becomes a proper
  ``{path="/evaluate_layers"}`` label set;
* histograms as cumulative ``_bucket{le="..."}`` series plus ``_sum``
  and ``_count``, closed by the mandatory ``+Inf`` bucket;
* families whose base name appears in :data:`METRIC_HELP` get a
  ``# HELP`` line ahead of their ``# TYPE`` header.

:func:`sample_line` and :func:`help_line` write every sample and
``# HELP`` line, here and in the hub's fleet merge
(:meth:`repro.hub.aggregate.FleetAggregator.merge`).

:func:`parse_prometheus_text` is the matching strict parser; tests use
it to prove the rendered output is actually scrapeable, and it validates
the cumulative-bucket invariants a real Prometheus server enforces.
Histogram validation groups series by their non-``le`` label sets, so a
multi-replica exposition (the hub's fleet aggregation labels every
series with ``replica="..."``) is held to the same invariants per
replica.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Tuple

#: metric → one-line description, rendered as ``# HELP`` ahead of the
#: family's ``# TYPE`` header.  Keyed by *sanitized base* name; names not
#: listed simply render without HELP (the format does not require it).
METRIC_HELP: Dict[str, str] = {
    "engine_queries_total": "PPA engine evaluations requested (cached or computed).",
    "engine_cache_hits_total": "Engine queries served from the result cache.",
    "engine_cache_evictions_total": "LRU evictions from the engine result cache.",
    "engine_compute_seconds":
        "Wall time of one engine call's uncached computations.",
    "service_requests_total": "HTTP requests served, by matched route.",
    "service_errors_total": "HTTP requests answered with a 4xx/5xx status.",
    "service_drain_rejections_total":
        "Requests rejected with 503 while the service was draining.",
    "service_request_seconds": "Wall time spent serving HTTP requests.",
    "remote_requests_total": "Requests the remote engine client sent upstream.",
    "remote_network_retries_total":
        "Transport-level retries of remote engine requests.",
    "remote_circuit_rejections_total":
        "Requests rejected fast by an open client circuit breaker.",
    "remote_circuit_opened_total": "Times a client circuit breaker opened.",
    "remote_error_body_unparsed_total":
        "Upstream error bodies that were not parseable JSON.",
    "remote_request_seconds": "Wall time of remote engine request round trips.",
    "fleet_requests_total": "Requests routed to a fleet shard, by shard.",
    "fleet_failovers_total":
        "Keys served by a non-owner shard because the owner was down.",
    "fleet_shard_down_total": "Times a shard was marked down, by shard.",
    "hub_requests_total": "Hub control-plane HTTP requests, by matched route.",
    "hub_errors_total": "Hub requests answered with a 4xx/5xx status.",
    "hub_request_seconds": "Wall time of hub control-plane requests.",
    "hub_sse_streams_total": "Journal SSE streams opened against the hub.",
    "hub_sse_events_total": "Journal events sent over hub SSE streams.",
    "hub_sse_resumes_total": "SSE streams resumed from a Last-Event-ID cursor.",
    "hub_runs_submitted_total": "Runs submitted through POST /runs.",
    "hub_runs_completed_total": "Hub-scheduled runs that reached completed.",
    "hub_runs_failed_total": "Hub-scheduled runs that reached failed.",
    "hub_runs_cancelled_total": "Hub-scheduled runs cancelled via the API.",
    "hub_fleet_scrapes_total": "Fleet metric scrape sweeps performed by the hub.",
    "hub_fleet_scrape_errors_total":
        "Replica scrapes that failed or returned unparseable text.",
    "hub_fleet_scrape_seconds": "Wall time of full fleet scrape+merge sweeps.",
    "hub_fleet_merge_conflicts_total":
        "Histogram families skipped from fleet rollups (bucket mismatch).",
}

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?'
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?P<sep>,|$)'
)


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary registry name into a legal Prometheus name."""
    cleaned = _SANITIZE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_LABEL_UNESCAPE = re.compile(r'\\(\\|n|")')


def _unescape_label_value(value: str) -> str:
    """Single-pass inverse of :func:`_escape_label_value`.

    Sequential ``str.replace`` calls are wrong here: a literal backslash
    followed by ``n`` escapes to ``\\\\n``, whose middle ``\\n`` a naive
    ``.replace("\\\\n", newline)`` pass would corrupt into a newline.
    """
    return _LABEL_UNESCAPE.sub(
        lambda match: {"\\": "\\", "n": "\n", '"': '"'}[match.group(1)], value
    )


_LABEL_KEY = re.compile(r"^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)=(?P<value>.+)$")


def _split_labeled_name(name: str) -> Tuple[str, Optional[str], str]:
    """Split the registry's labeled-name conventions into (base, value, key).

    Two spellings exist:

    * ``base[label]`` — a bare value under the default ``path`` key; the
      service records per-path request counters as
      ``service_requests_total[/evaluate_layers]``;
    * ``base[key=value]`` — an explicit label key; the fleet router
      records per-replica counters as
      ``fleet_requests_total[shard=shard-0]``.
    """
    if name.endswith("]"):
        idx = name.find("[")
        if 0 < idx < len(name) - 1:
            inner = name[idx + 1 : -1]
            match = _LABEL_KEY.match(inner)
            if match is not None:
                return name[:idx], match.group("value"), match.group("key")
            return name[:idx], inner, "path"
    return name, None, "path"


def sample_line(name: str, labels: Mapping[str, str], value: float) -> str:
    """One sample line, ``name{key="value",...} value``: the one writer of
    samples.  Labels are escaped and in key order; an ``int`` value (a
    bucket count) is written exactly, any other number as ``%g``."""
    text = str(value) if isinstance(value, int) else f"{float(value):g}"
    if not labels:
        return f"{name} {text}"
    body = ",".join(
        f'{key}="{_escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{{{body}}} {text}"


def help_line(name: str, text: str) -> str:
    """``# HELP name text``, with ``text`` escaped (only ``\\`` and newline
    are special)."""
    return f"# HELP {name} " + text.replace("\\", "\\\\").replace("\n", "\\n")


def help_for(base: str) -> Optional[str]:
    """Description of a (sanitized) metric family, if one is registered."""
    return METRIC_HELP.get(base)


def render_prometheus(snapshot: Dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Deterministic: families and series appear in sorted-name order, so
    repeated scrapes of an idle registry are byte-identical.  A family's
    ``# HELP`` line is its :data:`METRIC_HELP` entry, if it has one.
    """
    lines: List[str] = []

    def _emit_header(base: str, family_type: str) -> None:
        description = help_for(base)
        if description:
            lines.append(help_line(base, description))
        lines.append(f"# TYPE {base} {family_type}")

    families: Dict[str, List[Tuple[Optional[str], str, float]]] = {}
    for name, value in snapshot.get("counters", {}).items():
        base, label, key = _split_labeled_name(str(name))
        families.setdefault(sanitize_metric_name(base), []).append(
            (label, key, float(value))
        )
    for base in sorted(families):
        _emit_header(base, "counter")
        for label, key, value in sorted(
            families[base], key=lambda item: (item[1], item[0] or "")
        ):
            lines.append(
                sample_line(base, {} if label is None else {key: label}, value)
            )

    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        hist = histograms[name]
        base = sanitize_metric_name(str(name))
        _emit_header(base, "histogram")
        cumulative = 0
        edges = [f"{bound:g}" for bound in hist["bounds"]] + ["+Inf"]
        for le, bucket in zip(edges, hist["bucket_counts"]):
            cumulative += bucket
            lines.append(sample_line(f"{base}_bucket", {"le": le}, cumulative))
        lines.append(sample_line(f"{base}_sum", {}, float(hist["sum"])))
        lines.append(sample_line(f"{base}_count", {}, hist["count"]))

    return "\n".join(lines) + ("\n" if lines else "")


def _parse_labels(raw: Optional[str]) -> Dict[str, str]:
    """Parse the ``key="value",...`` body of a label set; strict.

    Scans left to right with a quote-aware regex (label values may
    legally contain commas and ``}``), so the split cannot land inside a
    quoted value.
    """
    labels: Dict[str, str] = {}
    if not raw:
        return labels
    position = 0
    while position < len(raw):
        match = _LABEL.match(raw, position)
        if match is None or match.start() != position:
            raise ValueError(f"malformed label pair at {raw[position:]!r}")
        labels[match.group("key")] = _unescape_label_value(match.group("value"))
        position = match.end()
    return labels


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Strictly parse Prometheus text exposition into metric families.

    Returns ``{family_name: {"type": str, "help": Optional[str],
    "samples": [(name, labels, value), ...]}}``.  Raises
    :class:`ValueError` on malformed lines, samples without a preceding
    ``# TYPE``, illegal metric names, malformed or duplicate ``# HELP``
    lines, or histogram families violating the cumulative ``_bucket``/
    ``_sum``/``_count`` conventions — i.e. anything a real scraper would
    reject.  ``# HELP`` may precede its family's ``# TYPE`` (the
    conventional order) or follow it.
    """
    families: Dict[str, Dict] = {}
    current: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
                current = parts[2]
                if not _NAME_OK.match(current):
                    raise ValueError(
                        f"line {lineno}: illegal metric name {current!r}"
                    )
                family = families.get(current)
                if family is None:
                    families[current] = {
                        "type": parts[3], "help": None, "samples": []
                    }
                elif family["type"] is None:  # created by a HELP line
                    family["type"] = parts[3]
                else:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {current!r}"
                    )
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 3:
                    raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
                name = parts[2]
                if not _NAME_OK.match(name):
                    raise ValueError(
                        f"line {lineno}: illegal metric name {name!r}"
                    )
                docstring = line.split(None, 3)[3] if len(parts) > 3 else ""
                family = families.setdefault(
                    name, {"type": None, "help": None, "samples": []}
                )
                if family["help"] is not None:
                    raise ValueError(
                        f"line {lineno}: duplicate HELP for {name!r}"
                    )
                family["help"] = _unescape_help(docstring)
            continue  # other comments
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        if current is None or not (
            name == current or name.startswith(current + "_")
        ):
            raise ValueError(
                f"line {lineno}: sample {name!r} outside its TYPE family"
            )
        family_type = families[current]["type"]
        if not _sample_name_fits_type(name, current, family_type):
            raise ValueError(
                f"line {lineno}: sample {name!r} is not a legal series of "
                f"{family_type} family {current!r}"
            )
        labels = _parse_labels(match.group("labels"))
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value in {line!r}"
            ) from None
        families[current]["samples"].append((name, labels, value))

    for family, data in families.items():
        if data["type"] is None:
            # a HELP line whose family never produced a TYPE or samples
            data["type"] = "untyped"
        if data["type"] == "histogram":
            _validate_histogram_family(family, data["samples"])
    return families


def _sample_name_fits_type(
    name: str, family: str, family_type: Optional[str]
) -> bool:
    """Type-aware sample naming: what a TYPE declaration promises.

    A ``counter`` (or ``gauge``) family carries exactly one series name —
    the family's own; a ``histogram`` carries only the ``_bucket`` /
    ``_sum`` / ``_count`` components; a ``summary`` its quantile series
    plus ``_sum``/``_count``.  Declaring ``TYPE x counter`` and then
    emitting ``x_bytes`` is the kind of exposition drift a real scraper
    mis-ingests silently; the strict parser rejects it so the renderer's
    round-trip test can prove the emitted TYPE lines are honest.
    """
    if family_type in ("counter", "gauge"):
        return name == family
    if family_type == "histogram":
        return name in (
            family + "_bucket", family + "_sum", family + "_count"
        )
    if family_type == "summary":
        return name in (family, family + "_sum", family + "_count")
    # untyped: anything in the family's namespace
    return True


_HELP_UNESCAPE = re.compile(r"\\(\\|n)")


def _unescape_help(text: str) -> str:
    return _HELP_UNESCAPE.sub(
        lambda match: {"\\": "\\", "n": "\n"}[match.group(1)], text
    )


def _validate_histogram_family(
    family: str, samples: List[Tuple[str, Dict[str, str], float]]
) -> None:
    """Enforce cumulative-bucket/_sum/_count invariants for one family.

    Series are grouped by their non-``le`` label sets first: a family may
    carry one histogram per label set (e.g. one per ``replica="..."`` in
    the hub's fleet exposition), and each group must independently satisfy
    the cumulative-bucket conventions.
    """
    groups: Dict[Tuple[Tuple[str, str], ...], Dict[str, List]] = {}

    def _group(labels: Dict[str, str]) -> Dict[str, List]:
        key = tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le"
        ))
        return groups.setdefault(key, {"buckets": [], "counts": [], "sums": []})

    for name, labels, value in samples:
        if name == family + "_bucket":
            _group(labels)["buckets"].append((labels, value))
        elif name == family + "_count":
            _group(labels)["counts"].append(value)
        elif name == family + "_sum":
            _group(labels)["sums"].append(value)
    if not groups:
        raise ValueError(f"histogram {family!r} has no series")
    for key, group in groups.items():
        where = f"histogram {family!r}" + (f" {dict(key)}" if key else "")
        buckets, counts, sums = group["buckets"], group["counts"], group["sums"]
        if not buckets or len(counts) != 1 or len(sums) != 1:
            raise ValueError(
                f"{where} must have _bucket series and exactly one _sum "
                "and one _count"
            )
        if any("le" not in labels for labels, _ in buckets):
            raise ValueError(f"{where} has a bucket without le=")
        if buckets[-1][0].get("le") != "+Inf":
            raise ValueError(f"{where} must end with le=\"+Inf\"")
        values = [v for _, v in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            raise ValueError(f"{where} buckets are not cumulative")
        if values[-1] != counts[0]:
            raise ValueError(
                f"{where}: +Inf bucket {values[-1]} != _count {counts[0]}"
            )


__all__ = [
    "METRIC_HELP",
    "help_for",
    "help_line",
    "parse_prometheus_text",
    "render_prometheus",
    "sample_line",
    "sanitize_metric_name",
]
