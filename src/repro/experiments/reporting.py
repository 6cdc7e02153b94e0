"""Markdown report generation from saved experiment records.

``python -m repro reproduce`` and the benchmark suite write one JSON
record per table/figure into ``benchmarks/results/``;
:func:`generate_report` renders them into a single
human-readable markdown document (the "measured" side of EXPERIMENTS.md).
Available from the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

from repro.utils.records import RunRecord

_KNOWN_RECORDS = (
    "table1_edge",
    "table2_cloud",
    "fig7a_edge",
    "fig7b_cloud",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "ablation_msh",
    "ablation_batch",
    "ablation_tools",
    "ablation_engines",
    "r_correlation",
    "seed_robustness",
)


def load_records(results_dir: pathlib.Path) -> Dict[str, RunRecord]:
    """Load every known record JSON present in ``results_dir``."""
    records: Dict[str, RunRecord] = {}
    for name in _KNOWN_RECORDS:
        path = results_dir / f"{name}.json"
        if path.exists():
            records[name] = RunRecord.from_dict(json.loads(path.read_text()))
    return records


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _table_section(name: str, record: RunRecord) -> List[str]:
    scenario = record.get("scenario", "?")
    methods = record.get("methods", [])
    lines = [f"## {name} ({scenario})", ""]
    header = "| Network | " + " | ".join(
        f"{m} L(ms) | {m} P(mW) | {m} A(mm2) | {m} Cost(h) | {m} queries"
        for m in methods
    ) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (1 + 5 * len(methods)))
    for network, row in record.children.items():
        cells = []
        for method in methods:
            metrics = row.children[method].metrics
            cells.extend(
                _fmt(metrics.get(key))
                for key in (
                    "latency_ms", "power_mw", "area_mm2", "cost_h", "engine_queries"
                )
            )
        lines.append(f"| {network} | " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def _fig7_section(name: str, record: RunRecord) -> List[str]:
    lines = [f"## {name}", ""]
    speedup = record.get("mean_speedup_vs_hasco")
    unreached = record.get("unreached_panels", [])
    lines.append(
        f"Mean speedup to HASCO's final quality: **{_fmt(speedup)}x** "
        f"(unreached panels, left out of the mean: "
        f"{', '.join(unreached) if unreached else 'none'})"
    )
    lines.append("")
    lines.append("| Network | " + " | ".join(
        f"{m} final HV-diff" for m in ("hasco", "nsgaii", "mobohb", "unico")
    ) + " |")
    lines.append("|" + "---|" * 5)
    for network, panel in record.children.items():
        cells = [
            _fmt(panel.children[m].get("final_hv_diff"))
            for m in ("hasco", "nsgaii", "mobohb", "unico")
            if m in panel.children
        ]
        lines.append(f"| {network} | " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def _generic_section(name: str, record: RunRecord) -> List[str]:
    lines = [f"## {name}", ""]
    for key, value in sorted(record.metrics.items()):
        if isinstance(value, (list, dict)):
            continue
        lines.append(f"* **{key}**: {_fmt(value)}")
    for child_name, child in record.children.items():
        simple = {
            k: v
            for k, v in child.metrics.items()
            if not isinstance(v, (list, dict))
        }
        if simple:
            rendered = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(simple.items()))
            lines.append(f"* `{child_name}`: {rendered}")
    lines.append("")
    return lines


def generate_report(results_dir: pathlib.Path) -> str:
    """Render every saved record into one markdown document."""
    records = load_records(results_dir)
    lines = ["# UNICO reproduction — measured results", ""]
    if not records:
        lines.append(
            "_No records found. Run `pytest benchmarks/ --benchmark-only` first._"
        )
        return "\n".join(lines)
    lines.append(
        f"Generated from {len(records)} record(s) in `{results_dir}`."
    )
    lines.append("")
    for name, record in records.items():
        if name.startswith("table"):
            lines.extend(_table_section(name, record))
        elif name.startswith("fig7"):
            lines.extend(_fig7_section(name, record))
        else:
            lines.extend(_generic_section(name, record))
    return "\n".join(lines)
