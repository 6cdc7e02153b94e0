"""Chrome-trace-event export: ``trace.json`` loadable in Perfetto.

The Trace Event Format (the JSON understood by ``chrome://tracing`` and
https://ui.perfetto.dev) renders nested spans as a flame graph.  Every
span becomes a complete ("ph": "X") event on the **wall-clock** timeline;
spans that also consumed simulated search time get a twin event in a
second synthetic process, so one file answers both "where did the CPU
go" and "where did the modeled search budget go".

Spans carry their trace/span/parent ids and typed attributes in
``args``, so a stitched client+server trace stays navigable.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Sequence, Union

#: Synthetic pid of the wall-clock timeline in the exported trace.
WALL_PID = 1
#: Synthetic pid of the simulated-search-time timeline.
SIM_PID = 2


def spans_to_trace_events(spans: Sequence[Dict]) -> List[Dict]:
    """Convert finished-span dicts into Trace Event Format events."""
    events: List[Dict] = [
        {"ph": "M", "pid": WALL_PID, "name": "process_name",
         "args": {"name": "wall clock"}},
        {"ph": "M", "pid": SIM_PID, "name": "process_name",
         "args": {"name": "simulated search time"}},
    ]
    for span in spans:
        args = dict(span.get("attrs") or {})
        args["span_id"] = span.get("span_id")
        args["parent_id"] = span.get("parent_id")
        args["trace_id"] = span.get("trace_id")
        args["sim_start_s"] = span.get("sim_start_s", 0.0)
        args["sim_dur_s"] = span.get("sim_dur_s", 0.0)
        events.append(
            {
                "name": span.get("name", "span"),
                "cat": "wall",
                "ph": "X",
                "ts": float(span.get("wall_start_s", 0.0)) * 1e6,
                "dur": float(span.get("wall_dur_s", 0.0)) * 1e6,
                "pid": WALL_PID,
                "tid": span.get("thread", 0),
                "args": args,
            }
        )
        if float(span.get("sim_dur_s", 0.0)) > 0.0:
            events.append(
                {
                    "name": span.get("name", "span"),
                    "cat": "sim",
                    "ph": "X",
                    "ts": float(span.get("sim_start_s", 0.0)) * 1e6,
                    "dur": float(span.get("sim_dur_s", 0.0)) * 1e6,
                    "pid": SIM_PID,
                    "tid": 0,
                    "args": {"span_id": span.get("span_id"),
                             "parent_id": span.get("parent_id")},
                }
            )
    return events


def write_chrome_trace(
    spans: Sequence[Dict], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write spans as a Chrome trace JSON file; returns the path."""
    path = pathlib.Path(path)
    document = {
        "traceEvents": spans_to_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro.obs chrome trace", "version": 1},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, sort_keys=True))
    return path


__all__ = [
    "SIM_PID",
    "WALL_PID",
    "spans_to_trace_events",
    "write_chrome_trace",
]
