"""The journal sample sink as it was written before it rendered lines:
the byte-exact oracle for :class:`repro.tracking.tracker.JournalSampleSink`.

Every sample becomes a payload dict and goes through
:meth:`~repro.tracking.journal.EventJournal.append_many`, i.e. the
journal's one encoder.  ``src/`` keeps one sink; this copy exists only so
``test_sample_sink_oracle.py`` can hold the rendering one to it, byte for
byte.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.tracking.journal import EventJournal
from repro.utils.records import to_jsonable


def _finite(value: float) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


class DictSampleSink:
    """``sink(hw, samples)``: one ``append_many`` of one dict per sample."""

    SAMPLE_SCHEMA = 1

    def __init__(self, journal: EventJournal):
        self.journal = journal

    def __call__(self, hw, samples) -> None:
        fragment = {str(k): to_jsonable(v) for k, v in vars(hw).items()}
        self.journal.append_many(
            "engine_sample",
            [
                {
                    "sample_schema": self.SAMPLE_SCHEMA,
                    "layer": str(layer_name),
                    "hw": fragment,
                    "mapping": mapping.key(),
                    "shape": [shape.m, shape.n, shape.k, shape.reuse_penalty],
                    "latency_s": _finite(result.latency_s),
                    "energy_j": _finite(result.energy_j),
                    "feasible": bool(result.feasible),
                    "reason": str(result.infeasible_reason),
                }
                for layer_name, mapping, shape, result in samples
            ],
        )
