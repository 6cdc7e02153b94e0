"""Lightweight, JSON-serializable run records.

Experiment harnesses emit :class:`RunRecord` trees; :func:`to_jsonable`
normalizes NumPy scalars/arrays and dataclasses so records round-trip through
``json.dumps`` without custom encoders.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-compatible types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    if hasattr(value, "to_dict"):
        return to_jsonable(value.to_dict())
    return str(value)


@dataclass
class RunRecord:
    """A named bag of metrics plus nested child records.

    Examples
    --------
    >>> record = RunRecord("table1")
    >>> record.put("network", "resnet")
    >>> record.child("unico").put("latency_ms", 8.1)
    >>> payload = record.to_dict()
    >>> payload["children"]["unico"]["metrics"]["latency_ms"]
    8.1
    """

    name: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    children: Dict[str, "RunRecord"] = field(default_factory=dict)

    def put(self, key: str, value: Any) -> "RunRecord":
        """Store a metric; returns self for chaining."""
        self.metrics[key] = value
        return self

    def update(self, values: Dict[str, Any]) -> "RunRecord":
        """Store several metrics at once; returns self."""
        self.metrics.update(values)
        return self

    def get(self, key: str, default: Any = None) -> Any:
        return self.metrics.get(key, default)

    def child(self, name: str) -> "RunRecord":
        """Return (creating if absent) the child record ``name``."""
        if name not in self.children:
            self.children[name] = RunRecord(name)
        return self.children[name]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metrics": to_jsonable(self.metrics),
            "children": {k: v.to_dict() for k, v in self.children.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        record = cls(payload["name"], dict(payload.get("metrics", {})))
        for key, child in payload.get("children", {}).items():
            record.children[key] = cls.from_dict(child)
        return record

    def rows(self, prefix: str = "") -> List[Dict[str, Any]]:
        """Flatten the record tree into rows tagged with a path column."""
        path = f"{prefix}/{self.name}" if prefix else self.name
        rows = [{"path": path, **to_jsonable(self.metrics)}] if self.metrics else []
        for child in self.children.values():
            rows.extend(child.rows(path))
        return rows
