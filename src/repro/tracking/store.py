"""Persistent run directories: the ``RunStore`` and its ``RunHandle``\\ s.

Layout (one directory per tracked run)::

    runs/
      20260805-143015-unico-resnet50-s0/
        manifest.json          # who/what/how: method, workload, seed, ...
        journal.jsonl          # append-only event journal

The manifest is the run's identity card — everything needed to rebuild
the optimizer for resume (method, scenario, workload, preset, seed, time
budget) plus provenance (code version, engine class, design-space name)
and a coarse lifecycle ``status``: ``created`` → ``running`` →
``completed`` / ``failed``.  A run found still ``running`` on disk while
no process owns it was interrupted — exactly the case ``repro runs
resume`` exists for.  The journal is the run's one other durable file: its
``iteration_state`` lines are what a resume folds back into an optimizer.

Manifest writes go through a temp file + ``os.replace`` so a crash never
leaves a half-written manifest.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time
from typing import Dict, List, Optional, Union

from repro.errors import TrackingError
from repro.version import __version__

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Lifecycle states recorded in ``manifest.json``.  ``queued`` and
#: ``cancelled`` belong to hub-scheduled runs (:mod:`repro.hub.scheduler`):
#: queued runs sit in the scheduler's FIFO awaiting the single worker,
#: cancelled is the terminal state of an operator ``POST /runs/<id>/cancel``.
RUN_STATUSES = ("created", "queued", "running", "completed", "failed", "cancelled")

_ID_SANITIZE = re.compile(r"[^A-Za-z0-9_.+-]+")


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class RunHandle:
    """One run directory: manifest access and the journal's path."""

    def __init__(self, directory: Union[str, pathlib.Path]):
        self.dir = pathlib.Path(directory)
        if not self.dir.is_dir():
            raise TrackingError(f"run directory {self.dir} does not exist")

    @property
    def run_id(self) -> str:
        return self.dir.name

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.dir / MANIFEST_NAME

    @property
    def journal_path(self) -> pathlib.Path:
        return self.dir / JOURNAL_NAME

    # ---------------------------------------------------------------- manifest
    def read_manifest(self) -> Dict:
        try:
            return json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            raise TrackingError(f"run {self.run_id} has no {MANIFEST_NAME}")
        except json.JSONDecodeError as error:
            raise TrackingError(
                f"run {self.run_id} has a corrupt manifest: {error}"
            )

    def write_manifest(self, manifest: Dict) -> None:
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2, sort_keys=True)
        )

    def update_manifest(self, **fields) -> Dict:
        manifest = self.read_manifest()
        manifest.update(fields)
        self.write_manifest(manifest)
        return manifest

    @property
    def status(self) -> str:
        return str(self.read_manifest().get("status", "created"))

    def set_status(self, status: str, **extra) -> None:
        if status not in RUN_STATUSES:
            raise TrackingError(
                f"unknown status {status!r}; use one of {RUN_STATUSES}"
            )
        self.update_manifest(status=status, **extra)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunHandle({self.run_id!r})"


class RunStore:
    """Owns the ``runs/`` root: creates, lists and fetches run directories."""

    def __init__(self, root: Union[str, pathlib.Path] = "runs"):
        self.root = pathlib.Path(root)

    def create_run(
        self, manifest: Optional[Dict] = None, run_id: Optional[str] = None
    ) -> RunHandle:
        """Allocate a fresh run directory and write its initial manifest.

        ``run_id`` defaults to ``<utc-timestamp>-<method>-<workload>-s<seed>``
        built from the manifest; collisions get a numeric suffix.
        """
        manifest = dict(manifest or {})
        base_id = _sanitize_id(run_id) if run_id else _default_id(manifest)
        self.root.mkdir(parents=True, exist_ok=True)
        chosen = base_id
        for attempt in range(1, 1000):
            try:
                (self.root / chosen).mkdir()
                break
            except FileExistsError:
                chosen = f"{base_id}-{attempt}"
        else:  # pragma: no cover - pathological collision storm
            raise TrackingError(f"cannot allocate a run id from {base_id!r}")
        run_dir = self.root / chosen
        manifest.setdefault("run_id", chosen)
        manifest["run_id"] = chosen
        manifest.setdefault("created_at", _utc_now())
        manifest.setdefault("status", "created")
        manifest.setdefault("code_version", __version__)
        handle = RunHandle(run_dir)
        handle.write_manifest(manifest)
        return handle

    def get(self, run_id: str) -> RunHandle:
        path = self.root / run_id
        if not path.is_dir():
            known = ", ".join(h.run_id for h in self.list_runs()) or "none"
            raise TrackingError(
                f"no run {run_id!r} under {self.root} (known runs: {known})"
            )
        return RunHandle(path)

    def list_runs(self) -> List[RunHandle]:
        """Every run directory under the root, oldest first."""
        if not self.root.is_dir():
            return []
        handles = [
            RunHandle(path)
            for path in self.root.iterdir()
            if path.is_dir() and (path / MANIFEST_NAME).exists()
        ]
        return sorted(
            handles,
            key=lambda h: (h.read_manifest().get("created_at", ""), h.run_id),
        )


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _sanitize_id(raw: str) -> str:
    cleaned = _ID_SANITIZE.sub("-", raw.strip()).strip("-")
    if not cleaned:
        raise TrackingError(f"run id {raw!r} has no usable characters")
    return cleaned


def _default_id(manifest: Dict) -> str:
    parts = [time.strftime("%Y%m%d-%H%M%S", time.gmtime())]
    for key in ("method", "workload"):
        value = manifest.get(key)
        if isinstance(value, (list, tuple)):
            value = "+".join(str(v) for v in value)
        if value:
            parts.append(str(value))
    if "seed" in manifest:
        parts.append(f"s{manifest['seed']}")
    return _sanitize_id("-".join(parts))


__all__ = [
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "RUN_STATUSES",
    "RunHandle",
    "RunStore",
    "atomic_write_text",
]
