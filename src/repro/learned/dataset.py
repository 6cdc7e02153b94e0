"""Training-array extraction from journaled ``engine_sample`` events.

A tracked run whose engine had a sample sink installed (``repro run
--record-samples``) journals one ``engine_sample`` event per analytical
cost-model computation: the hardware variables, the mapping key, the
layer shape, and the exact PPA the engine returned.  This module replays
those journals — across a whole :class:`~repro.tracking.store.RunStore`
or a hand-picked set of runs — into the fixed-width NumPy arrays the
:class:`~repro.learned.model.LearnedCostModel` trains on.

Extraction is deliberately forgiving, mirroring the journal's own crash
discipline: truncated tails stop a file early but never fail the build,
events with unknown schema versions or malformed payloads are counted
and skipped, and duplicate candidates (the same (hw, layer, mapping,
shape) evaluated by several runs) are deduplicated so re-running a seed
does not double-weight its samples.  Splitting is by run id, so
validation measures transfer to unseen searches rather than memorization
of a search's own trajectory.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.learned.features import FEATURE_VERSION, feature_dim, featurize
from repro.mapping.gemm_mapping import GemmMapping
from repro.tracking.journal import read_events
from repro.tracking.store import JOURNAL_NAME, RunHandle, RunStore
from repro.workloads.layers import GemmShape

#: Highest ``engine_sample`` payload schema this extractor understands.
SAMPLE_SCHEMA = 1


@dataclass
class LearnedDataset:
    """Feature/target arrays distilled from one or more run journals."""

    x: np.ndarray
    latency_s: np.ndarray
    energy_j: np.ndarray
    feasible: np.ndarray
    run_ids: List[str]
    #: extraction bookkeeping: events seen/deduped/skipped, damaged files
    stats: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: Sequence[int]) -> "LearnedDataset":
        indices = np.asarray(indices, dtype=np.intp)
        return LearnedDataset(
            x=self.x[indices],
            latency_s=self.latency_s[indices],
            energy_j=self.energy_j[indices],
            feasible=self.feasible[indices],
            run_ids=[self.run_ids[i] for i in indices],
            stats=dict(self.stats),
        )


def _journal_sources(
    source: Union[RunStore, RunHandle, str, pathlib.Path, Iterable],
) -> List[Tuple[str, pathlib.Path]]:
    """Normalize any accepted source into ``(run_id, journal_path)`` pairs."""
    if isinstance(source, RunStore):
        return [
            (handle.run_id, handle.journal_path)
            for handle in source.list_runs()
            if handle.journal_path.exists()
        ]
    if isinstance(source, RunHandle):
        return [(source.run_id, source.journal_path)]
    if isinstance(source, (str, pathlib.Path)):
        path = pathlib.Path(source)
        if path.is_file():
            return [(path.parent.name or path.stem, path)]
        if (path / JOURNAL_NAME).exists():
            return [(path.name, path / JOURNAL_NAME)]
        if path.is_dir():
            return _journal_sources(RunStore(path))
        raise ConfigurationError(f"no runs or journal found at {path}")
    pairs: List[Tuple[str, pathlib.Path]] = []
    for item in source:
        pairs.extend(_journal_sources(item))
    return pairs


def _decode_sample(event: Dict):
    """Decode one ``engine_sample`` payload; returns None when unusable."""
    if int(event.get("sample_schema", 1)) > SAMPLE_SCHEMA:
        return None
    try:
        hw = SimpleNamespace(**event["hw"])
        tile_m, tile_n, tile_k, order, spatial, unroll = event["mapping"]
        mapping = GemmMapping(
            tile_m=int(tile_m),
            tile_n=int(tile_n),
            tile_k=int(tile_k),
            loop_order=tuple(order),
            spatial=str(spatial),
            unroll=int(unroll),
        )
        m, n, k, reuse = event["shape"]
        shape = GemmShape(m=int(m), n=int(n), k=int(k), reuse_penalty=float(reuse))
        feasible = bool(event["feasible"])
        latency = event.get("latency_s")
        energy = event.get("energy_j")
        latency = float(latency) if latency is not None else float("inf")
        energy = float(energy) if energy is not None else float("inf")
    except (KeyError, TypeError, ValueError, ReproError):
        return None
    dedup_key = (
        tuple(sorted(event["hw"].items())),
        str(event.get("layer", "")),
        mapping.key(),
        (shape.m, shape.n, shape.k, shape.reuse_penalty),
    )
    return hw, mapping, shape, latency, energy, feasible, dedup_key


def build_dataset(
    source: Union[RunStore, RunHandle, str, pathlib.Path, Iterable],
    dedup: bool = True,
) -> LearnedDataset:
    """Replay ``engine_sample`` events from ``source`` into arrays.

    ``source`` may be a :class:`RunStore`, a runs-root path, a single run
    directory, a bare ``journal.jsonl`` path, or any iterable of those.
    """
    sources = _journal_sources(source)
    stats = {
        "journals": len(sources),
        "events": 0,
        "duplicates": 0,
        "skipped": 0,
        "truncated_journals": 0,
    }
    rows: List[np.ndarray] = []
    latency: List[float] = []
    energy: List[float] = []
    feasible: List[bool] = []
    run_ids: List[str] = []
    seen: set = set()
    for run_id, journal_path in sources:
        scan = read_events(journal_path)
        if scan.truncated_tail:
            stats["truncated_journals"] += 1
        for event in scan.events:
            if event.get("type") != "engine_sample":
                continue
            stats["events"] += 1
            decoded = _decode_sample(event)
            if decoded is None:
                stats["skipped"] += 1
                continue
            hw, mapping, shape, lat, eng, feas, dedup_key = decoded
            if dedup:
                if dedup_key in seen:
                    stats["duplicates"] += 1
                    continue
                seen.add(dedup_key)
            try:
                rows.append(featurize(hw, mapping, shape))
            except (AttributeError, TypeError, ValueError):
                stats["skipped"] += 1
                if dedup:
                    seen.discard(dedup_key)
                continue
            latency.append(lat)
            energy.append(eng)
            feasible.append(feas)
            run_ids.append(run_id)
    x = (
        np.vstack(rows)
        if rows
        else np.empty((0, feature_dim()), dtype=np.float64)
    )
    return LearnedDataset(
        x=x,
        latency_s=np.asarray(latency, dtype=np.float64),
        energy_j=np.asarray(energy, dtype=np.float64),
        feasible=np.asarray(feasible, dtype=bool),
        run_ids=run_ids,
        stats=stats,
    )


def split_by_run(
    dataset: LearnedDataset,
    val_fraction: float = 0.25,
    seed: int = 0,
) -> Tuple[LearnedDataset, LearnedDataset]:
    """Split into (train, val) keeping whole runs on one side.

    With fewer than two distinct runs there is no run boundary to split
    on, so the fallback is a seeded row split (still deterministic).
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigurationError(
            f"val_fraction must be in [0, 1), got {val_fraction}"
        )
    count = len(dataset)
    rng = np.random.default_rng(seed)
    unique_runs = sorted(set(dataset.run_ids))
    if len(unique_runs) >= 2 and val_fraction > 0.0:
        order = list(rng.permutation(len(unique_runs)))
        target = val_fraction * count
        val_runs: set = set()
        val_rows = 0
        for index in order:
            if len(val_runs) >= len(unique_runs) - 1 or val_rows >= target:
                break
            run = unique_runs[index]
            val_runs.add(run)
            val_rows += sum(1 for rid in dataset.run_ids if rid == run)
        val_mask = np.asarray([rid in val_runs for rid in dataset.run_ids])
    else:
        val_mask = np.zeros(count, dtype=bool)
        n_val = int(round(val_fraction * count))
        if n_val:
            val_mask[rng.permutation(count)[:n_val]] = True
    return (
        dataset.subset(np.flatnonzero(~val_mask)),
        dataset.subset(np.flatnonzero(val_mask)),
    )


__all__ = [
    "FEATURE_VERSION",
    "SAMPLE_SCHEMA",
    "LearnedDataset",
    "build_dataset",
    "split_by_run",
]
