"""Run profiling: per-phase time attribution from recorded spans.

``repro runs profile <run-id>`` lands here.  Given a run's recorded
spans (the ``span`` events of its journal), this module answers the
questions flat counters cannot:

* **Per-phase breakdown** — wall and simulated time per span name, with
  both *inclusive* totals and *self* time (inclusive minus direct
  children), so the table's self-time column sums exactly to the root
  span's duration and nothing is double-counted.
* **Evaluation throughput** — engine-eval spans beneath each phase and
  the implied evaluations per wall-second, the number search-heavy
  co-design frameworks report their speed claims with.
* **Top-N slowest spans** — the individual intervals worth staring at.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

#: Span names counted as PPA-engine evaluations for throughput reporting.
ENGINE_SPAN_NAMES = ("engine_eval_batch",)


def spans_from_journal(path: Union[str, pathlib.Path]) -> List[Dict]:
    """Load the finished-span dicts recorded in a run's journal."""
    from repro.tracking.journal import read_events

    return [
        event
        for event in read_events(path).events
        if event.get("type") == "span"
    ]


def _span_evals(span: Dict) -> int:
    """Engine evaluations one engine span represents (batch spans: B)."""
    if span.get("name") not in ENGINE_SPAN_NAMES:
        return 0
    attrs = span.get("attrs") or {}
    return int(attrs.get("batch", 1) or 1)


@dataclass
class PhaseStats:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int = 0
    wall_total_s: float = 0.0
    wall_self_s: float = 0.0
    sim_total_s: float = 0.0
    wall_max_s: float = 0.0
    evals: int = 0

    @property
    def evals_per_s(self) -> float:
        """Engine evaluations beneath this phase per inclusive wall-second."""
        if self.wall_total_s <= 0.0 or not self.evals:
            return 0.0
        return self.evals / self.wall_total_s


@dataclass
class RunProfile:
    """The full profile of one traced run."""

    phases: List[PhaseStats] = field(default_factory=list)
    total_wall_s: float = 0.0
    total_sim_s: float = 0.0
    num_spans: int = 0
    slowest: List[Dict] = field(default_factory=list)

    @property
    def accounted_wall_s(self) -> float:
        """Sum of per-phase self time (equals the root spans' wall time)."""
        return sum(p.wall_self_s for p in self.phases)

    @property
    def total_evals(self) -> int:
        """Engine evaluations recorded anywhere in the span tree."""
        return sum(p.evals for p in self.phases if p.name in ENGINE_SPAN_NAMES)


def build_profile(spans: Sequence[Dict], top_n: int = 5) -> RunProfile:
    """Aggregate finished-span dicts into a :class:`RunProfile`.

    Self time is inclusive duration minus the sum of *direct* children's
    durations (clamped at zero against clock jitter); evaluation counts
    propagate from engine spans to every ancestor, so each phase row
    reports the evals that happened anywhere beneath it.
    """
    spans = list(spans)
    by_id: Dict[str, Dict] = {
        s["span_id"]: s for s in spans if s.get("span_id")
    }
    children_wall: Dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            children_wall[parent] = children_wall.get(parent, 0.0) + float(
                span.get("wall_dur_s", 0.0)
            )

    phases: Dict[str, PhaseStats] = {}
    roots_wall = 0.0
    roots_sim = 0.0
    for span in spans:
        name = str(span.get("name", "span"))
        stats = phases.get(name)
        if stats is None:
            stats = phases[name] = PhaseStats(name=name)
        wall = float(span.get("wall_dur_s", 0.0))
        stats.count += 1
        stats.wall_total_s += wall
        stats.sim_total_s += float(span.get("sim_dur_s", 0.0))
        stats.wall_max_s = max(stats.wall_max_s, wall)
        stats.wall_self_s += max(
            0.0, wall - children_wall.get(span.get("span_id"), 0.0)
        )
        if span.get("parent_id") not in by_id:
            roots_wall += wall
            roots_sim += float(span.get("sim_dur_s", 0.0))

    # evaluation counts bubble up the ancestor chain
    for span in spans:
        evals = _span_evals(span)
        if not evals:
            continue
        cursor: Optional[Dict] = span
        hops = 0
        while cursor is not None and hops < 64:  # cycle guard
            phases[str(cursor.get("name", "span"))].evals += evals
            cursor = by_id.get(cursor.get("parent_id") or "")
            hops += 1

    ordered = sorted(phases.values(), key=lambda p: -p.wall_self_s)
    slowest = sorted(
        spans, key=lambda s: -float(s.get("wall_dur_s", 0.0))
    )[: max(0, top_n)]
    return RunProfile(
        phases=ordered,
        total_wall_s=roots_wall,
        total_sim_s=roots_sim,
        num_spans=len(spans),
        slowest=slowest,
    )


def _fmt_seconds(seconds: float) -> str:
    """Human-scale seconds: ms below 1 s, h above an hour."""
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.2f}h"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def render_profile(profile: RunProfile) -> str:
    """Render the profile as the ``repro runs profile`` text report."""
    lines: List[str] = []
    lines.append(
        f"{'phase':<22s}{'count':>7s}{'wall':>10s}{'self':>10s}"
        f"{'wall%':>7s}{'sim':>12s}{'evals':>8s}{'evals/s':>9s}"
    )
    # guard the percentage denominator: spans recorded with zero wall
    # duration (mocked clocks, sub-resolution runs) must not divide by 0
    total = profile.total_wall_s if profile.total_wall_s > 0.0 else 1.0
    for phase in profile.phases:
        # a phase with no engine evals beneath it has no throughput to
        # report — print "-" rather than a meaningless 0.0 (or NaN from
        # a 0/0 if both evals and wall time are absent)
        rate = f"{phase.evals_per_s:>9.1f}" if phase.evals else f"{'-':>9s}"
        lines.append(
            f"{phase.name:<22s}{phase.count:>7d}"
            f"{_fmt_seconds(phase.wall_total_s):>10s}"
            f"{_fmt_seconds(phase.wall_self_s):>10s}"
            f"{100.0 * phase.wall_self_s / total:>6.1f}%"
            f"{_fmt_seconds(phase.sim_total_s):>12s}"
            f"{phase.evals:>8d}"
            f"{rate}"
        )
    lines.append(
        f"{'total':<22s}{profile.num_spans:>7d}"
        f"{_fmt_seconds(profile.total_wall_s):>10s}"
        f"{_fmt_seconds(profile.accounted_wall_s):>10s}"
        f"{100.0 * profile.accounted_wall_s / total:>6.1f}%"
        f"{_fmt_seconds(profile.total_sim_s):>12s}"
    )
    if profile.slowest:
        lines.append("slowest spans:")
        for span in profile.slowest:
            attrs = span.get("attrs") or {}
            detail = " ".join(
                f"{k}={attrs[k]}" for k in sorted(attrs) if k != "configs"
            )
            lines.append(
                f"  {_fmt_seconds(float(span.get('wall_dur_s', 0.0))):>9s}"
                f"  {span.get('name', 'span'):<20s}{detail}"
            )
    return "\n".join(lines)


__all__ = [
    "ENGINE_SPAN_NAMES",
    "PhaseStats",
    "RunProfile",
    "build_profile",
    "render_profile",
    "spans_from_journal",
]
