"""Learned pre-screening in front of any PPA engine.

:class:`ScreeningPPAEngine` wraps an analytical engine and intercepts
its batch entry point: each layer's group of an ``evaluate_layers`` batch
is ranked by the learned model and only the predicted-best ``top-k``
candidates — plus the most uncertain of the rest (uncertainty
escalation) — are forwarded to the wrapped engine, all groups in one
call.  Candidates the screen drops come back as infeasible results
tagged ``infeasible_reason="screened"``, which the anytime search folds
as non-improving, so:

* **Every number that can reach an incumbent, a trial objective, or a
  Pareto front is exact analytical PPA.**  The model only ever decides
  *which* candidates get the analytical treatment, never what their
  PPA is.
* **Screening off is bit-identical to no wrapper at all**: with no model
  (or ``enabled=False``) every call forwards verbatim to the inner
  engine, whose caches, counters and RNG-visible behavior are untouched.
* **Only analytical answers are charged.**  A mapping search stores the
  answers it was given and never a placeholder, and its trial is charged
  the answers it stores, so a screened-out candidate costs no query and
  no simulated time; the wrapper keeps no time of its own.

Aggregation and layer groups under ``min_batch`` (incumbent
initialization: one mapping per layer; one-item calls) always pass
through — they carry incumbent state the search must know exactly.

The wrapper is duck-typed rather than a ``PPAEngine`` subclass: it holds
no network/cache state of its own and forwards every unknown attribute
to the inner engine.  The attributes a run *assigns* after construction
(``tracer``, ``sample_sink``) are explicit properties that forward the
assignment inward, so they reach the engine that does the work.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import EvaluationError, ReproError
from repro.learned.features import featurize_batch
from repro.learned.model import LearnedCostModel
from repro.ppa import SCREENED_REASON, LayerPPA, infeasible_ppa

#: A screened-out candidate's placeholder result: infinite PPA, so it can
#: never displace an analytically-evaluated incumbent or reach a front.
_SCREENED_RESULT = infeasible_ppa(SCREENED_REASON)


class ScreeningPPAEngine:
    """Rank batches with a learned model; evaluate only the promising tail.

    Parameters
    ----------
    inner:
        The analytical engine to wrap (any ``PPAEngine``-shaped object).
    model:
        A trained :class:`~repro.learned.model.LearnedCostModel`;
        ``None`` disables screening (pure pass-through).
    objective:
        Ranking objective: ``latency``, ``energy`` or ``edp``.
    topk / topk_fraction:
        Absolute or fractional count of predicted-best candidates to
        forward per batch (absolute wins when both are set).
    escalate_fraction:
        Extra fraction of the batch forwarded from the *non*-selected
        remainder, picked by highest predictive uncertainty.
    min_batch:
        Batches smaller than this are forwarded whole — ranking overhead
        is not worth it and tiny batches carry incumbent-critical state.
    infeasible_penalty:
        Log-space score penalty scaled by the predicted infeasibility
        probability, pushing likely-infeasible candidates to the back.
    audit_every:
        Every Nth screened batch is fully evaluated instead (an audit):
        the screen's choice is scored against analytical ground truth to
        measure recall, at the price of that batch's savings.  0 = off.
    """

    def __init__(
        self,
        inner,
        model: Optional[LearnedCostModel] = None,
        objective: str = "latency",
        topk: Optional[int] = None,
        topk_fraction: float = 0.25,
        escalate_fraction: float = 0.125,
        min_batch: int = 4,
        infeasible_penalty: float = 20.0,
        audit_every: int = 0,
        enabled: bool = True,
    ):
        if topk is not None and topk < 1:
            raise EvaluationError(f"topk must be >= 1, got {topk}")
        if not 0.0 < topk_fraction <= 1.0:
            raise EvaluationError(
                f"topk_fraction must be in (0, 1], got {topk_fraction}"
            )
        self.inner = inner
        self.learned_model = model
        self.objective = objective
        self.topk = topk
        self.topk_fraction = topk_fraction
        self.escalate_fraction = escalate_fraction
        self.min_batch = min_batch
        self.infeasible_penalty = infeasible_penalty
        self.audit_every = audit_every
        self.enabled = enabled
        self._counter_lock = threading.Lock()
        self._counts: Dict[str, int] = {
            "batches_screened": 0,
            "candidates_seen": 0,
            "forwarded": 0,
            "forwarded_feasible": 0,
            "escalated": 0,
            "skipped": 0,
            "fallback_batches": 0,
            "audit_batches": 0,
            "audit_recall_hits": 0,
        }

    # ------------------------------------------------------------- delegation
    def __getattr__(self, name):
        # only reached for names not defined on the wrapper: everything
        # else (network, caches, aggregation, area, num_queries,
        # metrics, ...) is the inner engine's.
        return getattr(self.inner, name)

    @property
    def tracer(self):
        return self.inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.inner.tracer = value

    @property
    def sample_sink(self):
        return self.inner.sample_sink

    @sample_sink.setter
    def sample_sink(self, value) -> None:
        self.inner.sample_sink = value

    # ------------------------------------------------------------- accounting
    def _count(self, **increments: int) -> None:
        metrics = getattr(self.inner, "metrics", None)
        with self._counter_lock:
            for name, value in increments.items():
                self._counts[name] += value
        if metrics is not None:
            for name, value in increments.items():
                metrics.counter(f"screen_{name}_total").inc(value)

    def screen_stats(self) -> Dict:
        """Screening counters plus derived precision/recall/savings."""
        with self._counter_lock:
            stats = dict(self._counts)
        stats["enabled"] = bool(self.screening_active)
        stats["precision"] = (
            stats["forwarded_feasible"] / stats["forwarded"]
            if stats["forwarded"]
            else 0.0
        )
        stats["audit_recall"] = (
            stats["audit_recall_hits"] / stats["audit_batches"]
            if stats["audit_batches"]
            else None
        )
        stats["evals_saved"] = stats["skipped"]
        return stats

    def stats(self) -> Dict:
        stats = self.inner.stats()
        stats["screening"] = self.screen_stats()
        return stats

    @property
    def screening_active(self) -> bool:
        return self.enabled and self.learned_model is not None

    # ------------------------------------------------------------- evaluation
    def evaluate_layers(self, hw, requests: Sequence) -> List[LayerPPA]:
        """Screen a cross-layer batch per layer group; forward in one call.

        Each layer's group is ranked on its own, exactly as a single-layer
        batch; groups under ``min_batch`` pass through whole.  Whatever
        the groups keep travels to the inner engine in one
        ``evaluate_layers`` call, in request order.
        """
        requests = list(requests)
        if not self.screening_active:
            return self.inner.evaluate_layers(hw, requests)
        by_layer: Dict[str, List[int]] = {}
        for position, (_mapping, layer_name) in enumerate(requests):
            by_layer.setdefault(layer_name, []).append(position)
        with self._counter_lock:
            batches_before = self._counts["batches_screened"]
        #: per screened group: (positions, positions the screen chose,
        #: escalated count, whether it is evaluated whole as an audit)
        plans: List[tuple] = []
        dropped = set()
        for layer_name, positions in by_layer.items():
            if len(positions) < max(self.min_batch, 2):
                continue
            plan = self._plan(
                hw, layer_name, [requests[p][0] for p in positions]
            )
            if plan is None:
                self._count(fallback_batches=1)
                continue
            selected, escalated = plan
            chosen = {positions[i] for i in selected + escalated}
            # every Nth screened group is evaluated whole and the screen's
            # choice scored against it; a group kept whole anyway is no audit
            audit = (
                self.audit_every > 0
                and len(chosen) < len(positions)
                and (batches_before + len(plans)) % self.audit_every
                == self.audit_every - 1
            )
            plans.append((positions, chosen, len(escalated), audit))
            if not audit:
                dropped.update(p for p in positions if p not in chosen)
        if not plans:
            return self.inner.evaluate_layers(hw, requests)
        kept_positions = [p for p in range(len(requests)) if p not in dropped]
        with self.inner.tracer.span(
            "screen", batch=len(requests), forwarded=len(kept_positions)
        ):
            kept = self.inner.evaluate_layers(
                hw, [requests[p] for p in kept_positions]
            )
        results: List[LayerPPA] = [_SCREENED_RESULT] * len(requests)
        for position, result in zip(kept_positions, kept):
            results[position] = result
        for positions, chosen, escalated, audit in plans:
            evaluated = [p for p in positions if p not in dropped]
            counts = dict(
                batches_screened=1,
                candidates_seen=len(positions),
                forwarded=len(evaluated),
                escalated=escalated,
                skipped=len(positions) - len(evaluated),
                forwarded_feasible=sum(
                    1 for p in evaluated if results[p].feasible
                ),
            )
            if audit:
                # would the analytical best have been forwarded?
                feasible = [p for p in positions if results[p].feasible]
                best = min(
                    feasible, key=lambda p: results[p].latency_s, default=None
                )
                counts["audit_batches"] = 1
                counts["audit_recall_hits"] = int(
                    best is None or best in chosen
                )
            self._count(**counts)
        return results

    def _plan(self, hw, layer_name: str, mappings: List):
        """Rank a batch; returns (selected, escalated) index lists or None."""
        model = self.learned_model
        try:
            shape, _count = self.inner.layer_shapes[layer_name]
            features = featurize_batch(hw, mappings, shape)
            score, std = model.predict_objective(features, self.objective)
            if self.infeasible_penalty:
                proba = model.feasible_proba(features)
                score = score + self.infeasible_penalty * (1.0 - proba)
        except (AttributeError, TypeError, ValueError, KeyError, ReproError):
            # foreign hardware/mapping types (or a stale model) cannot be
            # featurized; fall back to honest full evaluation
            return None
        batch = len(mappings)
        k = self.topk if self.topk is not None else int(
            math.ceil(self.topk_fraction * batch)
        )
        k = max(1, min(k, batch))
        order = np.argsort(score, kind="stable")
        selected = [int(i) for i in order[:k]]
        remainder = order[k:]
        n_escalate = int(math.ceil(self.escalate_fraction * batch))
        if n_escalate and remainder.size:
            by_uncertainty = remainder[
                np.argsort(-std[remainder], kind="stable")[:n_escalate]
            ]
            escalated = [int(i) for i in by_uncertainty]
        else:
            escalated = []
        return selected, escalated


__all__ = ["ScreeningPPAEngine"]
