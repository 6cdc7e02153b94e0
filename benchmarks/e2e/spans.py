"""Benchmark-owned spans: time public layer boundaries from the outside.

``repro.obs`` tracing stays off.  :class:`SpanRecorder` rebinds public
functions and methods of the layers to timing wrappers for the duration of
one *traced* repetition, records ``(name, start, end, parent)`` per call in
memory, and restores the originals afterwards.  A layer's self time is its
spans' duration minus the part their child spans cover, so self times sum
back to the root span (checked by the caller, ``bench.span_identity_err_s``).

A function imported by name elsewhere (``from repro.optim.sh import
terminal_values`` in ``repro.core.unico``) is rebound in every loaded
module that holds it, otherwise those call sites would bypass the wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core.base import CoOptimizer
from repro.core.evaluation import SWSearchTrial
from repro.core.unico import Unico
from repro.costmodel import maestro, maestro_batch, service
from repro.costmodel.engine import PPAEngine
from repro.fleet.pool import ConnectionPool
from repro.optim import sh
from repro.optim.gp import GaussianProcess
from repro.optim.mobo import MOBOSampler
from repro.tracking.journal import EventJournal
from repro.tracking.tracker import JournalSampleSink, JournalTracker

#: the span every other span must nest under: one whole co-search
ROOT_SPAN = "core.optimize"


class SpanRecorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        #: one ``[name, start, end, parent_index]`` per call, in start order
        self.spans: List[list] = []
        #: counts observed at the span boundaries (``observe`` callbacks)
        self.counts: Dict[str, int] = defaultdict(int)
        #: objects the wrappers saw that the caller reads counters from
        self.seen: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ patching
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        observe: Optional[Callable] = None,
    ) -> None:
        """Rebind ``owner.attr`` (a class or a module) to a timing wrapper.

        ``observe(recorder, args, kwargs, result)`` runs after a successful
        call, outside the span, to read counts at the boundary.
        """
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        holders = [owner]
        if isinstance(owner, types.ModuleType):
            holders = [
                module
                for module in list(sys.modules.values())
                if isinstance(module, types.ModuleType)
                and vars(module).get(attr) is original
            ]
        for holder in holders:
            self._patches.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        """Put every original back (reverse order of patching)."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # ----------------------------------------------------------- summaries
    def self_times(self) -> Dict[str, float]:
        """Per-name self time: duration minus covered child time."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return totals

    def calls(self) -> Dict[str, int]:
        """Per-name span count."""
        totals: Dict[str, int] = defaultdict(int)
        for name, _start, _end, _parent in self.spans:
            totals[name] += 1
        return totals

    def root_duration(self) -> float:
        """Duration of the single root span (the whole co-search)."""
        roots = [span for span in self.spans if span[3] < 0]
        if len(roots) != 1 or roots[0][0] != ROOT_SPAN:
            raise RuntimeError(
                f"expected one {ROOT_SPAN} root span, got "
                f"{[span[0] for span in roots][:5]}"
            )
        return roots[0][2] - roots[0][1]

    def write_chrome_trace(self, path: str) -> None:
        """Chrome Trace Event JSON (complete ``X`` events), Perfetto-loadable."""
        if not self.spans:
            raise RuntimeError("no spans recorded")
        origin = self.spans[0][1]
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
            }
            for name, start, end, _parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ------------------------------------------------------- boundary observers
def _count(key: str, amount: Callable) -> Callable:
    def observe(recorder, args, kwargs, result):
        recorder.counts[key] += amount(args, kwargs, result)

    return observe


def _keep(key: str, pick: Callable) -> Callable:
    def observe(recorder, args, kwargs, result):
        recorder.seen[key].append(pick(args, result))

    return observe


def _observe_gp_fit(recorder, args, kwargs, result):
    rows = len(args[1] if len(args) > 1 else kwargs["x"])
    recorder.counts["gp_train_points"] = max(recorder.counts["gp_train_points"], rows)


def _observe_survivors(recorder, args, kwargs, result):
    recorder.counts["msh_rounds"] += 1
    recorder.counts["msh_auc_promotions"] += len(result[1])


def _observe_transport(recorder, args, kwargs, result):
    body = kwargs.get("body")
    recorder.counts["bytes_sent"] += len(body) if body else 0
    recorder.counts["bytes_received"] += len(result.body)


def _observe_append(recorder, args, kwargs, result):
    if args[1] == "engine_sample":
        recorder.counts["sample_events"] += 1


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every public layer boundary the per-layer metrics are built on.

    Call after the route's resources exist (a replica forked later would
    inherit the wrappers) and :meth:`SpanRecorder.restore` afterwards.
    """
    wrap = recorder.wrap
    # core
    wrap(Unico, "optimize", ROOT_SPAN, _keep("optimizer", lambda args, _r: args[0]))
    wrap(CoOptimizer, "new_trial", "core.trial_init", _keep("trial", lambda _a, r: r))
    wrap(CoOptimizer, "finish_candidate", "core.assess")
    # optim
    wrap(MOBOSampler, "suggest_batch", "optim.suggest")
    wrap(GaussianProcess, "fit", "optim.gp_fit", _observe_gp_fit)
    wrap(GaussianProcess, "predict", "optim.gp_predict")
    wrap(sh, "terminal_values", "optim.msh_bookkeeping")
    wrap(sh, "relative_auc_scores", "optim.msh_bookkeeping")
    wrap(sh, "select_survivors_soa", "optim.msh_bookkeeping", _observe_survivors)
    # mapping
    wrap(SWSearchTrial, "run", "mapping.search")
    # costmodel: engine entry points (every class that defines one), kernel, codec
    for engine_cls in (PPAEngine, service.RemotePPAEngine):
        for method in ("evaluate_layer", "evaluate_layers", "evaluate_candidates"):
            if method in vars(engine_cls):
                wrap(engine_cls, method, "costmodel.engine")
    wrap(
        maestro_batch,
        "analyze_gemm_batch",
        "costmodel.kernel",
        _count("kernel_items", lambda args, _k, _r: len(args[1])),
    )
    wrap(
        maestro,
        "analyze_gemm",
        "costmodel.kernel",
        _count("kernel_items", lambda _a, _k, _r: 1),
    )
    wrap(service, "encode_object", "costmodel.codec")
    wrap(service, "decode_object", "costmodel.codec")
    # fleet
    wrap(ConnectionPool, "request", "fleet.transport", _observe_transport)
    # tracking: the tracker hooks and the engine's sample sink are the
    # tracker's own work; the journal append and the checkpoint are separate
    wrap(EventJournal, "append", "tracking.append", _observe_append)
    for hook in sorted(vars(JournalTracker)):
        if hook.startswith("on_"):
            wrap(JournalTracker, hook, "tracking.tracker")
    wrap(JournalSampleSink, "__call__", "tracking.tracker")
    wrap(JournalTracker, "checkpoint", "tracking.checkpoint")
