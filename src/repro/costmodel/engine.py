"""PPA estimation engines.

Section 3.5 describes the PPA estimation engine as a standalone service that
takes (hardware configuration, SW mapping, tensor workload) and returns
power/performance/area.  This module provides that interface:

* :class:`PPAEngine` — the abstract service contract, bound to one workload.
* :class:`MaestroEngine` — the analytical engine (prototyping stage); each
  layer query is priced at ~5 s of modeled wall-clock (``eval_cost_s``,
  see ANALYTICAL_EVAL_COST_S).
* A query is one kernel call.  Every query counts (``num_queries``), and
  the engine keeps no simulated time: a co-optimizer charges its own clock
  ``eval_cost_s`` per query its trials spent, and a trial's queries are
  the answers its mapping search holds.  A search never asks one (twin
  key, mapping) twice — it keeps the answers it was given
  (:class:`~repro.mapping.base.AnytimeMappingSearch`) — so a counted
  query is an answer some search needed.  A layer's *twin key* names the
  network's first layer of the same GEMM shape
  (:attr:`~repro.workloads.network.Network.twin_keys`): every kernel
  reads only ``(hw, mapping, shape)``, so twins share one answer.  An
  in-process engine keeps no result cache: a query asked again (the same
  hardware searched in a later iteration) is computed again, as a
  deployed estimator would be invoked again.  The one result cache is a
  served replica's, in front of its engine
  (:class:`~repro.costmodel.service.PPAServiceServer`), shared by every
  client of that replica.
* Observability: every engine owns (or shares) a
  :class:`~repro.utils.metrics.MetricsRegistry`, which a server in front
  of it or a remote client records into and ``GET /metrics`` surfaces;
  an in-process engine records nothing there, only its counters.

Engines are thread-safe for concurrent queries: the REST service answers
requests on one handler thread per connection, all against the one engine
it serves.

The cycle-accurate engine for the Ascend-like platform lives in
:mod:`repro.camodel.engine` and implements the same contract.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.maestro import analyze_gemm, spatial_area_mm2
from repro.costmodel.maestro_batch import analyze_gemm_batch
from repro.errors import EvaluationError
from repro.hw.spatial import SpatialHWConfig
from repro.mapping.gemm_mapping import GemmMapping
from repro.obs.trace import NULL_TRACER
from repro.ppa import LayerPPA
from repro.utils.metrics import MetricsRegistry
from repro.workloads.layers import GemmShape
from repro.workloads.network import Network

#: Modeled evaluation wall-clock (seconds) per analytical layer query.
#: The MAESTRO call itself is milliseconds, but one mapping-candidate
#: evaluation in the HASCO/FlexTensor pipeline also pays schedule
#: concretization and tool overhead; 5 s/query puts the end-to-end search
#: costs of every method in the range Tables 1-2 report (tens of hours).
ANALYTICAL_EVAL_COST_S = 5.0

#: Items of one layer in one group from which the vectorized kernel is no
#: slower than the scalar one.  Measured (DESIGN.md §4b has the table): a
#: NumPy kernel call costs 50-60 us whatever its width, the scalar model
#: 7-9 us per candidate, and they meet at 8; narrower groups are cheaper
#: one at a time.  Since the MAESTRO-like scalar kernel stopped
#: re-deriving its constants (~3 us per feasible candidate) the two meet
#: near 50 for it (DESIGN.md §4n); the one threshold still serves the
#: Timeloop-like twin too and stays where that one's crossover is.
#: Results are bit-identical either way.
VECTOR_KERNEL_MIN_GROUP = 8


#: One query, and the queries of one engine call on one hardware config.
Query = Tuple[GemmMapping, str]
QueryGroup = Tuple[object, Sequence[Query]]

#: Hardware configs whose key tuple an engine holds on to: well over
#: the trials one MSH round keeps live (the paper's N is 30).
_HW_KEYS_HELD = 256


class PPAEngine(ABC):
    """Estimation service bound to a single workload.

    Every query goes through :meth:`evaluate_groups`, the one place that
    counts and samples it.  Subclasses implement :meth:`area_mm2` and a
    kernel: :meth:`_compute_layer` in process, or :meth:`_compute_groups`
    over a transport.
    """

    def __init__(self, network: Network, eval_cost_s: float = ANALYTICAL_EVAL_COST_S):
        self.network = network
        #: simulated seconds a co-optimizer charges per query
        self.eval_cost_s = eval_cost_s
        self.layer_shapes: Dict[str, Tuple[GemmShape, int]] = {
            layer.name: (layer.to_gemm(), layer.count) for layer in network.layers
        }
        #: layer name -> twin key, the first layer of its GEMM shape
        self.twin_keys: Dict[str, str] = network.twin_keys
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self.num_queries = 0
        #: groups :meth:`evaluate_groups` was handed (one per
        #: :meth:`evaluate_layers` call) and the items they carried
        self.num_batch_queries = 0
        self.num_batch_items = 0
        #: span tracer; the shared :data:`~repro.obs.trace.NULL_TRACER` by
        #: default, so untraced queries pay one attribute check.
        self.tracer = NULL_TRACER
        #: optional ``sink(hw, samples)`` invoked once per group of an
        #: engine call (one per :meth:`evaluate_layers` call) that
        #: computed something, with ``samples = [(layer_name, mapping,
        #: shape, result), ...]`` — one entry per computed item, in item
        #: order.  The opt-in source of ``engine_sample`` journal events
        #: for learned-model training.
        self.sample_sink = None
        #: ``id(hw) -> (hw, hw_key(hw))`` of the hardware seen lately.
        #: Configs are frozen dataclasses, so the same object always has
        #: the same key, and holding the object keeps its ``id`` its own.
        #: More than the last one, because a lockstep MSH round asks for
        #: its live trials' configs in turn, tick after tick.
        self._hw_keys: Dict[int, Tuple] = {}

    # -- subclass contract ----------------------------------------------------
    @abstractmethod
    def area_mm2(self, hw) -> float:
        """Silicon area of a hardware configuration."""

    def _compute_layer(
        self, hw, mapping: GemmMapping, shape: GemmShape
    ) -> LayerPPA:
        """Single-layer analysis: every in-process engine's kernel.

        An engine that overrides :meth:`_compute_groups` (the remote
        one) has none.
        """
        raise NotImplementedError(f"{type(self).__name__} has no in-process kernel")

    def _compute_layer_batch(
        self,
        hw,
        mappings: Sequence[GemmMapping],
        layer_name: str,
        shape: GemmShape,
    ) -> Optional[List[LayerPPA]]:
        """Vectorized batch analysis, ordered like ``mappings``.

        Engines without a batch kernel return ``None`` and
        :meth:`_compute_group` falls back to the scalar kernel.
        """
        return None

    def _compute_groups(
        self, groups: Sequence[QueryGroup], results: List[List[LayerPPA]]
    ) -> None:
        """Append each group's answers to its list in ``results``, in order.

        The one hook between :meth:`evaluate_groups` and the cost model;
        what it appended before raising still reaches the sample sink.
        Remote engines override it with their transport — one exchange
        per shard for the whole call — and nothing else.
        """
        for (hw, items), answers in zip(groups, results):
            if items:
                self._compute_group(hw, items, answers)

    def _compute_group(
        self, hw, items: Sequence[Query], answers: List[LayerPPA]
    ) -> None:
        """Append one group's answers to ``answers``, in ``items`` order.

        A group too small for any layer to reach the vector kernel costs
        one scalar-kernel call per item, each answer appended as it
        comes; a wider one is grouped by layer, the kernel picked per
        layer from its size, and appended whole.
        """
        layer_shapes = self.layer_shapes
        if len(items) < VECTOR_KERNEL_MIN_GROUP:
            compute = self._compute_layer
            for mapping, layer_name in items:
                answers.append(compute(hw, mapping, layer_shapes[layer_name][0]))
            return
        by_layer: Dict[str, List[int]] = {}
        for position, (_mapping, layer_name) in enumerate(items):
            by_layer.setdefault(layer_name, []).append(position)
        results = [None] * len(items)  # every slot is filled below
        for layer_name, positions in by_layer.items():
            shape = layer_shapes[layer_name][0]
            mappings = [items[position][0] for position in positions]
            computed = None
            if len(mappings) >= VECTOR_KERNEL_MIN_GROUP:
                computed = self._compute_layer_batch(hw, mappings, layer_name, shape)
            if computed is None:
                computed = [
                    self._compute_layer(hw, mapping, shape) for mapping in mappings
                ]
            for position, result in zip(positions, computed):
                results[position] = result
        answers.extend(results)

    def hw_key(self, hw) -> Tuple:
        """Hashable identity of a hardware config (cache and routing keys)."""
        held = self._hw_keys.get(id(hw))
        if held is None or held[0] is not hw:
            if len(self._hw_keys) >= _HW_KEYS_HELD:
                self._hw_keys.clear()
            held = self._hw_keys[id(hw)] = (hw, tuple(sorted(vars(hw).items())))
        return held[1]

    # -- service API ------------------------------------------------------------
    def evaluate_layer(self, hw, mapping: GemmMapping, layer_name: str) -> LayerPPA:
        """Evaluate one layer: the one-item case of :meth:`evaluate_layers`."""
        return self.evaluate_layers(hw, [(mapping, layer_name)])[0]

    def evaluate_layers(self, hw, requests: Sequence[Query]) -> List[LayerPPA]:
        """Evaluate a batch of ``(mapping, layer_name)`` queries in order.

        The one-group case of :meth:`evaluate_groups`, which documents the
        query semantics.
        """
        return self.evaluate_groups([(hw, requests)])[0]

    def evaluate_groups(self, groups: Sequence[QueryGroup]) -> List[List[LayerPPA]]:
        """Evaluate ``(hw, [(mapping, layer_name), ...])`` groups in order.

        The one entry point and the one accounting path: a group is what
        one :meth:`evaluate_layers` call carries, and the groups of one
        call are what the live trials of a lockstep MSH round ask for at
        the same time.  One pass: an unknown layer rejects the whole call
        before anything is counted; then every item counts one query and
        is computed — a repeat, in its group or another, is computed
        again — all groups' in one :meth:`_compute_groups` call, which a
        remote engine turns into one exchange; then each group's samples
        go to the sink, the groups computed before a failure included.
        """
        groups = [(hw, list(requests)) for hw, requests in groups]
        if self.tracer.enabled:
            with self.tracer.span(
                "engine_eval_batch",
                groups=len(groups),
                batch=sum(len(requests) for _hw, requests in groups),
            ):
                return self._evaluate_groups_impl(groups)
        return self._evaluate_groups_impl(groups)

    def _evaluate_groups_impl(
        self, groups: List[Tuple[object, List[Query]]]
    ) -> List[List[LayerPPA]]:
        """Untraced body of :meth:`evaluate_groups`."""
        layer_shapes = self.layer_shapes
        queries = asked = 0
        for _hw, requests in groups:
            if requests:  # an empty group is not a query
                asked += 1
                queries += len(requests)
                for _mapping, layer_name in requests:
                    if layer_name not in layer_shapes:
                        raise EvaluationError(
                            f"layer {layer_name!r} not in workload "
                            f"{self.network.name!r}"
                        )
        results: List[List[LayerPPA]] = [[] for _group in groups]
        if not queries:
            return results
        with self._lock:
            self.num_queries += queries
            self.num_batch_queries += asked
            self.num_batch_items += queries
        sink = self.sample_sink
        try:
            self._compute_groups(groups, results)
        finally:
            if sink is not None:
                for (hw, requests), answers in zip(groups, results):
                    if not answers:
                        if requests:
                            break  # the groups past a failure computed nothing
                        continue
                    sink(hw, [
                        (name, mapping, layer_shapes[name][0], result)
                        for (mapping, name), result in zip(requests, answers)
                    ])
        return results

    def stats(self) -> Dict:
        """Operational statistics for ``GET /metrics`` / ``repro stats``.

        ``cache_hit_rate`` is 0.0 (an engine keeps no cache), so every
        engine block reads like a replica's, whose server puts its
        cache's counts over these.
        """
        groups = self.num_batch_queries
        return {
            "engine": type(self).__name__,
            "workload": self.network.name,
            "num_queries": self.num_queries,
            "cache_hit_rate": 0.0,
            "batch_queries": groups,
            "batch_items": self.num_batch_items,
            "mean_batch_size": self.num_batch_items / groups if groups else 0.0,
        }


class MaestroEngine(PPAEngine):
    """Analytical engine for the open-source spatial accelerator."""

    def _compute_layer(
        self, hw: SpatialHWConfig, mapping: GemmMapping, shape: GemmShape
    ) -> LayerPPA:
        return analyze_gemm(hw, mapping, shape)

    def _compute_layer_batch(
        self,
        hw: SpatialHWConfig,
        mappings: Sequence[GemmMapping],
        layer_name: str,
        shape: GemmShape,
    ) -> List[LayerPPA]:
        return analyze_gemm_batch(hw, mappings, shape)

    def area_mm2(self, hw: SpatialHWConfig) -> float:
        return spatial_area_mm2(hw)


__all__ = [
    "ANALYTICAL_EVAL_COST_S",
    "PPAEngine",
    "MaestroEngine",
]
