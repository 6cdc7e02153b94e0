"""PPA estimation engines.

Section 3.5 describes the PPA estimation engine as a standalone service that
takes (hardware configuration, SW mapping, tensor workload) and returns
power/performance/area.  This module provides that interface:

* :class:`PPAEngine` — the abstract service contract, bound to one workload.
* :class:`MaestroEngine` — the analytical engine (prototyping stage); each
  layer query charges ~5 s of modeled wall-clock (see ANALYTICAL_EVAL_COST_S).
* Caching is built in: identical (hw, layer, mapping) queries are computed
  once, while the simulated clock is still charged per call — mirroring a
  real deployment where the estimator service is invoked each time.  The
  cache is a bounded LRU (``cache_capacity``) so a multi-day search cannot
  grow it without limit; evictions are counted.
* Observability: every engine owns (or shares) a
  :class:`~repro.utils.metrics.MetricsRegistry`; queries, cache
  hits/misses/evictions, and real compute latency are recorded there and
  surfaced by the REST service's ``GET /metrics`` endpoint.

Engines are thread-safe for concurrent queries: the REST service answers
requests on one handler thread per connection, all against the one engine
it serves.

The cycle-accurate engine for the Ascend-like platform lives in
:mod:`repro.camodel.engine` and implements the same contract.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.mapping.gemm_mapping import GemmMapping, NetworkMapping

from repro.costmodel.maestro import analyze_gemm, spatial_area_mm2
from repro.costmodel.maestro_batch import analyze_gemm_batch
from repro.costmodel.results import LayerPPA, NetworkPPA
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.errors import ConfigurationError, EvaluationError
from repro.hw.spatial import SpatialHWConfig
from repro.obs.trace import NULL_TRACER
from repro.utils.clock import SimulatedClock
from repro.utils.metrics import (
    DEFAULT_BATCH_SIZE_BOUNDS,
    PER_ITEM_LATENCY_BOUNDS,
    MetricsRegistry,
)
from repro.workloads.layers import GemmShape
from repro.workloads.network import Network

#: Modeled evaluation wall-clock (seconds) per analytical layer query.
#: The MAESTRO call itself is milliseconds, but one mapping-candidate
#: evaluation in the HASCO/FlexTensor pipeline also pays schedule
#: concretization and tool overhead; 5 s/query puts the end-to-end search
#: costs of every method in the range Tables 1-2 report (tens of hours).
ANALYTICAL_EVAL_COST_S = 5.0

#: Default bound on the (hw, layer, mapping) result cache.  Generous enough
#: that no single co-search in the test/bench suites evicts, small enough
#: that a long-running service cannot grow without limit.
DEFAULT_CACHE_CAPACITY = 100_000

#: Misses of one layer in one batch from which the vectorized kernel is no
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
Query = Tuple["GemmMapping", str]
QueryGroup = Tuple[object, Sequence[Query]]

#: Hardware configs whose cache-key tuple an engine holds on to: well over
#: the trials one MSH round keeps live (the paper's N is 30).
_HW_KEYS_HELD = 256


def held_instrument(kind: str, name: str, *bounds) -> cached_property:
    """A registry instrument the engine looks up on first use, then holds.

    Binding is lazy because a registry snapshot (``GET /metrics``, the
    journal's ``engine_snapshot``) lists an instrument from the moment it
    is created: an engine that never evicted must not report an eviction
    counter at zero.
    """
    return cached_property(lambda self: getattr(self.metrics, kind)(name, *bounds))


class PPAEngine(ABC):
    """Estimation service bound to a single workload.

    Every query goes through :meth:`evaluate_groups`, the one place that
    counts, caches, times and samples it.  Subclasses implement
    :meth:`area_mm2` and a kernel: :meth:`_compute_layer` in process, or
    :meth:`_compute_group_misses` over a transport.
    """

    def __init__(
        self,
        network: Network,
        clock: Optional[SimulatedClock] = None,
        eval_cost_s: float = ANALYTICAL_EVAL_COST_S,
        cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
    ):
        if cache_capacity is not None and cache_capacity < 1:
            raise ConfigurationError(
                f"cache_capacity must be >= 1 or None, got {cache_capacity}"
            )
        self.network = network
        self.clock = clock if clock is not None else SimulatedClock()
        self.eval_cost_s = eval_cost_s
        self.layer_shapes: Dict[str, Tuple[GemmShape, int]] = {
            layer.name: (layer.to_gemm(), layer.count) for layer in network.layers
        }
        #: bounded LRU over (hw_key, layer, mapping_key); None = unbounded
        self.cache_capacity = cache_capacity
        self._cache: "OrderedDict[Tuple, LayerPPA]" = OrderedDict()
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self.num_queries = 0
        self.num_cache_hits = 0
        self.num_cache_evictions = 0
        #: groups :meth:`evaluate_groups` was handed (one per
        #: :meth:`evaluate_layers` call) and the items they carried
        self.num_batch_queries = 0
        self.num_batch_items = 0
        #: when False, a co-optimizer owns wall-clock accounting (e.g. to
        #: model parallel workers) and the engine only counts queries.
        self.charge_clock = True
        #: span tracer; the shared :data:`~repro.obs.trace.NULL_TRACER` by
        #: default, so untraced queries pay one attribute check.
        self.tracer = NULL_TRACER
        #: optional ``sink(hw, samples)`` invoked once per group of an
        #: engine call (one per :meth:`evaluate_layers` call) that
        #: *computed* something, with ``samples = [(layer_name, mapping,
        #: shape, result), ...]`` — one entry per cache miss whose result
        #: reached the cache, in miss order.  The opt-in source of
        #: ``engine_sample`` journal events for learned-model training.
        #: Cache hits are skipped: they would only duplicate a sample the
        #: sink already saw.
        self.sample_sink = None
        #: ``id(hw) -> (hw, hw_key(hw))`` of the hardware seen lately.
        #: Configs are frozen dataclasses, so the same object always has
        #: the same key, and holding the object keeps its ``id`` its own.
        #: More than the last one, because a lockstep MSH round asks for
        #: its live trials' configs in turn, tick after tick, and every
        #: cache key of a config should share one key tuple.
        self._hw_keys: Dict[int, Tuple] = {}

    # -- instruments ------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        """Swap the registry; instruments held from the old one are dropped."""
        self._metrics = registry
        for cls in type(self).__mro__:
            for name, member in vars(cls).items():
                if isinstance(member, cached_property):
                    self.__dict__.pop(name, None)

    _queries_total = held_instrument("counter", "engine_queries_total")
    _hits_total = held_instrument("counter", "engine_cache_hits_total")
    _misses_total = held_instrument("counter", "engine_cache_misses_total")
    _evictions_total = held_instrument("counter", "engine_cache_evictions_total")
    _batch_queries_total = held_instrument("counter", "engine_batch_queries_total")
    _batch_size = held_instrument(
        "histogram", "engine_batch_size", DEFAULT_BATCH_SIZE_BOUNDS
    )
    _compute_seconds = held_instrument("histogram", "engine_compute_seconds")
    _per_item_seconds = held_instrument(
        "histogram", "engine_batch_compute_seconds_per_item", PER_ITEM_LATENCY_BOUNDS
    )

    # -- subclass contract ----------------------------------------------------
    @abstractmethod
    def area_mm2(self, hw) -> float:
        """Silicon area of a hardware configuration."""

    def _compute_layer(
        self, hw, mapping: "GemmMapping", shape: GemmShape
    ) -> LayerPPA:
        """Uncached single-layer analysis: every in-process engine's kernel.

        Reached only through :meth:`_compute_misses`; an engine that
        overrides :meth:`_compute_group_misses` (the remote one) has none.
        """
        raise NotImplementedError(f"{type(self).__name__} has no in-process kernel")

    def _compute_layer_batch(
        self,
        hw,
        mappings: Sequence["GemmMapping"],
        layer_name: str,
        shape: GemmShape,
    ) -> Optional[List[LayerPPA]]:
        """Uncached vectorized batch analysis, ordered like ``mappings``.

        Engines without a batch kernel return ``None`` and
        :meth:`_compute_misses` falls back to the scalar kernel.
        """
        return None

    def _compute_group_misses(
        self, miss_groups: Sequence[QueryGroup]
    ) -> Iterable[LayerPPA]:
        """Compute the cache misses of one :meth:`evaluate_groups` call.

        The one hook between the bookkeeping below and the cost model
        (:meth:`aggregate` hands it its uncached layers as one group):
        ``miss_groups`` holds ``(hw, misses)`` per group that missed, and
        results come back flat, group after group in miss order.
        :meth:`evaluate_groups` takes each as it arrives — a hook that
        raises part-way keeps what it had already yielded (cached, and
        handed to the sample sink), as one call per item would have.  An
        in-process engine has nothing to share between groups: each is
        one :meth:`_compute_misses` call, made when the results before it
        have been taken.  The call is timed once — one
        ``engine_compute_seconds`` and one per-item observation, however
        many groups it carried.  Remote engines
        override this with their transport — one exchange per shard for
        the whole call — and nothing else.
        """
        start = time.perf_counter()
        items = 0
        for hw, misses in miss_groups:
            yield from self._compute_misses(hw, misses)
            items += len(misses)
        elapsed = time.perf_counter() - start
        self._compute_seconds.observe(elapsed)
        self._per_item_seconds.observe(elapsed / items)

    def _compute_misses(self, hw, misses: Sequence[Query]) -> Iterable[LayerPPA]:
        """Compute one group's cache misses in process, in ``misses`` order.

        Groups the misses by layer and picks the kernel from the group
        size — unless the call is too small for any layer to reach the
        vector kernel, which makes a look-ahead call of two or three
        items cost one scalar-kernel call per item.
        """
        layer_shapes = self.layer_shapes
        if len(misses) < VECTOR_KERNEL_MIN_GROUP:
            results = [
                self._compute_layer(hw, mapping, layer_shapes[layer_name][0])
                for mapping, layer_name in misses
            ]
        else:
            by_layer: Dict[str, List[int]] = {}
            for position, (_mapping, layer_name) in enumerate(misses):
                by_layer.setdefault(layer_name, []).append(position)
            results = [None] * len(misses)  # every slot is filled below
            for layer_name, positions in by_layer.items():
                shape = layer_shapes[layer_name][0]
                mappings = [misses[position][0] for position in positions]
                computed = None
                if len(mappings) >= VECTOR_KERNEL_MIN_GROUP:
                    computed = self._compute_layer_batch(
                        hw, mappings, layer_name, shape
                    )
                if computed is None:
                    computed = [
                        self._compute_layer(hw, mapping, shape) for mapping in mappings
                    ]
                for position, result in zip(positions, computed):
                    results[position] = result
        return results

    def hw_key(self, hw) -> Tuple:
        """Hashable identity of a hardware config (for the cache)."""
        held = self._hw_keys.get(id(hw))
        if held is None or held[0] is not hw:
            if len(self._hw_keys) >= _HW_KEYS_HELD:
                self._hw_keys.clear()
            held = self._hw_keys[id(hw)] = (hw, tuple(sorted(vars(hw).items())))
        return held[1]

    def _evict_over_capacity(self) -> None:
        """Drop oldest entries until the LRU fits; the caller holds the lock."""
        if self.cache_capacity is not None:
            while len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)
                self.num_cache_evictions += 1
                self._evictions_total.inc()

    # -- service API ------------------------------------------------------------
    def evaluate_layer(self, hw, mapping: "GemmMapping", layer_name: str) -> LayerPPA:
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
        the same time.  Query semantics match one one-item call per item,
        group after group: each item counts one query, charges one
        evaluation on the simulated clock, and hits or misses the LRU
        individually (a repeat of a missing key, in its own group or a
        later one, counts as a hit, mirroring the sequential order: first
        occurrence computes, the rest reuse).  Only the misses reach the
        cost model, all groups' in one :meth:`_compute_group_misses` call,
        so an all-cache-hit call records no compute time at all — that
        one call is what a remote engine turns into one exchange.  An unknown layer rejects
        the whole call before anything is counted.
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
        """Untraced body of :meth:`evaluate_groups`.

        Everything constant per call is paid per call: one lock hold for
        the hit/miss pass, one ``inc(n)`` per counter, one compute hook,
        one lock hold for the stores; per group, one batch-size
        observation, one clock charge and one sink call.
        """
        layer_shapes = self.layer_shapes
        for _hw, requests in groups:
            for _mapping, layer_name in requests:
                if layer_name not in layer_shapes:
                    raise EvaluationError(
                        f"layer {layer_name!r} not in workload "
                        f"{self.network.name!r}"
                    )
        results: List[List[Optional[LayerPPA]]] = [
            [None] * len(requests) for _hw, requests in groups
        ]
        #: ``(hw, misses)`` per group that missed, misses in miss order
        miss_groups: List[Tuple[object, List[Query]]] = []
        #: cache key -> the result slots waiting for it, one entry per miss
        #: of the call, in miss order (a repeat of a missing key is a hit:
        #: first occurrence computes)
        waiting: Dict[Tuple, List[Tuple[list, int]]] = {}
        cache = self._cache
        sizes: List[int] = []
        hits = 0
        with self._lock:
            for (hw, requests), slots in zip(groups, results):
                if not requests:
                    continue  # an empty group is not a query
                hw_id = self.hw_key(hw)
                misses: List[Query] = []
                for index, (mapping, layer_name) in enumerate(requests):
                    key = (hw_id, layer_name, mapping.key())
                    pending = waiting.get(key)
                    if pending is not None:
                        pending.append((slots, index))
                        continue
                    cached = cache.get(key)
                    if cached is not None:
                        cache.move_to_end(key)
                        slots[index] = cached
                    else:
                        waiting[key] = [(slots, index)]
                        misses.append((mapping, layer_name))
                if misses:
                    miss_groups.append((hw, misses))
                sizes.append(len(requests))
                hits += len(requests) - len(misses)
            queries = sum(sizes)
            self.num_queries += queries
            self.num_batch_queries += len(sizes)
            self.num_batch_items += queries
            self.num_cache_hits += hits
        if not sizes:
            return results  # type: ignore[return-value]  # nothing was asked
        self._queries_total.inc(queries)
        self._batch_queries_total.inc(len(sizes))
        for size in sizes:
            self._batch_size.observe(size)
            if self.charge_clock:
                self.clock.advance(self.eval_cost_s * size, label="ppa-eval")
        if hits:
            self._hits_total.inc(hits)
        if not miss_groups:
            return results  # type: ignore[return-value]  # all hits
        self._misses_total.inc(len(waiting))
        computed: List[LayerPPA] = []
        try:
            # a hook that raises part-way keeps what it had yielded
            computed.extend(self._compute_group_misses(miss_groups))
        finally:
            with self._lock:
                for (key, pending), result in zip(waiting.items(), computed):
                    cache[key] = result
                    cache.move_to_end(key)
                    for slots, index in pending:
                        slots[index] = result
                self._evict_over_capacity()
            if computed and self.sample_sink is not None:
                arrived = iter(computed)
                for hw, misses in miss_groups:
                    samples = [
                        (layer_name, mapping, layer_shapes[layer_name][0], result)
                        for (mapping, layer_name), result in zip(misses, arrived)
                    ]
                    if not samples:
                        break  # the groups past a failure computed nothing
                    self.sample_sink(hw, samples)
        return results  # type: ignore[return-value]  # all slots filled above

    def aggregate(self, hw, mappings: "NetworkMapping") -> NetworkPPA:
        """Combine cached layer results without charging the clock.

        A mapped layer whose result is not cached (never asked, or
        evicted) counts no query: all such layers are computed in one
        :meth:`_compute_group_misses` call and cached.
        """
        area = self.area_mm2(hw)
        hw_id = self.hw_key(hw)
        cache = self._cache
        found: Dict[str, LayerPPA] = {}
        misses: List[Query] = []
        with self._lock:
            for name in self.layer_shapes:
                mapping = mappings.get(name)
                if mapping is None:
                    continue
                key = (hw_id, name, mapping.key())
                result = cache.get(key)
                if result is None:
                    misses.append((mapping, name))
                else:
                    cache.move_to_end(key)
                    found[name] = result
        if misses:
            computed = list(self._compute_group_misses([(hw, misses)]))
            with self._lock:
                for (mapping, name), result in zip(misses, computed):
                    key = (hw_id, name, mapping.key())
                    cache[key] = result
                    cache.move_to_end(key)
                    found[name] = result
                self._evict_over_capacity()
        total_latency = 0.0
        total_energy = 0.0
        feasible = True
        layer_results: Dict[str, LayerPPA] = {}
        for name, (_shape, count) in self.layer_shapes.items():
            result = found.get(name)
            if result is None:
                feasible = False
                continue
            layer_results[name] = result
            if not result.feasible:
                feasible = False
                continue
            total_latency += count * result.latency_s
            total_energy += count * result.energy_j
        if not feasible or total_latency <= 0.0:
            return NetworkPPA(
                latency_s=float("inf"),
                energy_j=float("inf"),
                power_w=float("inf"),
                area_mm2=area,
                feasible=False,
                layer_results=layer_results,
            )
        leakage_w = DEFAULT_TECHNOLOGY.leakage_w_per_mm2 * area
        power = total_energy / total_latency + leakage_w
        return NetworkPPA(
            latency_s=total_latency,
            energy_j=total_energy,
            power_w=power,
            area_mm2=area,
            feasible=True,
            layer_results=layer_results,
        )

    @property
    def cache_hit_rate(self) -> float:
        if self.num_queries == 0:
            return 0.0
        return self.num_cache_hits / self.num_queries

    @property
    def mean_batch_size(self) -> float:
        if self.num_batch_queries == 0:
            return 0.0
        return self.num_batch_items / self.num_batch_queries

    def stats(self) -> Dict:
        """Operational statistics for ``GET /metrics`` / ``repro stats``."""
        return {
            "engine": type(self).__name__,
            "workload": self.network.name,
            "num_queries": self.num_queries,
            "num_cache_hits": self.num_cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "num_cache_evictions": self.num_cache_evictions,
            "cache_size": len(self._cache),
            "cache_capacity": self.cache_capacity,
            "batch_queries": self.num_batch_queries,
            "batch_items": self.num_batch_items,
            "mean_batch_size": self.mean_batch_size,
        }


class MaestroEngine(PPAEngine):
    """Analytical engine for the open-source spatial accelerator."""

    def _compute_layer(
        self, hw: SpatialHWConfig, mapping: "GemmMapping", shape: GemmShape
    ) -> LayerPPA:
        return analyze_gemm(hw, mapping, shape)

    def _compute_layer_batch(
        self,
        hw: SpatialHWConfig,
        mappings: Sequence["GemmMapping"],
        layer_name: str,
        shape: GemmShape,
    ) -> List[LayerPPA]:
        return analyze_gemm_batch(hw, mappings, shape)

    def area_mm2(self, hw: SpatialHWConfig) -> float:
        return spatial_area_mm2(hw)


__all__ = [
    "ANALYTICAL_EVAL_COST_S",
    "DEFAULT_CACHE_CAPACITY",
    "PPAEngine",
    "MaestroEngine",
    "LayerPPA",
    "NetworkPPA",
]
