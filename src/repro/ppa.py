"""PPA result types: what an estimation engine answers and a search keeps.

A leaf under both the cost models and the mapping searches: it imports
only the process constants (:mod:`repro.hw.technology`).
:func:`compose_network_ppa` is the one rule that turns parts into a
network's PPA: :meth:`~repro.costmodel.engine.PPAEngine.aggregate`, a
mapping search's incumbents and a multi-workload bundle all compose
through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Union

from repro.hw.technology import DEFAULT_TECHNOLOGY


@dataclass(frozen=True)
class LayerPPA:
    """Latency/energy result for one operator instance."""

    latency_s: float
    energy_j: float
    feasible: bool = True
    compute_cycles: float = 0.0
    noc_cycles: float = 0.0
    dram_cycles: float = 0.0
    dram_bytes: float = 0.0
    infeasible_reason: str = ""


#: ``infeasible_reason`` of a learned screen's placeholder for a candidate
#: it did not forward (:mod:`repro.learned.screen`): not an engine answer,
#: so the query accounting does not charge it and no search stores it.
SCREENED_REASON = "screened"

_new = object.__new__
_put = object.__setattr__
_INF = float("inf")


def feasible_ppa(
    latency_s: float,
    energy_j: float,
    compute_cycles: float,
    noc_cycles: float,
    dram_cycles: float,
    dram_bytes: float,
) -> LayerPPA:
    """A feasible :class:`LayerPPA`: the one builder every cost model uses.

    Skips the frozen-dataclass ``__init__`` (a Python call that sets all
    eight fields) and sets the six that differ from their defaults, ~1.5x
    cheaper.  The rest fall back to the class-level defaults, so equality,
    repr, ``dataclasses.asdict`` and pickling all see what a normally
    constructed instance holds.  Attributes are set one by one rather than
    by installing a ready ``__dict__``, which would be cheaper again but
    gives every result its own dict instead of the compact per-instance
    values: twice the memory of a cached result (DESIGN.md §4n).
    """
    result = _new(LayerPPA)
    _put(result, "latency_s", latency_s)
    _put(result, "energy_j", energy_j)
    _put(result, "compute_cycles", compute_cycles)
    _put(result, "noc_cycles", noc_cycles)
    _put(result, "dram_cycles", dram_cycles)
    _put(result, "dram_bytes", dram_bytes)
    return result


def infeasible_ppa(reason: str) -> LayerPPA:
    """An infeasible :class:`LayerPPA` (infinite latency and energy), built
    as :func:`feasible_ppa` builds a feasible one."""
    result = _new(LayerPPA)
    _put(result, "latency_s", _INF)
    _put(result, "energy_j", _INF)
    _put(result, "feasible", False)
    _put(result, "infeasible_reason", reason)
    return result


@dataclass(frozen=True)
class NetworkPPA:
    """Aggregated PPA for a network under a full per-layer mapping.

    ``layer_results`` holds the parts it was composed from: one
    :class:`LayerPPA` per layer, or one :class:`NetworkPPA` per workload
    of a multi-workload bundle.
    """

    latency_s: float
    energy_j: float
    power_w: float
    area_mm2: float
    feasible: bool
    layer_results: Dict[str, Union[LayerPPA, "NetworkPPA"]] = field(
        default_factory=dict
    )


def network_power_w(latency_s: float, energy_j: float, area_mm2: float) -> float:
    """Average power of a run: ``E / L`` plus leakage over the area.

    Infinite unless ``0 < L < inf``.
    """
    if not 0.0 < latency_s < _INF:
        return _INF
    return energy_j / latency_s + DEFAULT_TECHNOLOGY.leakage_w_per_mm2 * area_mm2


def compose_network_ppa(
    counts: Mapping[str, int],
    parts: Mapping[str, Union[LayerPPA, NetworkPPA]],
    area_mm2: float,
) -> NetworkPPA:
    """A network's PPA from its parts: the one network-PPA rule.

    Sums ``count x latency`` and ``count x energy`` over ``counts`` in its
    order and sets power by :func:`network_power_w`.  The result is
    infeasible (infinite latency, energy and power) when a part is
    missing or infeasible, or the latency is not positive.
    """
    latency = 0.0
    energy = 0.0
    feasible = True
    for name, count in counts.items():
        part = parts.get(name)
        if part is None or not part.feasible:
            feasible = False
            continue
        latency += count * part.latency_s
        energy += count * part.energy_j
    layer_results = dict(parts)
    if not feasible or latency <= 0.0:
        return NetworkPPA(_INF, _INF, _INF, area_mm2, False, layer_results)
    power = network_power_w(latency, energy, area_mm2)
    return NetworkPPA(latency, energy, power, area_mm2, True, layer_results)
