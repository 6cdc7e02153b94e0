"""Network = a named list of tensor operators.

A :class:`Network` is the unit of workload handed to the co-optimizer.  Its
layer list stores one :class:`~repro.workloads.layers.LayerSpec` per layer
*name*, with a ``count`` for repeats of that operator.  Distinct specs may
still lower to one GEMM shape (MobileNetV2's 35 specs are 29 shapes): each
keeps its own mapping incumbent, but the cost models read only the shape,
so a search and an engine share one answer between such *twins*
(:attr:`Network.twin_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.layers import GemmShape, LayerSpec


@dataclass(frozen=True)
class Network:
    """A DNN workload.

    Attributes
    ----------
    name:
        Canonical lowercase identifier (e.g. ``"resnet"``).
    layers:
        One spec per layer name; ``layer.count`` carries repetition.
        Specs may share a GEMM shape (see :attr:`twin_keys`).
    family:
        Coarse family tag (``"cnn"``, ``"transformer"``, ``"sr"``, ...).
    year:
        Publication year, used to characterize "newer" validation networks.
    """

    name: str
    layers: Tuple[LayerSpec, ...]
    family: str = "cnn"
    year: int = 2016
    description: str = ""

    def __post_init__(self) -> None:
        if not self.layers:
            raise WorkloadError(f"network {self.name!r} has no layers")
        seen: set = set()
        for layer in self.layers:
            if layer.name in seen:
                raise WorkloadError(
                    f"duplicate layer name {layer.name!r} in network {self.name!r}"
                )
            seen.add(layer.name)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @cached_property
    def twin_keys(self) -> Dict[str, str]:
        """Layer name -> its *twin key*: the name of the first layer with
        the same ``to_gemm()`` shape.

        Every cost model reads only ``(hw, mapping, GemmShape)``, so twins
        asked the same mapping get one answer: the search's answer store
        and the engine's LRU are keyed by this name.  A ``str`` because
        Python caches its hash; a frozen ``GemmShape`` would rehash its
        fields on every lookup.
        """
        first: Dict[GemmShape, str] = {}
        return {
            layer.name: first.setdefault(layer.to_gemm(), layer.name)
            for layer in self.layers
        }

    @property
    def num_unique_layers(self) -> int:
        return len(self.layers)

    @property
    def num_layers(self) -> int:
        """Total operator instances including repeats."""
        return sum(layer.count for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.total_macs for layer in self.layers)

    def layer(self, name: str) -> LayerSpec:
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise WorkloadError(f"network {self.name!r} has no layer {name!r}")

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "year": self.year,
            "unique_layers": self.num_unique_layers,
            "total_layers": self.num_layers,
            "total_gmacs": self.total_macs / 1e9,
        }


def merge_networks(name: str, networks: Iterable[Network]) -> Network:
    """Concatenate several networks into one multi-workload (Fig. 6a style).

    Layer names are prefixed with their source network to stay unique.
    """
    merged: List[LayerSpec] = []
    members = list(networks)
    if not members:
        raise WorkloadError("merge_networks needs at least one network")
    for network in members:
        for layer in network.layers:
            merged.append(
                layer.__class__(
                    **{
                        **{f.name: getattr(layer, f.name) for f in _fields(layer)},
                        "name": f"{network.name}.{layer.name}",
                    }
                )
            )
    return Network(
        name=name,
        layers=tuple(merged),
        family="multi",
        year=max(network.year for network in members),
        description="merged: " + ", ".join(network.name for network in members),
    )


def _fields(layer: LayerSpec):
    import dataclasses

    return dataclasses.fields(layer)
