"""DNN workload definitions for the UNICO reproduction.

A workload is a :class:`~repro.workloads.network.Network`: a named tuple of
tensor operators (:class:`Conv2D`, :class:`DepthwiseConv2D`, :class:`Gemm`),
each lowering to a :class:`GemmShape` for the GEMMCore hardware intrinsic.

Use :func:`get_network` to obtain any of the paper's evaluation networks by
name, and the ``TABLE12_NETWORKS`` / ``FIG*_`` suite constants to replicate
the exact workload splits of Section 4.
"""

from repro.workloads.layers import (
    Conv2D,
    DepthwiseConv2D,
    Gemm,
    GemmShape,
    LayerSpec,
    pointwise_conv,
)
from repro.workloads.network import Network, merge_networks
from repro.workloads.registry import (
    FIG8_TRAIN,
    FIG8_VALIDATION,
    FIG9_TRAIN,
    FIG9_VALIDATION,
    FIG10_NETWORKS,
    FIG11_NETWORKS,
    TABLE12_NETWORKS,
    available_networks,
    get_network,
)

__all__ = [
    "Conv2D",
    "DepthwiseConv2D",
    "Gemm",
    "GemmShape",
    "LayerSpec",
    "pointwise_conv",
    "Network",
    "merge_networks",
    "available_networks",
    "get_network",
    "TABLE12_NETWORKS",
    "FIG8_TRAIN",
    "FIG8_VALIDATION",
    "FIG9_TRAIN",
    "FIG9_VALIDATION",
    "FIG10_NETWORKS",
    "FIG11_NETWORKS",
]
