"""DNN workload definitions for the UNICO reproduction.

A workload is a :class:`~repro.workloads.network.Network`: a named tuple of
tensor operators (:class:`Conv2D`, :class:`DepthwiseConv2D`, :class:`Gemm`),
each lowering to a :class:`GemmShape` for the GEMMCore hardware intrinsic.

Use :func:`get_network` to obtain any of the paper's evaluation networks by
name, and the ``TABLE12_NETWORKS`` / ``FIG*_`` suite constants to replicate
the exact workload splits of Section 4.
"""

# the benchmark harness imports these through the package; nothing else does
from repro.workloads.registry import get_network

__all__ = ["get_network"]
