"""Tensor operator (layer) specifications and GEMM lowering.

The co-optimizer consumes DNN workloads as lists of tensor operators.  Three
operator families cover every network in the paper's evaluation:

* :class:`Conv2D` — the 7D nested loop (N, K, C, Y, X, R, S) of Fig. 1;
* :class:`DepthwiseConv2D` — per-channel convolution (MobileNet, Xception);
* :class:`Gemm` — general matrix multiply (BERT/ViT projections, FC layers).

The open-source platform's hardware intrinsic is ``GEMMCore`` (Section 4.1),
so every operator is lowered to a GEMM via im2col before mapping:

* ``Conv2D``:  M = K,  N = N * Y_out * X_out,  K_dim = C * R * S
* ``DepthwiseConv2D``: one small GEMM per channel, modeled as a single GEMM
  with M = 1 batched over channels (reduced reuse is reflected by the
  ``reuse_penalty`` attribute consumed by the cost model).
* ``Gemm``: itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import WorkloadError
from repro.utils.intmath import round_up_div


@dataclass(frozen=True)
class GemmShape:
    """An M x K_dim matrix times a K_dim x N matrix.

    ``reuse_penalty`` in (0, 1] scales the achievable operand reuse; 1.0 for
    dense GEMM/conv, < 1.0 for depthwise convolutions whose inner reduction
    is too small to amortize operand fetches.
    """

    m: int
    n: int
    k: int
    reuse_penalty: float = 1.0

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) < 1:
            raise WorkloadError(f"GEMM dims must be >= 1, got {(self.m, self.n, self.k)}")
        if not 0.0 < self.reuse_penalty <= 1.0:
            raise WorkloadError(
                f"reuse_penalty must be in (0, 1], got {self.reuse_penalty}"
            )

    @property
    def macs(self) -> int:
        """Multiply-accumulate count."""
        return self.m * self.n * self.k

    def scaled(self, factor: float) -> "GemmShape":
        """Return a shape with N scaled by ``factor`` (>=1 result dims)."""
        return GemmShape(
            m=self.m,
            n=max(1, int(round(self.n * factor))),
            k=self.k,
            reuse_penalty=self.reuse_penalty,
        )


@dataclass(frozen=True)
class LayerSpec:
    """Base class for one tensor operator occurring ``count`` times."""

    name: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise WorkloadError(f"layer count must be >= 1, got {self.count}")

    def to_gemm(self) -> GemmShape:
        raise NotImplementedError

    @property
    def macs(self) -> int:
        """MACs of one instance of the operator."""
        return self.to_gemm().macs

    @property
    def total_macs(self) -> int:
        """MACs across all ``count`` instances."""
        return self.macs * self.count


def conv_out_dim(in_dim: int, kernel: int, stride: int, padding: str) -> int:
    """Output spatial extent of a convolution."""
    if padding == "same":
        return round_up_div(in_dim, stride)
    if padding == "valid":
        if in_dim < kernel:
            raise WorkloadError(
                f"valid conv needs input >= kernel, got {in_dim} < {kernel}"
            )
        return (in_dim - kernel) // stride + 1
    raise WorkloadError(f"unknown padding mode: {padding!r}")


@dataclass(frozen=True)
class Conv2D(LayerSpec):
    """A standard 2D convolution, the 7D loop nest of Fig. 1, on one
    image."""

    in_channels: int = 1
    out_channels: int = 1
    in_h: int = 1
    in_w: int = 1
    kernel: int = 1
    stride: int = 1
    padding: str = "same"

    def __post_init__(self) -> None:
        super().__post_init__()
        dims = (
            self.in_channels,
            self.out_channels,
            self.in_h,
            self.in_w,
            self.kernel,
            self.stride,
        )
        if min(dims) < 1:
            raise WorkloadError(f"conv dims must be >= 1: {self.name} {dims}")

    @property
    def out_h(self) -> int:
        return conv_out_dim(self.in_h, self.kernel, self.stride, self.padding)

    @property
    def out_w(self) -> int:
        return conv_out_dim(self.in_w, self.kernel, self.stride, self.padding)

    def to_gemm(self) -> GemmShape:
        return GemmShape(
            m=self.out_channels,
            n=self.out_h * self.out_w,
            k=self.in_channels * self.kernel * self.kernel,
        )


@dataclass(frozen=True)
class DepthwiseConv2D(LayerSpec):
    """Per-channel 2D convolution (MobileNet / Xception separable convs)
    on one image, ``same``-padded."""

    channels: int = 1
    in_h: int = 1
    in_w: int = 1
    kernel: int = 3
    stride: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.channels, self.in_h, self.in_w, self.kernel) < 1:
            raise WorkloadError(f"depthwise conv dims must be >= 1: {self.name}")

    @property
    def out_h(self) -> int:
        return conv_out_dim(self.in_h, self.kernel, self.stride, "same")

    @property
    def out_w(self) -> int:
        return conv_out_dim(self.in_w, self.kernel, self.stride, "same")

    def to_gemm(self) -> GemmShape:
        # Each channel is an independent (1 x R*S) @ (R*S x Y*X) GEMM; we fold
        # channels into the M dimension but flag the reduced reduction depth
        # with a reuse penalty so the cost model does not over-credit reuse.
        return GemmShape(
            m=self.channels,
            n=self.out_h * self.out_w,
            k=self.kernel * self.kernel,
            reuse_penalty=0.35,
        )


@dataclass(frozen=True)
class Gemm(LayerSpec):
    """A dense matrix multiply: (m x k) @ (k x n)."""

    m: int = 1
    n: int = 1
    k: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.m, self.n, self.k) < 1:
            raise WorkloadError(f"gemm dims must be >= 1: {self.name}")

    def to_gemm(self) -> GemmShape:
        return GemmShape(m=self.m, n=self.n, k=self.k)


def pointwise_conv(
    name: str,
    in_channels: int,
    out_channels: int,
    h: int,
    w: int,
    count: int = 1,
    stride: int = 1,
) -> Conv2D:
    """Shorthand for a 1x1 convolution."""
    return Conv2D(
        name=name,
        count=count,
        in_channels=in_channels,
        out_channels=out_channels,
        in_h=h,
        in_w=w,
        kernel=1,
        stride=stride,
    )


_ALL_LAYER_TYPES: Tuple[type, ...] = (Conv2D, DepthwiseConv2D, Gemm)
