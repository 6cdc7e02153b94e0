"""Mobile / efficiency-oriented backbones.

MobileNetV1/V2/V3 (large & small), NASNetMobile, EfficientNetV2-S and
ConvNeXt-T.  The latter four serve as the paper's *newer, unseen* validation
networks (Sections 4.3-4.4).  Shapes follow the original papers at 224x224.
"""

from __future__ import annotations

from typing import List

from repro.workloads.layers import Conv2D, DepthwiseConv2D, Gemm, LayerSpec, pointwise_conv
from repro.workloads.network import Network


def _separable(
    prefix: str, cin: int, cout: int, h: int, w: int, stride: int = 1, count: int = 1
) -> List[LayerSpec]:
    """Depthwise 3x3 + pointwise 1x1, the MobileNetV1 building block."""
    out_h = -(-h // stride)
    out_w = -(-w // stride)
    return [
        DepthwiseConv2D(
            name=f"{prefix}_dw",
            channels=cin,
            in_h=h,
            in_w=w,
            stride=stride,
            count=count,
        ),
        pointwise_conv(f"{prefix}_pw", cin, cout, out_h, out_w, count=count),
    ]


def mobilenet_v1() -> Network:
    """MobileNetV1 (Howard et al., 2017), width 1.0, 224x224."""
    layers: List[LayerSpec] = [
        Conv2D(
            name="conv1",
            in_channels=3,
            out_channels=32,
            in_h=224,
            in_w=224,
            kernel=3,
            stride=2,
        )
    ]
    layers += _separable("b1", 32, 64, 112, 112)
    layers += _separable("b2", 64, 128, 112, 112, stride=2)
    layers += _separable("b3", 128, 128, 56, 56)
    layers += _separable("b4", 128, 256, 56, 56, stride=2)
    layers += _separable("b5", 256, 256, 28, 28)
    layers += _separable("b6", 256, 512, 28, 28, stride=2)
    layers += _separable("b7", 512, 512, 14, 14, count=5)
    layers += _separable("b8", 512, 1024, 14, 14, stride=2)
    layers += _separable("b9", 1024, 1024, 7, 7)
    layers.append(Gemm(name="fc", m=1000, n=1, k=1024))
    return Network(
        name="mobilenet",
        layers=tuple(layers),
        family="mobile",
        year=2017,
        description="MobileNetV1 1.0 @ 224x224",
    )


def _inverted_residual(
    prefix: str,
    cin: int,
    cout: int,
    h: int,
    w: int,
    expand: int,
    stride: int = 1,
    kernel: int = 3,
    count: int = 1,
) -> List[LayerSpec]:
    """MobileNetV2-style inverted residual: expand 1x1, dw kxk, project 1x1."""
    hidden = cin * expand
    out_h = -(-h // stride)
    out_w = -(-w // stride)
    block: List[LayerSpec] = []
    if expand != 1:
        block.append(pointwise_conv(f"{prefix}_expand", cin, hidden, h, w, count=count))
    block.append(
        DepthwiseConv2D(
            name=f"{prefix}_dw",
            channels=hidden,
            in_h=h,
            in_w=w,
            kernel=kernel,
            stride=stride,
            count=count,
        )
    )
    block.append(
        pointwise_conv(f"{prefix}_project", hidden, cout, out_h, out_w, count=count)
    )
    return block


def mobilenet_v2() -> Network:
    """MobileNetV2 (Sandler et al., 2018), width 1.0, 224x224."""
    layers: List[LayerSpec] = [
        Conv2D(
            name="conv1",
            in_channels=3,
            out_channels=32,
            in_h=224,
            in_w=224,
            kernel=3,
            stride=2,
        )
    ]
    layers += _inverted_residual("b1", 32, 16, 112, 112, expand=1)
    layers += _inverted_residual("b2a", 16, 24, 112, 112, expand=6, stride=2)
    layers += _inverted_residual("b2b", 24, 24, 56, 56, expand=6)
    layers += _inverted_residual("b3a", 24, 32, 56, 56, expand=6, stride=2)
    layers += _inverted_residual("b3b", 32, 32, 28, 28, expand=6, count=2)
    layers += _inverted_residual("b4a", 32, 64, 28, 28, expand=6, stride=2)
    layers += _inverted_residual("b4b", 64, 64, 14, 14, expand=6, count=3)
    layers += _inverted_residual("b5", 64, 96, 14, 14, expand=6, count=3)
    layers += _inverted_residual("b6a", 96, 160, 14, 14, expand=6, stride=2)
    layers += _inverted_residual("b6b", 160, 160, 7, 7, expand=6, count=2)
    layers += _inverted_residual("b7", 160, 320, 7, 7, expand=6)
    layers.append(pointwise_conv("head", 320, 1280, 7, 7))
    layers.append(Gemm(name="fc", m=1000, n=1, k=1280))
    return Network(
        name="mobilenetv2",
        layers=tuple(layers),
        family="mobile",
        year=2018,
        description="MobileNetV2 1.0 @ 224x224",
    )


def mobilenet_v3_large() -> Network:
    """MobileNetV3-Large (Howard et al., 2019), 224x224."""
    layers: List[LayerSpec] = [
        Conv2D(
            name="conv1",
            in_channels=3,
            out_channels=16,
            in_h=224,
            in_w=224,
            kernel=3,
            stride=2,
        )
    ]
    layers += _inverted_residual("b1", 16, 16, 112, 112, expand=1)
    layers += _inverted_residual("b2", 16, 24, 112, 112, expand=4, stride=2)
    layers += _inverted_residual("b3", 24, 24, 56, 56, expand=3)
    layers += _inverted_residual("b4", 24, 40, 56, 56, expand=3, stride=2, kernel=5)
    layers += _inverted_residual("b5", 40, 40, 28, 28, expand=3, kernel=5, count=2)
    layers += _inverted_residual("b6", 40, 80, 28, 28, expand=6, stride=2)
    layers += _inverted_residual("b7", 80, 80, 14, 14, expand=2, count=3)
    layers += _inverted_residual("b8", 80, 112, 14, 14, expand=6, count=2)
    layers += _inverted_residual("b9", 112, 160, 14, 14, expand=6, stride=2, kernel=5)
    layers += _inverted_residual("b10", 160, 160, 7, 7, expand=6, kernel=5, count=2)
    layers.append(pointwise_conv("head1", 160, 960, 7, 7))
    layers.append(Gemm(name="head2", m=1280, n=1, k=960))
    layers.append(Gemm(name="fc", m=1000, n=1, k=1280))
    return Network(
        name="mobilenetv3_large",
        layers=tuple(layers),
        family="mobile",
        year=2019,
        description="MobileNetV3-Large @ 224x224",
    )


def mobilenet_v3_small() -> Network:
    """MobileNetV3-Small (Howard et al., 2019), 224x224."""
    layers: List[LayerSpec] = [
        Conv2D(
            name="conv1",
            in_channels=3,
            out_channels=16,
            in_h=224,
            in_w=224,
            kernel=3,
            stride=2,
        )
    ]
    layers += _inverted_residual("b1", 16, 16, 112, 112, expand=1, stride=2)
    layers += _inverted_residual("b2", 16, 24, 56, 56, expand=4, stride=2)
    layers += _inverted_residual("b3", 24, 24, 28, 28, expand=4)
    layers += _inverted_residual("b4", 24, 40, 28, 28, expand=4, stride=2, kernel=5)
    layers += _inverted_residual("b5", 40, 40, 14, 14, expand=6, kernel=5, count=2)
    layers += _inverted_residual("b6", 40, 48, 14, 14, expand=3, kernel=5, count=2)
    layers += _inverted_residual("b7", 48, 96, 14, 14, expand=6, stride=2, kernel=5)
    layers += _inverted_residual("b8", 96, 96, 7, 7, expand=6, kernel=5, count=2)
    layers.append(pointwise_conv("head1", 96, 576, 7, 7))
    layers.append(Gemm(name="head2", m=1024, n=1, k=576))
    layers.append(Gemm(name="fc", m=1000, n=1, k=1024))
    return Network(
        name="mobilenetv3_small",
        layers=tuple(layers),
        family="mobile",
        year=2019,
        description="MobileNetV3-Small @ 224x224",
    )


def nasnet_mobile() -> Network:
    """NASNetMobile (Zoph et al., 2018) — representative cell operators."""
    layers: List[LayerSpec] = [
        Conv2D(
            name="stem",
            in_channels=3,
            out_channels=32,
            in_h=224,
            in_w=224,
            kernel=3,
            stride=2,
        ),
        # normal cells at 28x28 (x4), separable 3x3/5x5 branches, 44 filters
        DepthwiseConv2D(name="nc28_dw3", channels=176, in_h=28, in_w=28, count=8),
        DepthwiseConv2D(
            name="nc28_dw5", channels=176, in_h=28, in_w=28, kernel=5, count=8
        ),
        pointwise_conv("nc28_pw", 176, 176, 28, 28, count=16),
        # reduction to 14x14, 352 filters
        DepthwiseConv2D(
            name="rc14_dw5", channels=352, in_h=28, in_w=28, kernel=5, stride=2, count=3
        ),
        pointwise_conv("rc14_pw", 352, 352, 14, 14, count=3),
        DepthwiseConv2D(name="nc14_dw3", channels=352, in_h=14, in_w=14, count=8),
        DepthwiseConv2D(
            name="nc14_dw5", channels=352, in_h=14, in_w=14, kernel=5, count=8
        ),
        pointwise_conv("nc14_pw", 352, 352, 14, 14, count=16),
        # reduction to 7x7, 704 filters
        DepthwiseConv2D(
            name="rc7_dw5", channels=704, in_h=14, in_w=14, kernel=5, stride=2, count=3
        ),
        pointwise_conv("rc7_pw", 704, 704, 7, 7, count=3),
        DepthwiseConv2D(name="nc7_dw3", channels=704, in_h=7, in_w=7, count=8),
        DepthwiseConv2D(
            name="nc7_dw5", channels=704, in_h=7, in_w=7, kernel=5, count=8
        ),
        pointwise_conv("nc7_pw", 704, 704, 7, 7, count=16),
        Gemm(name="fc", m=1000, n=1, k=1056),
    ]
    return Network(
        name="nasnetmobile",
        layers=tuple(layers),
        family="mobile",
        year=2018,
        description="NASNetMobile @ 224x224 (representative cells)",
    )


def efficientnet_v2() -> Network:
    """EfficientNetV2-S (Tan & Le, 2021) — fused-MBConv early stages."""
    layers: List[LayerSpec] = [
        Conv2D(
            name="stem",
            in_channels=3,
            out_channels=24,
            in_h=224,
            in_w=224,
            kernel=3,
            stride=2,
        ),
        # fused-MBConv: full 3x3 conv replaces expand+dw
        Conv2D(
            name="fused1",
            count=2,
            in_channels=24,
            out_channels=24,
            in_h=112,
            in_w=112,
            kernel=3,
        ),
        Conv2D(
            name="fused2a",
            in_channels=24,
            out_channels=96,
            in_h=112,
            in_w=112,
            kernel=3,
            stride=2,
        ),
        pointwise_conv("fused2b", 96, 48, 56, 56),
        Conv2D(
            name="fused2c",
            count=3,
            in_channels=48,
            out_channels=192,
            in_h=56,
            in_w=56,
            kernel=3,
        ),
        pointwise_conv("fused2d", 192, 48, 56, 56, count=3),
        Conv2D(
            name="fused3a",
            in_channels=48,
            out_channels=192,
            in_h=56,
            in_w=56,
            kernel=3,
            stride=2,
        ),
        pointwise_conv("fused3b", 192, 64, 28, 28),
        Conv2D(
            name="fused3c",
            count=3,
            in_channels=64,
            out_channels=256,
            in_h=28,
            in_w=28,
            kernel=3,
        ),
        pointwise_conv("fused3d", 256, 64, 28, 28, count=3),
    ]
    layers += _inverted_residual("mb4a", 64, 128, 28, 28, expand=4, stride=2)
    layers += _inverted_residual("mb4b", 128, 128, 14, 14, expand=4, count=5)
    layers += _inverted_residual("mb5", 128, 160, 14, 14, expand=6, count=9)
    layers += _inverted_residual("mb6a", 160, 256, 14, 14, expand=6, stride=2)
    layers += _inverted_residual("mb6b", 256, 256, 7, 7, expand=6, count=14)
    layers.append(pointwise_conv("head", 256, 1280, 7, 7))
    layers.append(Gemm(name="fc", m=1000, n=1, k=1280))
    return Network(
        name="efficientnetv2",
        layers=tuple(layers),
        family="mobile",
        year=2021,
        description="EfficientNetV2-S @ 224x224",
    )


def convnext() -> Network:
    """ConvNeXt-T (Liu et al., 2022): 7x7 depthwise + MLP blocks."""

    def stage(prefix: str, dim: int, hw: int, blocks: int) -> List[LayerSpec]:
        return [
            DepthwiseConv2D(
                name=f"{prefix}_dw7",
                channels=dim,
                in_h=hw,
                in_w=hw,
                kernel=7,
                count=blocks,
            ),
            pointwise_conv(f"{prefix}_mlp_up", dim, 4 * dim, hw, hw, count=blocks),
            pointwise_conv(f"{prefix}_mlp_down", 4 * dim, dim, hw, hw, count=blocks),
        ]

    layers: List[LayerSpec] = [
        Conv2D(
            name="stem",
            in_channels=3,
            out_channels=96,
            in_h=224,
            in_w=224,
            kernel=4,
            stride=4,
        )
    ]
    layers += stage("s1", 96, 56, 3)
    layers.append(
        Conv2D(
            name="down1",
            in_channels=96,
            out_channels=192,
            in_h=56,
            in_w=56,
            kernel=2,
            stride=2,
        )
    )
    layers += stage("s2", 192, 28, 3)
    layers.append(
        Conv2D(
            name="down2",
            in_channels=192,
            out_channels=384,
            in_h=28,
            in_w=28,
            kernel=2,
            stride=2,
        )
    )
    layers += stage("s3", 384, 14, 9)
    layers.append(
        Conv2D(
            name="down3",
            in_channels=384,
            out_channels=768,
            in_h=14,
            in_w=14,
            kernel=2,
            stride=2,
        )
    )
    layers += stage("s4", 768, 7, 3)
    layers.append(Gemm(name="fc", m=1000, n=1, k=768))
    return Network(
        name="convnext",
        layers=tuple(layers),
        family="mobile",
        year=2022,
        description="ConvNeXt-T @ 224x224",
    )
