"""Additional workloads beyond the paper's evaluation set.

These extend the registry for the repo's own studies (seed sweeps, the
R-vs-generalization correlation experiment) with operator mixes the paper
set under-represents: autoregressive decoding (GPT-2), squeeze-excite
MBConv at compound scaling (EfficientNet-B0), and dense feature reuse
(DenseNet-121).
"""

from __future__ import annotations

from typing import List

from repro.workloads.layers import Conv2D, Gemm, LayerSpec, pointwise_conv
from repro.workloads.network import Network
from repro.workloads.networks.mobile_nets import _inverted_residual


def gpt2_decode(seq_len: int = 1024, batch_tokens: int = 16) -> Network:
    """GPT-2 small in incremental decoding: 12 layers, hidden 768.

    During decoding each step processes ``batch_tokens`` new tokens against
    a ``seq_len`` KV cache — the skinny-GEMM regime that stresses operand
    bandwidth instead of compute.
    """
    hidden, heads, ffn, blocks = 768, 12, 3072, 12
    head_dim = hidden // heads
    layers: List[LayerSpec] = [
        Gemm(name="qkv", m=3 * hidden, n=batch_tokens, k=hidden, count=blocks),
        Gemm(
            name="attn_scores",
            m=batch_tokens,
            n=seq_len,
            k=head_dim,
            count=blocks * heads,
        ),
        Gemm(
            name="attn_context",
            m=batch_tokens,
            n=head_dim,
            k=seq_len,
            count=blocks * heads,
        ),
        Gemm(name="out_proj", m=hidden, n=batch_tokens, k=hidden, count=blocks),
        Gemm(name="ffn_up", m=ffn, n=batch_tokens, k=hidden, count=blocks),
        Gemm(name="ffn_down", m=hidden, n=batch_tokens, k=ffn, count=blocks),
        Gemm(name="lm_head", m=50257, n=batch_tokens, k=hidden),
    ]
    return Network(
        name="gpt2_decode",
        layers=tuple(layers),
        family="transformer",
        year=2019,
        description=f"GPT-2 small decode, KV cache {seq_len}, {batch_tokens} tokens",
    )


def efficientnet_b0() -> Network:
    """EfficientNet-B0 (Tan & Le, 2019): MBConv backbone at 224x224."""
    layers: List[LayerSpec] = [
        Conv2D(
            name="stem",
            in_channels=3,
            out_channels=32,
            in_h=224,
            in_w=224,
            kernel=3,
            stride=2,
        )
    ]
    layers += _inverted_residual("mb1", 32, 16, 112, 112, expand=1)
    layers += _inverted_residual("mb2a", 16, 24, 112, 112, expand=6, stride=2)
    layers += _inverted_residual("mb2b", 24, 24, 56, 56, expand=6)
    layers += _inverted_residual("mb3a", 24, 40, 56, 56, expand=6, stride=2, kernel=5)
    layers += _inverted_residual("mb3b", 40, 40, 28, 28, expand=6, kernel=5)
    layers += _inverted_residual("mb4a", 40, 80, 28, 28, expand=6, stride=2)
    layers += _inverted_residual("mb4b", 80, 80, 14, 14, expand=6, count=2)
    layers += _inverted_residual("mb5", 80, 112, 14, 14, expand=6, kernel=5, count=3)
    layers += _inverted_residual(
        "mb6a", 112, 192, 14, 14, expand=6, stride=2, kernel=5
    )
    layers += _inverted_residual("mb6b", 192, 192, 7, 7, expand=6, kernel=5, count=3)
    layers += _inverted_residual("mb7", 192, 320, 7, 7, expand=6)
    layers.append(pointwise_conv("head", 320, 1280, 7, 7))
    layers.append(Gemm(name="fc", m=1000, n=1, k=1280))
    return Network(
        name="efficientnet_b0",
        layers=tuple(layers),
        family="mobile",
        year=2019,
        description="EfficientNet-B0 @ 224x224",
    )


def densenet121() -> Network:
    """DenseNet-121 (Huang et al., 2017), growth rate 32, 224x224.

    Each dense layer is a 1x1 bottleneck (4x growth) + 3x3 conv on the
    concatenated features; channel counts below are stage averages, the
    standard compression for analytical evaluation.
    """
    growth = 32

    def dense_block(prefix: str, in_ch: int, num_layers: int, hw: int) -> List[LayerSpec]:
        avg_in = in_ch + growth * (num_layers - 1) // 2
        return [
            pointwise_conv(f"{prefix}_bottleneck", avg_in, 4 * growth, hw, hw, count=num_layers),
            Conv2D(
                name=f"{prefix}_conv3",
                count=num_layers,
                in_channels=4 * growth,
                out_channels=growth,
                in_h=hw,
                in_w=hw,
                kernel=3,
            ),
        ]

    layers: List[LayerSpec] = [
        Conv2D(
            name="stem",
            in_channels=3,
            out_channels=64,
            in_h=224,
            in_w=224,
            kernel=7,
            stride=2,
        )
    ]
    layers += dense_block("db1", 64, 6, 56)
    layers.append(pointwise_conv("trans1", 256, 128, 56, 56))
    layers += dense_block("db2", 128, 12, 28)
    layers.append(pointwise_conv("trans2", 512, 256, 28, 28))
    layers += dense_block("db3", 256, 24, 14)
    layers.append(pointwise_conv("trans3", 1024, 512, 14, 14))
    layers += dense_block("db4", 512, 16, 7)
    layers.append(Gemm(name="fc", m=1000, n=1, k=1024))
    return Network(
        name="densenet121",
        layers=tuple(layers),
        family="cnn",
        year=2017,
        description="DenseNet-121 @ 224x224",
    )
