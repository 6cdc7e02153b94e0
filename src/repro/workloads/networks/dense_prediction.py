"""Dense-prediction workloads: UNet, ResUNet, SRGAN, FSRCNN, DLEU.

These networks keep high spatial resolution through most of the model, which
stresses L2 capacity and NoC bandwidth very differently from classification
backbones — exactly why the paper uses them in the robustness studies and the
industrial (Ascend-like) deployment.

``DLEU`` (Deep Learning image Enhancement and Upscaling) is proprietary; per
the substitution rule we model it as a DLSS-2.0-style upscaling network:
a shallow feature extractor on the low-resolution frame, a recurrent-style
fusion stack, and a pixel-shuffle upsampling head.  The operator mix (3x3
convs at video resolutions with modest channel counts) matches the public
description of such workloads.
"""

from __future__ import annotations

from typing import List

from repro.workloads.layers import Conv2D, LayerSpec, pointwise_conv
from repro.workloads.network import Network


def unet(resolution: int = 256) -> Network:
    """UNet (Ronneberger et al., 2015) encoder-decoder at ``resolution``^2."""
    r = resolution
    layers: List[LayerSpec] = []

    def enc(name: str, cin: int, cout: int, hw: int) -> None:
        layers.append(
            Conv2D(name=f"{name}_a", in_channels=cin, out_channels=cout, in_h=hw, in_w=hw, kernel=3)
        )
        layers.append(
            Conv2D(name=f"{name}_b", in_channels=cout, out_channels=cout, in_h=hw, in_w=hw, kernel=3)
        )

    enc("enc1", 3, 64, r)
    enc("enc2", 64, 128, r // 2)
    enc("enc3", 128, 256, r // 4)
    enc("enc4", 256, 512, r // 8)
    enc("bottleneck", 512, 1024, r // 16)
    # decoder: upconv (2x2) + two 3x3 convs on concatenated features
    for idx, (cin, cout, hw) in enumerate(
        [(1024, 512, r // 8), (512, 256, r // 4), (256, 128, r // 2), (128, 64, r)],
        start=1,
    ):
        layers.append(
            Conv2D(
                name=f"up{idx}",
                in_channels=cin,
                out_channels=cout,
                in_h=hw,
                in_w=hw,
                kernel=2,
            )
        )
        layers.append(
            Conv2D(
                name=f"dec{idx}_a",
                in_channels=cin,
                out_channels=cout,
                in_h=hw,
                in_w=hw,
                kernel=3,
            )
        )
        layers.append(
            Conv2D(
                name=f"dec{idx}_b",
                in_channels=cout,
                out_channels=cout,
                in_h=hw,
                in_w=hw,
                kernel=3,
            )
        )
    layers.append(pointwise_conv("head", 64, 2, r, r))
    return Network(
        name="unet",
        layers=tuple(layers),
        family="segmentation",
        year=2015,
        description=f"UNet @ {r}x{r}",
    )


def resunet(resolution: int = 256) -> Network:
    """ResUNet-a (Diakogiannis et al., 2020): UNet with residual blocks."""
    r = resolution
    layers: List[LayerSpec] = [
        Conv2D(name="stem", in_channels=3, out_channels=32, in_h=r, in_w=r, kernel=3),
    ]

    def res_block(name: str, ch: int, hw: int, count: int = 1) -> None:
        layers.append(
            Conv2D(
                name=f"{name}_c1",
                count=count,
                in_channels=ch,
                out_channels=ch,
                in_h=hw,
                in_w=hw,
                kernel=3,
            )
        )
        layers.append(
            Conv2D(
                name=f"{name}_c2",
                count=count,
                in_channels=ch,
                out_channels=ch,
                in_h=hw,
                in_w=hw,
                kernel=3,
            )
        )

    res_block("enc1", 32, r, count=2)
    layers.append(pointwise_conv("down1", 32, 64, r // 2, r // 2))
    res_block("enc2", 64, r // 2, count=2)
    layers.append(pointwise_conv("down2", 64, 128, r // 4, r // 4))
    res_block("enc3", 128, r // 4, count=2)
    layers.append(pointwise_conv("down3", 128, 256, r // 8, r // 8))
    res_block("bridge", 256, r // 8, count=2)
    layers.append(pointwise_conv("up3", 256, 128, r // 4, r // 4))
    res_block("dec3", 128, r // 4)
    layers.append(pointwise_conv("up2", 128, 64, r // 2, r // 2))
    res_block("dec2", 64, r // 2)
    layers.append(pointwise_conv("up1", 64, 32, r, r))
    res_block("dec1", 32, r)
    layers.append(pointwise_conv("head", 32, 1, r, r))
    return Network(
        name="resunet",
        layers=tuple(layers),
        family="segmentation",
        year=2020,
        description=f"ResUNet-a @ {r}x{r}",
    )


def srgan(lr_resolution: int = 96) -> Network:
    """SRGAN generator (Ledig et al., 2017): 16 residual blocks + upsampling."""
    r = lr_resolution
    layers: List[LayerSpec] = [
        Conv2D(name="head", in_channels=3, out_channels=64, in_h=r, in_w=r, kernel=9),
        Conv2D(
            name="res_conv",
            count=32,  # 16 residual blocks x 2 convs
            in_channels=64,
            out_channels=64,
            in_h=r,
            in_w=r,
            kernel=3,
        ),
        Conv2D(
            name="post_res", in_channels=64, out_channels=64, in_h=r, in_w=r, kernel=3
        ),
        # two pixel-shuffle upsample stages (conv to 256ch then shuffle 2x)
        Conv2D(
            name="up1", in_channels=64, out_channels=256, in_h=r, in_w=r, kernel=3
        ),
        Conv2D(
            name="up2",
            in_channels=64,
            out_channels=256,
            in_h=2 * r,
            in_w=2 * r,
            kernel=3,
        ),
        Conv2D(
            name="tail",
            in_channels=64,
            out_channels=3,
            in_h=4 * r,
            in_w=4 * r,
            kernel=9,
        ),
    ]
    return Network(
        name="srgan",
        layers=tuple(layers),
        family="sr",
        year=2017,
        description=f"SRGAN generator, LR {r}x{r} -> {4 * r}x{4 * r}",
    )


def fsrcnn(height: int = 120, width: int = 320, scale: int = 2) -> Network:
    """FSRCNN (Dong et al., 2016) with d=56, s=12, m=4 at a given LR size.

    The industrial study (Fig. 11) evaluates FSRCNN at several video
    resolutions; ``height`` x ``width`` is the low-resolution input.
    """
    d, s, m = 56, 12, 4
    layers: List[LayerSpec] = [
        Conv2D(
            name="feature",
            in_channels=1,
            out_channels=d,
            in_h=height,
            in_w=width,
            kernel=5,
        ),
        pointwise_conv("shrink", d, s, height, width),
        Conv2D(
            name="map",
            count=m,
            in_channels=s,
            out_channels=s,
            in_h=height,
            in_w=width,
            kernel=3,
        ),
        pointwise_conv("expand", s, d, height, width),
        # deconvolution 9x9 modeled as conv at the upscaled resolution
        Conv2D(
            name="deconv",
            in_channels=d,
            out_channels=1,
            in_h=scale * height,
            in_w=scale * width,
            kernel=9,
        ),
    ]
    return Network(
        name=f"fsrcnn_{height}x{width}",
        layers=tuple(layers),
        family="sr",
        year=2016,
        description=f"FSRCNN d56s12m4, LR {height}x{width}, x{scale}",
    )


def dleu(height: int = 270, width: int = 480, scale: int = 2) -> Network:
    """DLEU: DLSS-style deep-learning enhancement & upscaling (substitute).

    Proprietary in the paper; modeled as a shallow video-upscaler: feature
    extraction on the LR frame (+ motion features), a fusion trunk of 3x3
    convs, and a pixel-shuffle head.  See module docstring for rationale.
    """
    layers: List[LayerSpec] = [
        Conv2D(
            name="feat_rgb",
            in_channels=3,
            out_channels=32,
            in_h=height,
            in_w=width,
            kernel=3,
        ),
        Conv2D(
            name="feat_motion",
            in_channels=4,  # motion vectors + depth
            out_channels=16,
            in_h=height,
            in_w=width,
            kernel=3,
        ),
        Conv2D(
            name="fuse",
            in_channels=48,
            out_channels=48,
            in_h=height,
            in_w=width,
            kernel=3,
            count=6,
        ),
        pointwise_conv("bottleneck", 48, 32, height, width),
        Conv2D(
            name="upsample",
            in_channels=32,
            out_channels=3 * scale * scale,
            in_h=height,
            in_w=width,
            kernel=3,
        ),
        Conv2D(
            name="refine",
            in_channels=3,
            out_channels=3,
            in_h=scale * height,
            in_w=scale * width,
            kernel=3,
        ),
    ]
    return Network(
        name="dleu",
        layers=tuple(layers),
        family="sr",
        year=2020,
        description=f"DLEU-style upscaler, LR {height}x{width}, x{scale}",
    )
