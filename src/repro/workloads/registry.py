"""Central registry of workloads and the paper's experiment suites.

Every network used anywhere in the evaluation is registered here under its
canonical name.  The suite constants mirror Section 4:

* :data:`TABLE12_NETWORKS` — the 7 networks of Tables 1-2 and Fig. 7.
* :data:`FIG8_TRAIN` / :data:`FIG8_VALIDATION` — Section 4.3.
* :data:`FIG9_TRAIN` / :data:`FIG9_VALIDATION` — Section 4.4.
* :data:`FIG10_NETWORKS` — the ablation workloads.
* :data:`FIG11_NETWORKS` — the industrial Ascend-like study.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import WorkloadError
from repro.workloads.network import Network
from repro.workloads.networks.conv_nets import resnet50, vgg16, xception
from repro.workloads.networks.dense_prediction import (
    dleu,
    fsrcnn,
    resunet,
    srgan,
    unet,
)
from repro.workloads.networks.extra_nets import (
    densenet121,
    efficientnet_b0,
    gpt2_decode,
)
from repro.workloads.networks.mobile_nets import (
    convnext,
    efficientnet_v2,
    mobilenet_v1,
    mobilenet_v2,
    mobilenet_v3_large,
    mobilenet_v3_small,
    nasnet_mobile,
)
from repro.workloads.networks.transformers import bert, vit

_BUILDERS: Dict[str, Callable[[], Network]] = {
    "bert": bert,
    "mobilenet": mobilenet_v1,
    "mobilenetv2": mobilenet_v2,
    "mobilenetv3_large": mobilenet_v3_large,
    "mobilenetv3_small": mobilenet_v3_small,
    "nasnetmobile": nasnet_mobile,
    "efficientnetv2": efficientnet_v2,
    "convnext": convnext,
    "resnet": resnet50,
    "resunet": resunet,
    "srgan": srgan,
    "unet": unet,
    "vit": vit,
    "vgg": vgg16,
    "xception": xception,
    "gpt2_decode": gpt2_decode,
    "efficientnet_b0": efficientnet_b0,
    "densenet121": densenet121,
    "fsrcnn_120x320": lambda: fsrcnn(120, 320),
    "fsrcnn_240x640": lambda: fsrcnn(240, 640),
    "fsrcnn_480x1280": lambda: fsrcnn(480, 1280),
    "dleu": dleu,
}

_CACHE: Dict[str, Network] = {}


def available_networks() -> Tuple[str, ...]:
    """All registered workload names, sorted."""
    return tuple(sorted(_BUILDERS))


def get_network(name: str) -> Network:
    """Look up a registered network by canonical name (cached)."""
    key = name.lower()
    if key not in _BUILDERS:
        raise WorkloadError(
            f"unknown network {name!r}; available: {', '.join(available_networks())}"
        )
    if key not in _CACHE:
        network = _BUILDERS[key]()
        if network.name != key:
            raise WorkloadError(
                f"registry key {key!r} does not match network name {network.name!r}"
            )
        _CACHE[key] = network
    return _CACHE[key]


# Section 4.2 (Tables 1-2, Fig. 7): the 7 individually co-optimized networks.
TABLE12_NETWORKS: Tuple[str, ...] = (
    "bert",
    "mobilenet",
    "resnet",
    "srgan",
    "unet",
    "vit",
    "xception",
)

# Section 4.3 (Fig. 8): R-metric reliability study.
FIG8_TRAIN: Tuple[str, ...] = ("unet", "srgan", "bert")
FIG8_VALIDATION: Tuple[str, ...] = ("resnet", "resunet", "vit", "mobilenet")

# Section 4.4 (Fig. 9): generalization comparison with HASCO.
FIG9_TRAIN: Tuple[str, ...] = ("mobilenetv2", "resnet", "srgan", "vgg")
FIG9_VALIDATION: Tuple[str, ...] = (
    "unet",
    "vit",
    "xception",
    "mobilenetv3_large",
    "mobilenetv3_small",
    "nasnetmobile",
    "efficientnetv2",
    "convnext",
)

# Section 4.5 (Fig. 10): ablation workloads.
FIG10_NETWORKS: Tuple[str, ...] = ("unet", "srgan", "bert", "vit")

# Section 4.6 (Fig. 11): industrial Ascend-like deployment.
FIG11_NETWORKS: Tuple[str, ...] = (
    "unet",
    "fsrcnn_120x320",
    "fsrcnn_240x640",
    "fsrcnn_480x1280",
    "dleu",
)
