"""Tests for Network containers and the concrete network definitions."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.layers import Conv2D, Gemm
from repro.workloads.network import Network, merge_networks
from repro.workloads.registry import available_networks, get_network


class TestNetwork:
    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            Network(name="empty", layers=())

    def test_rejects_duplicate_layer_names(self):
        layer = Gemm(name="same", m=2, n=2, k=2)
        with pytest.raises(WorkloadError):
            Network(name="dup", layers=(layer, layer))

    def test_counts(self, tiny_network):
        assert tiny_network.num_unique_layers == 3
        assert tiny_network.num_layers == 4  # gemm has count=2

    def test_total_macs(self, tiny_network):
        assert tiny_network.total_macs == sum(
            layer.total_macs for layer in tiny_network.layers
        )

    def test_layer_lookup(self, tiny_network):
        assert tiny_network.layer("gemm").count == 2
        with pytest.raises(WorkloadError):
            tiny_network.layer("nope")

    def test_summary_keys(self, tiny_network):
        summary = tiny_network.summary()
        assert summary["unique_layers"] == 3
        assert summary["total_gmacs"] > 0


class TestMergeNetworks:
    def test_prefixes_names(self, tiny_network):
        merged = merge_networks("multi", [tiny_network, get_network("bert")])
        names = [layer.name for layer in merged.layers]
        assert any(name.startswith("tinynet.") for name in names)
        assert any(name.startswith("bert.") for name in names)

    def test_macs_add_up(self, tiny_network):
        bert = get_network("bert")
        merged = merge_networks("multi", [tiny_network, bert])
        assert merged.total_macs == tiny_network.total_macs + bert.total_macs

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            merge_networks("x", [])


class TestConcreteNetworks:
    def test_all_registered_networks_construct(self):
        for name in available_networks():
            network = get_network(name)
            assert network.total_macs > 0
            assert network.num_unique_layers >= 1

    @pytest.mark.parametrize(
        "name,min_gmacs,max_gmacs",
        [
            ("resnet", 3.0, 5.0),  # ResNet-50 is ~3.9 GMACs
            ("vgg", 14.0, 17.0),  # VGG-16 is ~15.5 GMACs
            ("mobilenet", 0.4, 0.8),  # MobileNetV1 is ~0.57 GMACs
            ("mobilenetv2", 0.2, 0.45),  # ~0.3 GMACs
            ("efficientnet_b0", 0.25, 0.55),  # ~0.39 GMACs
            ("densenet121", 2.3, 3.5),  # ~2.9 GMACs
        ],
    )
    def test_known_mac_counts(self, name, min_gmacs, max_gmacs):
        gmacs = get_network(name).total_macs / 1e9
        assert min_gmacs <= gmacs <= max_gmacs

    def test_bert_is_all_gemms(self):
        assert all(isinstance(l, Gemm) for l in get_network("bert").layers)

    def test_vit_has_patch_embed_conv(self):
        layers = get_network("vit").layers
        assert any(isinstance(l, Conv2D) for l in layers)

    def test_fsrcnn_resolution_scales_macs(self):
        small = get_network("fsrcnn_120x320").total_macs
        large = get_network("fsrcnn_240x640").total_macs
        assert large == pytest.approx(4 * small, rel=0.05)

    def test_validation_networks_are_newer(self):
        """Fig. 9's validation nets include newer architectures."""
        from repro.workloads.registry import FIG9_TRAIN, FIG9_VALIDATION

        train_latest = max(get_network(n).year for n in FIG9_TRAIN)
        val_latest = max(get_network(n).year for n in FIG9_VALIDATION)
        assert val_latest > train_latest

    def test_unknown_network_raises(self):
        with pytest.raises(WorkloadError):
            get_network("alexnet-9000")

    def test_registry_is_cached(self):
        assert get_network("resnet") is get_network("resnet")


class TestExtraNetworks:
    def test_gpt2_decode_is_skinny_gemms(self):
        """Decoding processes few tokens: N dimension stays small except
        for the attention-score GEMM over the KV cache."""
        from repro.workloads.layers import Gemm

        network = get_network("gpt2_decode")
        assert all(isinstance(l, Gemm) for l in network.layers)
        qkv = network.layer("qkv")
        assert qkv.n <= 64  # batch tokens, not sequence length

    def test_gpt2_kv_cache_in_attention(self):
        network = get_network("gpt2_decode")
        scores = network.layer("attn_scores")
        assert scores.n == 1024  # KV cache length

    def test_densenet_has_bottleneck_pattern(self):
        network = get_network("densenet121")
        names = [l.name for l in network.layers]
        assert any("bottleneck" in n for n in names)
        assert any("trans" in n for n in names)
