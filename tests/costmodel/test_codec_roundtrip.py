"""Randomized round-trip property tests for the service payload codec.

``decode(encode(x)) == x`` must hold for every transportable config type,
and the round-tripped object must hash/key identically — the remote
engine's cache correctness depends on it.
"""

import json

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import decode_object, encode_object
from repro.hw.ascend import ascend_design_space
from repro.hw.spatial import edge_design_space
from repro.mapping.ascend_mapping import AscendMapping, AscendMappingSpace
from repro.mapping.gemm_mapping import GemmMappingSpace
from repro.workloads.layers import GemmShape

SEEDS = list(range(20))


def _json_roundtrip(payload):
    """The wire adds a JSON serialize/parse cycle; include it."""
    return json.loads(json.dumps(payload))


class TestRandomizedRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_spatial_hw(self, seed):
        hw = edge_design_space().sample(seed)
        decoded = decode_object(_json_roundtrip(encode_object(hw)))
        assert decoded == hw

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ascend_hw(self, seed):
        hw = ascend_design_space().sample(seed)
        decoded = decode_object(_json_roundtrip(encode_object(hw)))
        assert decoded == hw

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gemm_mapping(self, seed):
        space = GemmMappingSpace(GemmShape(m=48, n=64, k=96))
        mapping = space.sample(seed)
        decoded = decode_object(_json_roundtrip(encode_object(mapping)))
        assert decoded == mapping
        # tuple fields must come back as tuples, not JSON lists
        assert isinstance(decoded.loop_order, tuple)
        assert decoded.key() == mapping.key()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ascend_mapping(self, seed):
        space = AscendMappingSpace(GemmShape(m=48, n=64, k=96))
        mapping = space.sample(seed)
        decoded = decode_object(_json_roundtrip(encode_object(mapping)))
        assert decoded == mapping
        assert decoded.key() == mapping.key()

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_hw_key_stable_across_the_wire(self, seed, tiny_network):
        engine = MaestroEngine(tiny_network)
        hw = edge_design_space().sample(seed)
        decoded = decode_object(_json_roundtrip(encode_object(hw)))
        assert engine.hw_key(decoded) == engine.hw_key(hw)
