"""Tests for the spatial-accelerator config and edge/cloud spaces."""

import pytest

from repro.errors import ConfigurationError, DesignSpaceError
from repro.hw.spatial import (
    CLOUD_POWER_CAP_W,
    EDGE_POWER_CAP_W,
    SpatialHWConfig,
    cloud_design_space,
    design_space_for,
    edge_design_space,
    power_cap_for,
)


class TestSpatialHWConfig:
    def test_derived_properties(self):
        hw = SpatialHWConfig(4, 8, 1024, 64, 64, "ws")
        assert hw.num_pes == 32
        assert hw.l1_total_bytes == 32 * 1024
        assert hw.l2_bytes == 64 * 1024

    def test_invalid_dataflow(self):
        with pytest.raises(ConfigurationError):
            SpatialHWConfig(1, 1, 64, 8, 64, "rowstationary")

    def test_invalid_pe(self):
        with pytest.raises(ConfigurationError):
            SpatialHWConfig(0, 1, 64, 8, 64, "ws")

    def test_invalid_buffer(self):
        with pytest.raises(ConfigurationError):
            SpatialHWConfig(1, 1, 0, 8, 64, "ws")

    def test_short_name_mentions_shape(self):
        hw = SpatialHWConfig(4, 8, 1024, 64, 64, "os")
        assert "pe4x8" in hw.short_name()
        assert "os" in hw.short_name()


class TestSpaces:
    def test_edge_size_order_of_magnitude(self):
        # Section 4.1: edge HW space ~1e5
        size = edge_design_space().size
        assert 1e4 <= size <= 1e7

    def test_cloud_much_larger_than_edge(self):
        assert cloud_design_space().size > 100 * edge_design_space().size

    def test_cloud_size_order_of_magnitude(self):
        # Section 4.1: cloud HW space ~1e9
        size = cloud_design_space().size
        assert 1e7 <= size <= 1e10

    def test_edge_buffers_are_two_three_smooth(self):
        space = edge_design_space()
        (l1,) = [dim for dim in space.dimensions if dim.name == "l1_bytes"]
        for value in l1.choices:
            reduced = value
            for p in (2, 3):
                while reduced % p == 0:
                    reduced //= p
            assert reduced == 1

    def test_roundtrip_encoding(self):
        space = cloud_design_space()
        for seed in range(20):
            hw = space.sample(seed=seed)
            assert space.decode(space.encode(hw)) == hw

    def test_design_space_for(self):
        assert design_space_for("edge").name == "spatial-edge"
        assert design_space_for("cloud").name == "spatial-cloud"
        with pytest.raises(ConfigurationError):
            design_space_for("mars")

    def test_power_caps(self):
        assert power_cap_for("edge") == EDGE_POWER_CAP_W == 2.0
        assert power_cap_for("cloud") == CLOUD_POWER_CAP_W == 20.0
        with pytest.raises(ConfigurationError):
            power_cap_for("tpu")

    def test_edge_config_defaults_banks(self):
        space = edge_design_space()
        hw = space.sample(seed=0)
        assert hw.l1_banks == 2  # edge space does not search banking

    def test_cloud_config_searches_banks(self):
        space = cloud_design_space()
        banks = {space.sample(seed=s).l1_banks for s in range(60)}
        assert len(banks) > 1
