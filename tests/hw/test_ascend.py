"""Tests for the Ascend-like configuration and design space."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.ascend import (
    ASCEND_AREA_CAP_MM2,
    AscendHWConfig,
    ascend_design_space,
    default_ascend_config,
)
from tests.hw.membership import in_space


class TestAscendHWConfig:
    def test_cube_macs(self):
        hw = default_ascend_config()
        assert hw.cube_macs_per_cycle == 16**3

    def test_total_sram(self):
        hw = default_ascend_config()
        expected = 64 + 64 + 256 + 1024 + 256 + 64 + 32
        assert hw.total_sram_kb == expected

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            default_ascend_config().with_updates(l0a_kb=0)

    def test_invalid_banks(self):
        with pytest.raises(ConfigurationError):
            default_ascend_config().with_updates(l0c_banks=0)

    def test_with_updates_returns_new(self):
        base = default_ascend_config()
        bigger = base.with_updates(l0a_kb=128)
        assert bigger.l0a_kb == 128
        assert base.l0a_kb == 64

    def test_short_name(self):
        assert "cube16x16x16" in default_ascend_config().short_name()


class TestAscendSpace:
    def test_size_order_of_magnitude(self):
        # Section 4.1: "a HW space of size 1e9"
        size = ascend_design_space().size
        assert 1e8 <= size <= 1e11

    def test_default_config_in_space(self):
        space = ascend_design_space()
        assert in_space(space, default_ascend_config())

    def test_roundtrip(self):
        space = ascend_design_space()
        for seed in range(10):
            hw = space.sample(seed=seed)
            assert space.decode(space.encode(hw)) == hw

    def test_mutate_stays_inside(self, rng):
        space = ascend_design_space()
        hw = default_ascend_config()
        for _ in range(30):
            hw = space.mutate(hw, rng)
            assert in_space(space, hw)

    def test_area_cap_constant(self):
        assert ASCEND_AREA_CAP_MM2 == 200.0
