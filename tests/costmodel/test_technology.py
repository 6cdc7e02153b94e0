"""Tests for technology constants."""

import dataclasses

from repro.hw.technology import DEFAULT_TECHNOLOGY


class TestEnergyHierarchy:
    def test_dram_most_expensive(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.dram_energy_per_byte_j > tech.l2_energy_per_byte_base_j
        assert tech.l2_energy_per_byte_base_j > tech.l1_energy_per_byte_base_j
        assert tech.l1_energy_per_byte_base_j > tech.reg_energy_per_byte_j

    def test_sram_energy_scales_with_capacity(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.l1_energy_per_byte(64 * 1024) > tech.l1_energy_per_byte(1024)
        assert tech.l2_energy_per_byte(10**6) > tech.l2_energy_per_byte(64 * 1024)

    def test_tiny_buffers_floor(self):
        """Energy doesn't vanish for pathologically small buffers."""
        tech = DEFAULT_TECHNOLOGY
        assert tech.l1_energy_per_byte(1) > 0

    def test_custom_technology(self):
        tech = dataclasses.replace(DEFAULT_TECHNOLOGY, mac_energy_j=1e-12)
        assert tech.mac_energy_j == 1e-12
        # other fields keep defaults
        assert tech.frequency_hz == DEFAULT_TECHNOLOGY.frequency_hz

    def test_frozen(self):
        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_TECHNOLOGY.mac_energy_j = 0.0
