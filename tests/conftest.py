"""Shared fixtures: tiny workloads and platform objects for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space
from repro.workloads.layers import Conv2D, Gemm
from repro.workloads.network import Network


@pytest.fixture(scope="session")
def tiny_network() -> Network:
    """A 3-layer workload small enough for exhaustive-ish search in tests."""
    return Network(
        name="tinynet",
        layers=(
            Conv2D(
                name="conv",
                in_channels=8,
                out_channels=16,
                in_h=16,
                in_w=16,
                kernel=3,
            ),
            Gemm(name="gemm", m=32, n=64, k=48, count=2),
            Conv2D(
                name="pw",
                in_channels=16,
                out_channels=8,
                in_h=16,
                in_w=16,
                kernel=1,
            ),
        ),
        family="test",
        year=2023,
    )


@pytest.fixture()
def edge_space():
    return edge_design_space()


@pytest.fixture()
def sample_hw(edge_space):
    """A mid-size edge config that comfortably fits tiny_network tiles."""
    return edge_space.to_config(
        {
            "pe_x": 8,
            "pe_y": 8,
            "l1_bytes": 4096,
            "l2_kb": 256,
            "noc_bw": 64,
            "dataflow": "ws",
        }
    )


@pytest.fixture()
def tiny_engine(tiny_network):
    return MaestroEngine(tiny_network)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
