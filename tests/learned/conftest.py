"""Shared learned-subsystem fixtures: a layer, mappings and PPA labels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.learned.features import featurize_batch
from repro.mapping.gemm_mapping import GemmMappingSpace


@pytest.fixture()
def engine(tiny_network):
    return MaestroEngine(tiny_network)


@pytest.fixture()
def layer_and_shape(engine):
    layer_name = next(iter(engine.layer_shapes))
    shape, _count = engine.layer_shapes[layer_name]
    return layer_name, shape


@pytest.fixture()
def mapping_batch(layer_and_shape):
    _layer, shape = layer_and_shape
    space = GemmMappingSpace(shape)
    rng = np.random.default_rng(7)
    return [space.sample(rng) for _ in range(40)]


@pytest.fixture()
def labelled_batch(engine, sample_hw, layer_and_shape, mapping_batch):
    """(features, latency, energy, feasible) from real analytical PPA."""
    layer_name, shape = layer_and_shape
    results = [
        engine.evaluate_layer(sample_hw, mapping, layer_name)
        for mapping in mapping_batch
    ]
    x = featurize_batch(sample_hw, mapping_batch, shape)
    return (
        x,
        np.array([r.latency_s for r in results]),
        np.array([r.energy_j for r in results]),
        np.array([r.feasible for r in results]),
    )
