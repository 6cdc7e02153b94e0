"""The shared weighted layer pick draws exactly like ``Generator.choice``.

``AnytimeMappingSearch._pick_weighted_layer`` inlines what
``rng.choice(n, p=w / w.sum())`` computes (CDF, one uniform,
``searchsorted``) so that the CDF can be cached between folds.  The
property pinned here is the one the byte-parity of every search rests on:
same chosen index *and* same post-draw RNG state, for any weight vector;
and degenerate weights still reach each tool's own fallback, consuming the
RNG the fallback always consumed.
"""

import dataclasses

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.learned.oneloop import OneLoopMappingSearch
from repro.mapping import flextensor
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.workloads.layers import Gemm
from repro.workloads.network import Network


def _network(num_layers: int) -> Network:
    return Network(
        name=f"chain{num_layers}",
        layers=tuple(
            Gemm(name=f"g{i}", m=16 + 8 * (i % 3), n=32, k=24, count=1 + i % 2)
            for i in range(num_layers)
        ),
        family="test",
    )


class _InjectedWeights(RandomMappingSearch):
    """A search whose pick weights are whatever the test sets."""

    weights = None

    def _layer_weight(self, layer_name):
        if self.weights is None:  # incumbent seeding in the constructor
            return super()._layer_weight(layer_name)
        return float(self.weights[self._layer_index[layer_name]])

    def set_weights(self, weights):
        self.weights = weights
        self._stale_weights.update(self.layer_names)


def _weight_vectors(rng, n):
    yield rng.random(n) + 1e-3
    yield rng.lognormal(0.0, 4.0, n)  # several decades apart
    dominant = np.full(n, 1e-6)
    dominant[int(rng.integers(0, n))] = 1e6
    yield dominant
    tiny = np.full(n, 1e-12)
    tiny[0] = 3e-12
    yield tiny
    yield np.full(n, 2.5)


@pytest.mark.parametrize("num_layers", [1, 2, 7, 35])
def test_pick_equals_generator_choice(num_layers, sample_hw):
    network = _network(num_layers)
    search = _InjectedWeights(network, sample_hw, MaestroEngine(network), seed=0)
    source = np.random.default_rng(2023)
    for case, weights in enumerate(
        vector for _ in range(6) for vector in _weight_vectors(source, num_layers)
    ):
        search.set_weights(weights)
        search.rng = np.random.default_rng(case)
        reference = np.random.default_rng(case)
        probabilities = weights / weights.sum()
        for _ in range(25):  # the cached CDF serves every draw until a fold
            expected = int(reference.choice(num_layers, p=probabilities))
            assert search._pick_weighted_layer() == search.layer_names[expected]
            assert search.rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "weights",
    [
        [1.0, float("nan"), 1.0],
        [1.0, float("inf"), 1.0],
        [0.0, 0.0, 0.0],
    ],
)
def test_degenerate_weights_return_none_without_consuming_rng(weights, sample_hw):
    network = _network(3)
    search = _InjectedWeights(network, sample_hw, MaestroEngine(network), seed=0)
    search.set_weights(np.array(weights))
    before = search.rng.bit_generator.state
    assert search._pick_weighted_layer() is None
    assert search._pick_weighted_layer() is None  # cached verdict, same answer
    assert search.rng.bit_generator.state == before
    # and the pick recovers once the weights do
    search.set_weights(np.array([1.0, 2.0, 3.0]))
    assert search._pick_weighted_layer() in search.layer_names


def _make_latency_infinite(search):
    name = search.layer_names[1]
    search._set_incumbent(
        name,
        search.best_layer_mapping[name],
        dataclasses.replace(search.best_layer_result[name], latency_s=float("inf")),
    )


def _poison_flextensor(credit):
    def poison(search):
        for name in search.layer_names:
            search._credit[name] = credit
        search._stale_weights.update(search.layer_names)

    return poison


@pytest.mark.parametrize(
    "tool_cls,constants,poison",
    [
        (FlexTensorSearch, {"EPSILON": 0.0}, _poison_flextensor(float("nan"))),
        (FlexTensorSearch, {"EPSILON": 0.0}, _poison_flextensor(0.0)),
        (FlexTensorSearch, {"EPSILON": 0.0}, _make_latency_infinite),
        (OneLoopMappingSearch, {}, _make_latency_infinite),
    ],
    # the ids the cases had when ``constants`` were constructor arguments
    ids=["FlexTensorSearch-kwargs0-poison", "FlexTensorSearch-kwargs1-poison",
         "FlexTensorSearch-kwargs2-_make_latency_infinite",
         "OneLoopMappingSearch-kwargs3-_make_latency_infinite"],
)
def test_uniform_fallback_consumes_the_same_rng(
    tool_cls, constants, poison, sample_hw, monkeypatch
):
    """FlexTensor / OneLoop: degenerate weights -> one uniform ``integers``."""
    for name, value in constants.items():
        monkeypatch.setattr(flextensor, name, value)
    network = _network(5)
    search = tool_cls(network, sample_hw, MaestroEngine(network), seed=3)
    poison(search)
    search.rng = np.random.default_rng(99)
    reference = np.random.default_rng(99)
    for _ in range(10):
        if tool_cls is FlexTensorSearch:
            reference.random()  # the epsilon-greedy coin comes first
        expected = search.layer_names[int(reference.integers(0, 5))]
        assert search._pick_layer() == expected
        assert search.rng.bit_generator.state == reference.bit_generator.state


def test_gamma_fallback_is_round_robin_without_rng(sample_hw):
    network = _network(4)
    search = GammaSearch(network, sample_hw, MaestroEngine(network), seed=3)
    _make_latency_infinite(search)
    before = search.rng.bit_generator.state
    picked = [search._pick_layer() for _ in range(6)]
    assert picked == ["g1", "g2", "g3", "g0", "g1", "g2"]
    assert search.rng.bit_generator.state == before
