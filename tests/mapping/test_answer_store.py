"""A search never pays twice for one answer.

Every result the engine gives a search — incumbent seeds, shrink steps,
folded steps, drafts — goes into the search's answer store
(``AnytimeMappingSearch._bought``) under the layer's twin key, the first
layer of its GEMM shape (``Network.twin_keys``), and a candidate proposed
again, for its layer or a twin, is folded from there.  So no search sends
one ``(twin key, mapping)`` twice, the queries a trial is charged are
exactly the answers its search stores — together, every query the engine
counted — and the trial's PPA, composed from its incumbents, is what one
engine call over the incumbents' mappings composes to, answer for answer
— on every tool at every width, alone or in a lockstep round
(mobilenetv2 has six twin pairs).  A learned screen's placeholder is no
answer: it is folded, never stored.
"""

import dataclasses

import numpy as np
import pytest

from repro.camodel.engine import AscendCAEngine
from repro.core.evaluation import SEARCH_TOOLS, SWSearchTrial, advance_lockstep
from repro.costmodel.engine import MaestroEngine
from repro.hw.ascend import default_ascend_config
from repro.hw.spatial import edge_design_space
from repro.learned.screen import ScreeningPPAEngine
from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import SCREENED_REASON
from repro.workloads.layers import Gemm
from repro.workloads.network import Network
from repro.workloads.registry import get_network
from tests.costmodel.network_ppa import network_ppa

TOOLS = sorted([*SEARCH_TOOLS, "oneloop"])
WIDTHS = [1, 2, 8, 64]


def _recording(engine_cls):
    """``engine_cls`` that records every ``(twin key, mapping key)`` sent to
    it, per hardware object (every query path ends in ``evaluate_groups``)."""

    class Recording(engine_cls):
        def evaluate_groups(self, groups):
            groups = [(hw, list(items)) for hw, items in groups]
            twin_keys = self.network.twin_keys
            for hw, items in groups:
                self.sent.setdefault(id(hw), []).extend(
                    (twin_keys[layer_name], mapping.key())
                    for mapping, layer_name in items
                )
            return super().evaluate_groups(groups)

    return Recording


def _platform(tool):
    network = get_network("mobilenetv2")
    assert len(set(network.twin_keys.values())) == len(network.layers) - 6
    if tool == "fusion":
        engine = _recording(AscendCAEngine)(network)
        configs = [default_ascend_config(), default_ascend_config()]
    else:
        engine = _recording(MaestroEngine)(network)
        space = edge_design_space()
        configs = [space.sample(0), space.sample(1)]
    engine.sent = {}
    return network, engine, configs


def _assert_paid_once(engine, trials):
    for trial in trials:
        sent = engine.sent[id(trial.hw)]
        assert len(sent) == len(set(sent)), "a search asked twice"
        assert trial.queries_spent == len(sent) == len(trial.search._bought)
        assert trial.search._unused_drafts.keys() <= trial.search._bought.keys()
    assert engine.num_queries == sum(trial.queries_spent for trial in trials)
    # one engine call over the incumbents' mappings returns the incumbents'
    # results, and composes to the trial's PPA field for field
    for trial in trials:
        ppa = network_ppa(engine, trial.hw, trial.search.best_mapping)
        assert ppa.layer_results == trial.search.best_layer_result
        for field in dataclasses.fields(ppa):
            assert getattr(trial.best_ppa, field.name) == getattr(ppa, field.name)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("tool", TOOLS)
def test_no_search_asks_twice(tool, width):
    """Alone, over two ``run`` rounds like a promoted MSH trial."""
    network, engine, configs = _platform(tool)
    trial = SWSearchTrial(
        configs[0], network, engine, tool=tool, seed=11, batch_size=width
    )
    for budget in (90, 37):
        trial.run(budget)
    assert trial.spent_budget == 127
    _assert_paid_once(engine, [trial])


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("tool", TOOLS)
def test_no_search_asks_twice_in_a_lockstep_round(tool, width):
    """Two trials of one round share each engine call, then run alone."""
    network, engine, configs = _platform(tool)
    trials = [
        SWSearchTrial(hw, network, engine, tool=tool, seed=index, batch_size=width)
        for index, hw in enumerate(configs)
    ]
    advance_lockstep([(trial, 60) for trial in trials], engine)
    for trial in trials:
        trial.run(30)
    _assert_paid_once(engine, trials)


# ------------------------------------------------------------ screened route
class _RankByPosition:
    """A learned model stand-in: ranks a group in request order."""

    def predict_objective(self, features, objective):
        count = len(features)
        return np.arange(count, dtype=float), np.zeros(count)


class _ScriptedSearch(AnytimeMappingSearch):
    """Proposes ``SCRIPT`` on the one layer, in order.  Drafting restores
    the cursor, so the script is speculation-safe."""

    name = "scripted"
    proposals_ignore_results = True

    def __init__(self, *args, **kwargs):
        self._cursor = 0
        super().__init__(*args, **kwargs)

    def _propose(self):
        mapping = SCRIPT[self._cursor]
        self._cursor += 1
        return self.layer_names[0], mapping

    def _draft_ahead(self, key, depth):
        cursor = self._cursor
        try:
            return super()._draft_ahead(key, depth)
        finally:
            self._cursor = cursor


_A, _B, _C, _D, _E, _F, _G = (
    GemmMapping(4, 8, 8),
    GemmMapping(4, 8, 16),
    GemmMapping(4, 16, 8),
    GemmMapping(8, 4, 8),
    GemmMapping(8, 4, 16),
    GemmMapping(8, 8, 4),
    GemmMapping(16, 4, 4),
)
#: step 1 asks for A with drafts B, C, D: the screen keeps three and drops
#: D.  Steps 2-4 fold the drafts, D's placeholder included.  Step 5
#: proposes D again: it asks for D with drafts E, F, G, and the screen's
#: second group is an audit (``audit_every=2``), evaluated whole.
SCRIPT = (_A, _B, _C, _D, _D, _E, _F, _G)


def test_a_placeholder_is_folded_never_stored(sample_hw):
    network = Network(
        name="one", layers=(Gemm(name="g", m=32, n=64, k=48),), family="test"
    )
    inner = MaestroEngine(network)
    screen = ScreeningPPAEngine(
        inner, model=_RankByPosition(), topk=3, escalate_fraction=0.0,
        min_batch=4, infeasible_penalty=0.0, audit_every=2,
    )
    search = _ScriptedSearch(network, sample_hw, screen, seed=0, batch_size=4)
    seeded = dict(search._bought)
    assert not seeded.keys() & {("g", mapping.key()) for mapping in SCRIPT}
    folds = []
    fold_result = search._fold_result

    def recording_fold(layer_name, candidate, result):
        folds.append((candidate, result))
        fold_result(layer_name, candidate, result)

    search._fold_result = recording_fold
    search.run(len(SCRIPT))

    stats = screen.screen_stats()
    assert (stats["batches_screened"], stats["audit_batches"]) == (2, 1)
    assert stats["skipped"] == 1  # D, in the first group
    assert [candidate for candidate, _ in folds] == list(SCRIPT)
    assert folds[3][1].infeasible_reason == SCREENED_REASON
    # re-proposed into the audited call: the analytical result is folded
    analytical = MaestroEngine(network).evaluate_layer(sample_hw, _D, "g")
    assert folds[4][1] == analytical
    assert search.history[4].trial_latency_s < np.inf
    # nothing in the store is a placeholder, and it holds what the engine
    # counted: what a trial over this search is charged
    assert all(
        result.infeasible_reason != SCREENED_REASON
        for result in search._bought.values()
    )
    assert search._bought[("g", _D.key())] == analytical
    assert search.num_answers == inner.num_queries == len(seeded) + 7
