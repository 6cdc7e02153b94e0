"""Golden search histories: the cross-commit half of the parity contract.

``test_batch_search.py`` compares ``batch_size`` 1 against 8 *within one
commit*, so a change that shifts both trajectories equally passes it.
These digests were recorded at commit 27f80a2 (before the per-step
bookkeeping of the search loop was made incremental) and pin, for every
tool that draws its layer from the incumbent latency shares, the exact
history floats, the final RNG state and the incumbent mapping.  The
``fusion`` rows (the Ascend-like tool over ``AscendMappingSpace``) were
recorded at commit 7a22cfc, before its ``mutate`` moved onto the shared
tile-grid step.  Run this file first after touching anything under
``repro.mapping`` (``ascend_mapping.py`` included).
"""

import hashlib
import struct

import pytest

from repro.camodel.engine import AscendCAEngine
from repro.costmodel.engine import MaestroEngine
from repro.hw.ascend import default_ascend_config
from repro.hw.spatial import edge_design_space
from repro.learned.oneloop import OneLoopMappingSearch
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.fusion import DepthFirstFusionSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.workloads.registry import get_network

SEED = 11
BUDGETS = (90, 37)  # two rounds, like MSH resuming a promoted trial

TOOLS = {
    "flextensor": FlexTensorSearch,
    "gamma": GammaSearch,
    "random": RandomMappingSearch,
    # MaestroEngine carries no learned model -> the mutation fallback
    "oneloop": OneLoopMappingSearch,
    # the one tool on the Ascend-like platform (its own space and engine)
    "fusion": DepthFirstFusionSearch,
}

GOLDEN = {
    ("flextensor", "latency"): (
        "0a736713dec830de4bf4d99b2fe844515620122ff9321e14d9717dd65a288d8a"
    ),
    ("gamma", "latency"): (
        "5ce47035b950239de98ed8564f28c9a5938e0ec9a086df8ed1463418f530bf11"
    ),
    ("random", "latency"): (
        "3a609da312edd866d4d10471bfeaba40476ba795aadcec5de9de4f35538df59b"
    ),
    ("oneloop", "latency"): (
        "eb40570149bd584288fb5af2da4c8d65cf7fbb4ae99685605709301639c0acfd"
    ),
    ("fusion", "latency"): (
        "e7290c6dd6f5d1603e12d7b31d9596795801e8f37c50b3275d53909e0f19ebbf"
    ),
}


def search_digest(search) -> str:
    """sha256 over history floats, final RNG state and incumbent keys."""
    digest = hashlib.sha256()
    for point in search.history:
        digest.update(
            struct.pack(
                "<q6d",
                point.step,
                point.trial_objective,
                point.trial_latency_s,
                point.trial_power_w,
                point.best_objective,
                point.best_latency_s,
                point.best_power_w,
            )
        )
    digest.update(repr(search.rng.bit_generator.state).encode())
    for layer_name in search.layer_names:
        digest.update(repr((layer_name, search.best_mapping[layer_name].key())).encode())
    return digest.hexdigest()


def run_search(tool: str, batch_size: int = 1):
    network = get_network("mobilenetv2")
    if tool == "fusion":
        hw, engine = default_ascend_config(), AscendCAEngine(network)
    else:
        hw, engine = edge_design_space().sample(0), MaestroEngine(network)
    search = TOOLS[tool](
        network,
        hw,
        engine,
        seed=SEED,
        batch_size=batch_size,
    )
    for budget in BUDGETS:
        search.run(budget)
    return search


@pytest.mark.parametrize("tool,objective", sorted(GOLDEN))
def test_history_matches_golden(tool, objective):
    search = run_search(tool)
    assert len(search.history) == sum(BUDGETS)
    assert search_digest(search) == GOLDEN[(tool, objective)]


@pytest.mark.parametrize("tool", ["flextensor", "gamma", "random"])
def test_batched_history_matches_golden(tool):
    """Width 8 lands on the same pinned trajectory; only the random tool,
    whose proposals ignore results, drafts."""
    search = run_search(tool, batch_size=8)
    assert (search.num_speculative_evals > 0) == (tool == "random")
    assert search_digest(search) == GOLDEN[(tool, "latency")]


if __name__ == "__main__":  # prints the table above, for re-recording
    for key in sorted(GOLDEN):
        print(f"    {key!r}: {search_digest(run_search(key[0]))!r},")
