"""Golden outer loop: what ``MOBOSampler.suggest_batch`` returns, pinned
across commits.

``test_vectorized_outer_loop.py`` compares two paths of one commit, so a
change that moves both alike passes it.  These digests were recorded at
commit 38d8a7c (before the marginal-likelihood objective worked in place
and the candidate pool kept its random part as index rows) and pin, per
seed on the edge space over two rounds of a growing training set: the
chosen config keys, the shared GP hyperparameters as ``float.hex`` and
the sampler's final ``bit_generator.state``.  A mismatch means the outer
loop's search moved (every ``sim_cost_h`` and ``front_hypervolume`` of
``local_outer`` moves with it); ``python tests/optim/test_golden_outer_loop.py``
re-prints the table, to be re-recorded only for a change meant to alter
the search.  The hyperparameters come out of LAPACK, so a BLAS build that
rounds differently from the recording one (NumPy 2.4.6 / SciPy 1.17.1
wheels' OpenBLAS, x86-64) can move them too.
"""

import hashlib

import numpy as np
import pytest

from repro.hw import edge_design_space
from repro.optim.mobo import MOBOSampler

SEEDS = (0, 7, 1234)
ROUNDS = 2
BATCH = 8

GOLDEN = {
    0: "28e9c077066bed3e098efc8bc3555bace1fa373127f700306b126c46a3e289e4",
    7: "b1be42a43f811407671f41023d0a78f61be9331f51416c8dd3dbea104ae086c5",
    1234: "9c0a059c52dcdcd252d52af3f3539bb0fd90a1cb967c8ed59d7f7b06ed85ef7d",
}


def outer_loop_record(seed: int):
    """Two ``suggest_batch`` rounds; per round the chosen keys and the
    shared hyperparameters' hex, then the final generator state."""
    space = edge_design_space()
    rng = np.random.default_rng(seed + 100)
    configs = [space.sample(rng) for _ in range(24)]
    objectives = rng.random((len(configs), 3))
    sampler = MOBOSampler(space, 3, seed=seed)
    rounds = []
    for _ in range(ROUNDS):
        batch = sampler.suggest_batch(configs, objectives, BATCH, incumbents=configs[:4])
        hyper = sampler._shared_hyper
        rounds.append(
            (
                [space.config_key(config) for config in batch],
                [float(v).hex() for v in hyper.lengthscales],
                float(hyper.variance).hex(),
                float(hyper.noise).hex(),
            )
        )
        configs = configs + batch
        objectives = np.vstack([objectives, rng.random((len(batch), 3))])
    return rounds, sampler.rng.bit_generator.state


def record_digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_outer_loop_matches_golden(seed):
    rounds, state = outer_loop_record(seed)
    assert all(len(keys) == BATCH for keys, *_ in rounds)
    assert record_digest((rounds, state)) == GOLDEN[seed]


if __name__ == "__main__":
    for seed in SEEDS:
        print(f"    {seed}: {record_digest(outer_loop_record(seed))!r},")
