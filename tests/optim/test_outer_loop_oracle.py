"""Each rewritten outer-loop path equals its pre-change oracle.

``tests/optim/outer_loop_oracle.py`` keeps them as they were: the
marginal-likelihood objective built from NumPy temporaries and
``cho_solve``, the sampler that built a config per pool row and factorized
the shared kernel a second time, and ``mutate`` clipping with ``np.clip``.
The properties here hold ``src/`` to them byte for byte — every
``(nll, grad)``, every error, every fit, every pool and the RNG state each
leaves — so the search they drive stays the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.spatial import edge_design_space
import repro.optim.gp as gp_module
from repro.optim.gp import GaussianProcess
from repro.optim.mobo import MOBOSampler

from tests.optim.forking import count_forks, forks_elsewhere
from tests.optim.outer_loop_oracle import (
    ReferenceGaussianProcess,
    ReferenceMOBOSampler,
    reference_mutate,
)

KERNELS = ("matern52", "rbf")
#: fit()'s L-BFGS-B box per parameter block: lengthscales, variance, noise
BOUNDS = ((np.log(1e-2), np.log(10.0)), (np.log(1e-3), np.log(50.0)), (np.log(1e-8), 0.0))


def _outcome(gp, *args):
    """``(nll, grad)`` as bytes, or the exception type and message."""
    try:
        nll, grad = gp._neg_log_marginal_and_grad(*args)
    except Exception as exc:  # compared with the oracle's, whatever it is
        return type(exc), str(exc)
    return float(nll).hex(), grad.dtype, grad.shape, grad.tobytes()


def _data(seed, n, d, duplicates, y_kind):
    """Ordinal-grid inputs like the design spaces', standardized targets."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 9, size=(n, d)) / 8.0
    if duplicates and n > 1:  # repeated rows: K singular without noise
        picks = rng.integers(0, n, size=min(duplicates, n - 1))
        x[1 : 1 + len(picks)] = x[picks]
    y = rng.standard_normal(n)
    if y_kind == "huge":  # finite data, non-finite NLL
        y *= 1e200
    elif y_kind == "nan":
        y[rng.integers(0, n)] = np.nan
    elif y_kind == "inf":
        y[rng.integers(0, n)] = np.inf
    return x, y


def _params(data, d):
    inside = [st.floats(low, high) for low, high in BOUNDS]
    outside = st.one_of(
        st.floats(-60.0, 60.0),
        st.sampled_from((-1000.0, -745.0, -40.0, 40.0, 710.0, 1000.0)),
    )
    blocks = [inside[0]] * d + [inside[1], inside[2]]
    if data.draw(st.booleans(), label="outside the bounds"):
        blocks = [st.one_of(block, outside) for block in blocks]
    return np.array([data.draw(block) for block in blocks])


@given(
    data=st.data(),
    kernel=st.sampled_from(KERNELS),
    n=st.integers(1, 200),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.sampled_from((0, 0, 1, 5, 50)),
    y_kind=st.sampled_from(("normal", "normal", "normal", "huge", "nan", "inf")),
    with_sq_diffs=st.booleans(),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow outside the bounds
def test_objective_matches_oracle(data, kernel, n, d, seed, duplicates, y_kind, with_sq_diffs):
    x, y = _data(seed, n, d, duplicates, y_kind)
    params = _params(data, d)
    args = [params, x, y]
    if with_sq_diffs:
        args.append((x[:, None, :] - x[None, :, :]) ** 2)
    expected = _outcome(ReferenceGaussianProcess(kernel), *args)
    assert _outcome(GaussianProcess(kernel), *args) == expected


@pytest.mark.parametrize("kernel", KERNELS)
def test_singular_and_non_finite_nll_paths(kernel):
    x = np.zeros((6, 2))  # every row the same: rank-one K
    y = np.arange(6.0)
    # variance e^40 against noise at its floor: Cholesky fails
    params = np.array([0.0, 0.0, 40.0, -1000.0])
    for data in ((x, y), (np.eye(6, 2), y * 1e200)):
        new = _outcome(GaussianProcess(kernel), params, *data)
        assert new == _outcome(ReferenceGaussianProcess(kernel), params, *data)
        assert new[0] == float(1e12).hex()
        assert new[3] == bytes(8 * 4)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_factor_or_target_raise_like_cho_solve(kernel):
    rng = np.random.default_rng(0)
    x, y = rng.random((8, 3)), rng.standard_normal(8)
    cases = [
        (np.zeros(5), x, np.where(np.arange(8) == 2, np.nan, y)),  # y
        (np.array([-1000.0, 0.0, 0.0, 0.0, 0.0]), x, y),  # 0 * inf in K
        (np.zeros(5), np.where(x > 0.9, np.nan, x), y),  # nan inputs
    ]
    for case in cases:
        expected = _outcome(ReferenceGaussianProcess(kernel), *case)
        assert expected == (ValueError, "array must not contain infs or NaNs")
        assert _outcome(GaussianProcess(kernel), *case) == expected


def test_potrs_error_raises_like_cho_solve(monkeypatch):
    class FailingLapack:
        @staticmethod
        def dpotrs(chol, b, lower, overwrite_b):
            return b, -2

    monkeypatch.setattr(gp_module, "lapack", FailingLapack)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError) as raised:
        GaussianProcess()._neg_log_marginal_and_grad(
            np.zeros(4), rng.random((5, 2)), rng.standard_normal(5)
        )
    # scipy.linalg.cho_solve's message for the same info
    assert str(raised.value) == "illegal value in 2th argument of internal potrs"


#: the helper path's training-set sizes: the fewest rows a fit optimizes,
#: MOBO's first fit, the inner workloads' last, and ``local_outer``'s
#: middle and last
HELPER_ROWS = (3, 8, 27, 64, 139)


@pytest.mark.parametrize(
    "cases,helper",
    [
        pytest.param([(kernel, n, d, seed)], False, id=f"{kernel}-{n}-{d}-{seed}")
        for kernel, n, d, seed in (
            ("matern52", 40, 6, 0),
            ("matern52", 139, 6, 1),
            ("rbf", 30, 3, 2),
            ("matern52", 9, 1, 3),
            ("rbf", 80, 3, 4),
        )
    ]
    + [
        pytest.param(
            [(kernel, n, 6, n) for kernel in KERNELS for n in HELPER_ROWS], True, id="fit-helper"
        )
    ],
)
def test_fit_matches_oracle(cases, helper, monkeypatch):
    """Each fit equals the oracle's, which keeps both starts in process
    (its objective is not the one the fit helper runs).

    ``fit-helper`` sends every second start to the fit helper and makes
    exactly one ``os.fork`` over its ten fits: one helper serves them all.
    """
    if helper and forks_elsewhere():
        return
    forks = count_forks(monkeypatch)
    for kernel, n, d, seed in cases:
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 9, size=(n, d)) / 8.0
        y = np.sin(3 * x[:, 0]) + x[:, -1] ** 2 + 0.1 * rng.standard_normal(n)
        new = GaussianProcess(kernel).fit(x, y, seed=seed)
        old = ReferenceGaussianProcess(kernel).fit(x, y, seed=seed)
        assert new.hyper.lengthscales.tobytes() == old.hyper.lengthscales.tobytes()
        assert new.hyper.variance.hex() == old.hyper.variance.hex()
        assert new.hyper.noise.hex() == old.hyper.noise.hex()
        assert new._chol.tobytes() == old._chol.tobytes()
        assert new._alpha.tobytes() == old._alpha.tobytes()
    if helper:
        assert forks() == 1
        assert gp_module._HELPER.alive()


# ------------------------------------------------------------------ the pool
def _recording(sampler):
    """Record each call's pool encoding and picks, and the row count."""
    seen = {"x_pool": [], "chosen": [], "rows": []}
    select, pool = sampler._select_vectorized, sampler._candidate_pool

    def select_and_record(factor, x_pool, y_train, slots):
        chosen = select(factor, x_pool, y_train, slots)
        seen["x_pool"].append(x_pool.tobytes())
        seen["chosen"].append(chosen)
        return chosen

    def pool_and_record(*args):
        result = pool(*args)
        seen["rows"].append(len(result[0]) if isinstance(result, tuple) else None)
        return result

    sampler._select_vectorized = select_and_record
    sampler._candidate_pool = pool_and_record
    return seen


@pytest.mark.parametrize(
    "seed,pool_size,incumbents,batch",
    [(0, 512, 4, 8), (7, 128, 6, 6), (1234, 16, 3, 8), (3, 4, 0, 8), (5, 64, 24, 16)],
)
def test_pool_matches_oracle(seed, pool_size, incumbents, batch):
    space = edge_design_space()
    rng = np.random.default_rng(seed)
    configs = [space.sample(rng) for _ in range(24)]
    objectives = rng.random((24, 3))
    new = MOBOSampler(space, 3, seed=seed, pool_size=pool_size)
    old = ReferenceMOBOSampler(space, 3, seed=seed, pool_size=pool_size)
    seen_new, seen_old = _recording(new), _recording(old)
    for _ in range(2):
        got = new.suggest_batch(configs, objectives, batch, incumbents=configs[:incumbents])
        want = old.suggest_batch(configs, objectives, batch, incumbents=configs[:incumbents])
        assert [space.config_key(c) for c in got] == [space.config_key(c) for c in want]
        assert all(type(c) is type(w) for c, w in zip(got, want))
        configs = configs + got
        objectives = np.vstack([objectives, rng.random((len(got), 3))])
    assert seen_new["x_pool"] == seen_old["x_pool"]
    assert seen_new["chosen"] == seen_old["chosen"]
    assert new.rng.bit_generator.state == old.rng.bit_generator.state
    if incumbents >= 6:  # a pick from the mutants builds no config
        assert any(
            index >= rows for rows, chosen in zip(seen_new["rows"], seen_new["chosen"])
            for index in chosen
        )


def test_encode_indices_equals_encode_batch():
    space = edge_design_space()
    rows = space.sample_indices(300, 4)
    configs = [space.config_from_indices(row) for row in rows]
    assert space.encode_indices(rows).tobytes() == space.encode_batch(configs).tobytes()
    assert space.encode_indices(rows[:0]).shape == (0, space.num_dimensions)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_moves=st.integers(1, 10),
    step=st.integers(1, 6),
    start=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_mutate_matches_clip(seed, num_moves, step, start):
    space = edge_design_space()
    config = space.sample(start)
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        new = space.mutate(config, new_rng, num_moves=num_moves, step=step)
        old = reference_mutate(space, config, old_rng, num_moves=num_moves, step=step)
        assert new == old
        config = new
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
