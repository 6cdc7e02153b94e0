"""Bit-exactness and correctness tests for the vectorized MOBO outer loop.

The structure-of-arrays rewrite of ``suggest_batch`` (shared Cholesky,
pooled posterior, matrix EI) must be *bit-identical* to the slot-by-slot
scalar path kept in ``outer_loop_oracle.py`` under a fixed seed — not
approximately equal.  These tests pin
that contract, plus the fast paths it rests on: the vectorized ParEGO
kernel, the reusable Cholesky factor, the analytic marginal-likelihood
gradient, and the SoA successive-halving bookkeeping.
"""

import numpy as np
import pytest

from repro.errors import SurrogateError
from repro.hw.spatial import edge_design_space
from repro.optim.gp import GaussianProcess
from repro.optim.mobo import MOBOSampler
from repro.optim.scalarize import (
    DEFAULT_RHO,
    parego_scalar,
    parego_scalars,
    uniform_weights,
)
from repro.optim.sh import relative_auc_scores, select_survivors_soa, terminal_values

from tests.optim.outer_loop_oracle import (
    ReferenceGaussianProcess,
    ReferenceMOBOSampler,
    factorize,
    relative_auc_score,
    select_survivors_detailed,
    terminal_value,
)


@pytest.fixture(scope="module")
def space():
    return edge_design_space()


def _parego_scalar_loop(objectives, weights, rho):
    """The pre-vectorization scalar augmented-Tchebycheff formula (BLAS ``ddot``)."""
    y = np.asarray(objectives, dtype=float)
    w = np.asarray(weights, dtype=float)
    if y.shape != w.shape:
        raise ValueError(f"objectives {y.shape} vs weights {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"weights must sum to 1, got {total}")
    if not np.all(np.isfinite(y)):
        return float("inf")
    return float(np.max(w * y) + rho * float(y @ w))


def parego_scalars_loop(objective_matrix, weights, rho=DEFAULT_RHO):
    """The per-row Python loop ``parego_scalars`` replaced, kept as its reference."""
    matrix = np.asarray(objective_matrix, dtype=float)
    return np.array([_parego_scalar_loop(row, weights, rho) for row in matrix])


def _training_set(space, num=32, num_objectives=3, seed=0):
    rng = np.random.default_rng(seed)
    configs = [space.sample(rng) for _ in range(num)]
    objectives = rng.random((num, num_objectives))
    return configs, objectives


class TestParegoVectorizedParity:
    """The einsum kernel must reproduce the scalar formula bit for bit."""

    def test_bit_exact_vs_scalar_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(2, 6))
            matrix = rng.normal(0, 2, (n, m))
            w = rng.dirichlet(np.ones(m))
            batched = parego_scalars(matrix, w)
            single = np.array([parego_scalar(row, w) for row in matrix])
            assert np.array_equal(batched, single)  # exact, not approx

    def test_bit_exact_with_nan_and_inf_rows(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((10, 3))
        matrix[2, 1] = np.inf
        matrix[5, 0] = np.nan
        matrix[7, 2] = -np.inf
        w = uniform_weights(3)
        batched = parego_scalars(matrix, w)
        assert batched[2] == np.inf
        assert batched[5] == np.inf
        assert batched[7] == np.inf
        finite_rows = [i for i in range(10) if i not in (2, 5, 7)]
        for i in finite_rows:
            assert batched[i] == parego_scalar(matrix[i], w)

    def test_row_value_independent_of_batch(self):
        """A row scalarizes identically alone or inside a larger matrix."""
        rng = np.random.default_rng(2)
        matrix = rng.random((17, 4))
        w = rng.dirichlet(np.ones(4))
        full = parego_scalars(matrix, w)
        for i in (0, 8, 16):
            assert full[i] == parego_scalars(matrix[i : i + 1], w)[0]

    def test_matches_legacy_loop_approx(self):
        """The old ddot formula agrees to float roundoff (not bit-exact)."""
        rng = np.random.default_rng(3)
        matrix = rng.random((25, 4))
        w = rng.dirichlet(np.ones(4))
        np.testing.assert_allclose(
            parego_scalars(matrix, w), parego_scalars_loop(matrix, w), rtol=1e-12
        )

    def test_empty_matrix(self):
        assert parego_scalars(np.zeros((0, 3)), uniform_weights(3)).shape == (0,)

    def test_validation_preserved(self):
        with pytest.raises(ValueError):
            parego_scalars(np.ones((2, 3)), [0.5, 0.5])  # shape mismatch
        with pytest.raises(ValueError):
            parego_scalars(np.ones((2, 2)), [1.5, -0.5])  # negative weight
        with pytest.raises(ValueError):
            parego_scalars(np.ones((2, 2)), [0.6, 0.6])  # sum != 1
        with pytest.raises(ValueError):
            parego_scalar(np.ones((2, 2)), [0.5, 0.5])  # matrix to scalar API


class TestGPFastPaths:
    def _data(self, n=30, d=5, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (n, d))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.05 * rng.standard_normal(n)
        return x, y

    @pytest.mark.parametrize("kernel", ["matern52", "rbf"])
    def test_analytic_gradient_matches_finite_differences(self, kernel):
        x, y = self._data()
        y = (y - y.mean()) / y.std()
        gp = GaussianProcess(kernel)
        rng = np.random.default_rng(1)
        params = rng.normal(0, 0.5, x.shape[1] + 2)
        _, grad = gp._neg_log_marginal_and_grad(params, x, y)
        eps = 1e-6
        for i in range(len(params)):
            up, down = params.copy(), params.copy()
            up[i] += eps
            down[i] -= eps
            numeric = (
                gp._neg_log_marginal_and_grad(up, x, y)[0]
                - gp._neg_log_marginal_and_grad(down, x, y)[0]
            ) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_gradient_fit_matches_fd_fit_quality(self):
        """Analytic-gradient fitting finds an optimum at least as good."""
        x, y = self._data(n=40)
        y_std = (y - y.mean()) / y.std()
        grad_gp = GaussianProcess().fit(x, y, seed=0)
        fd_gp = ReferenceGaussianProcess().fit(x, y, seed=0, use_gradient=False)

        def nll(gp):
            params = np.concatenate(
                [
                    np.log(gp.hyper.lengthscales),
                    [np.log(gp.hyper.variance)],
                    [np.log(max(gp.hyper.noise - gp.noise_floor, 1e-12))],
                ]
            )
            return ReferenceGaussianProcess()._neg_log_marginal(params, x, y_std)

        assert nll(grad_gp) <= nll(fd_gp) + 1e-3

    def test_factor_fit_bit_identical_to_hyper_fit(self):
        """fit(factor=...) must equal fit(hyper=...) on every prediction."""
        x, y = self._data()
        base = GaussianProcess().fit(x, y, seed=0)
        factor = base.cholesky_factor()

        rng = np.random.default_rng(7)
        y2 = rng.random(len(y))  # a different target, same X and hyper
        via_hyper = GaussianProcess().fit(x, y2, hyper=base.hyper)
        via_factor = GaussianProcess().fit(x, y2, factor=factor)

        x_query = rng.uniform(0, 1, (50, x.shape[1]))
        mean_h, std_h = via_hyper.predict(x_query)
        mean_f, std_f = via_factor.predict(x_query)
        assert np.array_equal(mean_h, mean_f)
        assert np.array_equal(std_h, std_f)

    def test_factorize_matches_finalize_chol(self):
        x, y = self._data()
        gp = GaussianProcess().fit(x, y, seed=0)
        factor = factorize("matern52", x, gp.hyper)
        assert np.array_equal(factor.chol, gp.cholesky_factor().chol)


class TestSuggestBatchParity:
    """The sampler and the oracle's slot-by-slot path must return identical batches."""

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_bit_identical_batches(self, space, seed):
        configs, objectives = _training_set(space, seed=seed)
        incumbents = configs[:3]
        kwargs = dict(seed=seed, pool_size=128, min_observations=8)
        vec = MOBOSampler(space, 3, **kwargs)
        ref = ReferenceMOBOSampler(space, 3, vectorized=False, **kwargs)
        for _ in range(2):  # two rounds: RNG streams must stay in lockstep
            batch_vec = vec.suggest_batch(
                configs, objectives, 6, incumbents=incumbents
            )
            batch_ref = ref.suggest_batch(
                configs, objectives, 6, incumbents=incumbents
            )
            assert [space.config_key(c) for c in batch_vec] == [
                space.config_key(c) for c in batch_ref
            ]
            assert len(batch_vec) == 6

    def test_shared_hyper_identical(self, space):
        configs, objectives = _training_set(space)
        vec = MOBOSampler(space, 3, seed=5, pool_size=64)
        ref = ReferenceMOBOSampler(space, 3, seed=5, pool_size=64, vectorized=False)
        vec.suggest_batch(configs, objectives, 4)
        ref.suggest_batch(configs, objectives, 4)
        assert np.array_equal(
            vec._shared_hyper.lengthscales, ref._shared_hyper.lengthscales
        )
        assert vec._shared_hyper.variance == ref._shared_hyper.variance
        assert vec._shared_hyper.noise == ref._shared_hyper.noise

    def test_fixed_seed_determinism(self, space):
        configs, objectives = _training_set(space)
        batches = [
            MOBOSampler(space, 3, seed=99, pool_size=64).suggest_batch(
                configs, objectives, 5
            )
            for _ in range(2)
        ]
        assert [space.config_key(c) for c in batches[0]] == [
            space.config_key(c) for c in batches[1]
        ]

    def test_random_fallback_unaffected_by_flag(self, space):
        configs, objectives = _training_set(space, num=4)
        vec = MOBOSampler(space, 3, seed=3)
        ref = ReferenceMOBOSampler(space, 3, seed=3, vectorized=False)
        batch_vec = vec.suggest_batch(configs, objectives, 5)
        batch_ref = ref.suggest_batch(configs, objectives, 5)
        assert [space.config_key(c) for c in batch_vec] == [
            space.config_key(c) for c in batch_ref
        ]

    def test_non_finite_objectives_raise(self, space):
        configs, objectives = _training_set(space)
        objectives[3, 1] = np.inf
        for sampler in (
            MOBOSampler(space, 3, seed=1, pool_size=32),
            ReferenceMOBOSampler(space, 3, seed=1, pool_size=32, vectorized=False),
        ):
            with pytest.raises(SurrogateError):
                sampler.suggest_batch(configs, objectives, 4)


class TestMshSoA:
    def _curves(self, seed=0, count=25):
        rng = np.random.default_rng(seed)
        curves = []
        for i in range(count):
            length = int(rng.integers(0, 60))
            curve = np.minimum.accumulate(rng.random(length) + 0.05)
            if length and i % 5 == 0:
                curve[: min(3, length)] = np.inf
            curves.append(curve)
        return curves

    def test_terminal_values_match_scalar(self):
        curves = self._curves()
        batched = terminal_values(curves)
        for value, curve in zip(batched, curves):
            assert value == terminal_value(curve)  # exact (incl. inf)

    def test_relative_auc_scores_match_scalar(self):
        curves = self._curves()
        batched = relative_auc_scores(curves)
        expected = np.array([relative_auc_score(c) for c in curves])
        np.testing.assert_allclose(batched, expected, rtol=1e-12, atol=1e-15)

    def test_auc_edge_cases(self):
        curves = [
            np.array([]),  # empty -> 0
            np.array([1.0]),  # single point -> 0
            np.array([np.inf, np.inf]),  # never feasible -> 0
            np.array([np.inf, 2.0, 1.0]),  # warmup then progress
            np.array([-1.0, -2.0, -3.0]),  # negative terminal: raw AUC
        ]
        batched = relative_auc_scores(curves)
        expected = np.array([relative_auc_score(c) for c in curves])
        np.testing.assert_allclose(batched, expected, rtol=1e-12, atol=1e-15)
        assert batched[0] == batched[1] == batched[2] == 0.0

    def test_select_survivors_soa_matches_dict_path(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            ids = list(range(n))
            tvs = np.round(rng.random(n), 2)  # rounding forces score ties
            aucs = np.round(rng.random(n), 2)
            keep = int(rng.integers(0, n))
            promotions = int(rng.integers(0, keep + 1))
            via_dict = select_survivors_detailed(
                ids, dict(enumerate(tvs)), dict(enumerate(aucs)), keep, promotions
            )
            via_soa = select_survivors_soa(ids, tvs, aucs, keep, promotions)
            assert via_soa == via_dict

    def test_select_survivors_soa_validation(self):
        with pytest.raises(Exception):
            select_survivors_soa([0, 1], np.zeros(2), np.zeros(2), -1, 0)
        with pytest.raises(Exception):
            select_survivors_soa([0, 1], np.zeros(2), np.zeros(2), 1, 2)

    def test_keep_all_shortcut(self):
        survivors, promoted = select_survivors_soa(
            [3, 1, 2], np.array([0.1, 0.2, 0.3]), np.zeros(3), 5, 1
        )
        assert survivors == [3, 1, 2] and promoted == []


class TestDesignSpaceBatchOps:
    def test_encode_batch_bit_identical(self, space):
        rng = np.random.default_rng(0)
        configs = [space.sample(rng) for _ in range(20)]
        stacked = np.vstack([space.encode(c) for c in configs])
        assert np.array_equal(space.encode_batch(configs), stacked)

    def test_encode_batch_empty(self, space):
        assert space.encode_batch([]).shape == (0, space.num_dimensions)

    def test_sample_indices_stream_identical_to_sample(self, space):
        """Batched index draws consume the RNG exactly like scalar draws."""
        seq_rng = np.random.default_rng(42)
        expected = [space.config_key(space.sample(seq_rng)) for _ in range(50)]
        batch_rng = np.random.default_rng(42)
        rows = space.sample_indices(50, batch_rng)
        got = [space.key_from_indices(row) for row in rows]
        assert got == expected
        # and the generators end in the same state
        assert (
            seq_rng.bit_generator.state == batch_rng.bit_generator.state
        )

    def test_config_from_indices_round_trip(self, space):
        rows = space.sample_indices(10, 3)
        for row in rows:
            config = space.config_from_indices(row)
            assert space.config_key(config) == space.key_from_indices(row)
