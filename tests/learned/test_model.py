"""LearnedCostModel: fit, predict, gradients, serialization, guards."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, EvaluationError
from repro.learned.features import FEATURE_VERSION, feature_dim
from repro.learned.model import LearnedCostModel


def _synthetic(n=120, seed=3):
    """A fast synthetic regression problem with known structure.

    Targets depend linearly on a few feature columns in log space, so
    even a tiny ensemble should recover the ranking.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, feature_dim()))
    latency = np.exp(0.8 * x[:, 0] - 0.5 * x[:, 20] + 0.05 * rng.normal(size=n))
    energy = np.exp(0.4 * x[:, 1] + 0.3 * x[:, 21] + 0.05 * rng.normal(size=n))
    feasible = x[:, 5] > -1.0
    latency[~feasible] = np.inf
    energy[~feasible] = np.inf
    return x, latency, energy, feasible


def _fit_synthetic(**kwargs):
    x, latency, energy, feasible = _synthetic()
    defaults = dict(seed=0, hidden=16, ensemble=2, epochs=120)
    defaults.update(kwargs)
    return (
        LearnedCostModel.fit(x, latency, energy, feasible, **defaults),
        (x, latency, energy, feasible),
    )


class TestFitPredict:
    def test_smoke_fit_and_rank(self):
        model, (x, latency, _energy, feasible) = _fit_synthetic()
        mean, std = model.predict(x)
        assert mean.shape == (len(x), 2)
        assert std.shape == (len(x), 2)
        assert np.all(std > 0)
        # ranking of feasible rows should correlate strongly with truth
        rows = np.flatnonzero(feasible)
        true_rank = np.argsort(np.argsort(latency[rows]))
        pred_rank = np.argsort(np.argsort(mean[rows, 0]))
        rho = np.corrcoef(true_rank, pred_rank)[0, 1]
        assert rho > 0.8

    def test_deterministic_under_seed(self):
        model_a, (x, *_rest) = _fit_synthetic()
        model_b, _ = _fit_synthetic()
        assert np.array_equal(model_a.predict(x)[0], model_b.predict(x)[0])

    def test_feasibility_head(self):
        model, (x, _lat, _eng, feasible) = _fit_synthetic()
        proba = model.feasible_proba(x)
        assert proba.shape == (len(x),)
        accuracy = ((proba >= 0.5) == feasible).mean()
        assert accuracy > 0.7

    def test_objective_scores(self):
        model, (x, *_rest) = _fit_synthetic()
        lat, _ = model.predict_objective(x, "latency")
        edp, _ = model.predict_objective(x, "edp")
        mean, _ = model.predict(x)
        assert lat == pytest.approx(mean[:, 0])
        assert edp == pytest.approx(mean.sum(axis=1))
        with pytest.raises(ConfigurationError, match="unknown objective"):
            model.predict_objective(x, "power")

    def test_grad_matches_finite_difference(self):
        model, (x, *_rest) = _fit_synthetic()
        row = x[0]
        score, grad = model.grad_objective(row, "latency")
        eps = 1e-6
        for dim in (0, 5, 20):
            bumped = row.copy()
            bumped[dim] += eps
            bumped_score, _ = model.grad_objective(bumped, "latency")
            assert (bumped_score - score) / eps == pytest.approx(
                grad[dim], rel=1e-3, abs=1e-6
            )

    def test_needs_enough_feasible_rows(self):
        x = np.random.default_rng(0).normal(size=(20, feature_dim()))
        latency = np.full(20, np.inf)
        with pytest.raises(ConfigurationError, match="feasible samples"):
            LearnedCostModel.fit(x, latency, latency, np.zeros(20, dtype=bool))

    def test_rejects_wrong_feature_width(self):
        model, _ = _fit_synthetic()
        with pytest.raises(EvaluationError, match="feature width"):
            model.predict(np.zeros((4, feature_dim() + 1)))


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        model, (x, *_rest) = _fit_synthetic()
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LearnedCostModel.load(path)
        assert np.array_equal(model.predict(x)[0], loaded.predict(x)[0])
        assert np.array_equal(model.predict(x)[1], loaded.predict(x)[1])
        assert loaded.calibration == model.calibration
        assert loaded.meta["n_train"] == model.meta["n_train"]

    def test_artifact_is_plain_json(self, tmp_path):
        model, _ = _fit_synthetic()
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro.learned.model"
        assert data["feature_version"] == FEATURE_VERSION

    def test_load_rejects_feature_version_mismatch(self, tmp_path):
        model, _ = _fit_synthetic()
        data = model.to_dict()
        data["feature_version"] = FEATURE_VERSION + 1
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="feature version"):
            LearnedCostModel.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            LearnedCostModel.load(path)


class TestOnRealPPA:
    def test_fits_analytical_labels(self, labelled_batch):
        x, latency, energy, feasible = labelled_batch
        if feasible.sum() < 8:
            pytest.skip("sampled batch too infeasible for this hw")
        model = LearnedCostModel.fit(
            x, latency, energy, feasible, seed=0, hidden=16, ensemble=2, epochs=80
        )
        mean, _std = model.predict(x[feasible])
        err = np.abs(mean[:, 0] - np.log(latency[feasible]))
        assert float(err.mean()) < 1.0  # within ~e^1 of truth on train data
