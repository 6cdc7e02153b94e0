"""Feature layout: width, batch/scalar parity, relaxation and Jacobian."""

import numpy as np
import pytest

from repro.learned.features import (
    FEATURE_VERSION,
    feature_dim,
    feature_names,
    featurize,
    featurize_batch,
    relaxed_features,
)
from repro.mapping.gemm_mapping import DIM_INDEX


class TestLayout:
    def test_names_match_dim_and_are_unique(self):
        names = feature_names()
        assert len(names) == feature_dim()
        assert len(set(names)) == len(names)

    def test_version_is_stable(self):
        # bump FEATURE_VERSION whenever the layout changes; this pin makes
        # an accidental layout change fail loudly
        assert FEATURE_VERSION == 1
        assert feature_dim() == 29

    def test_empty_batch(self, sample_hw, layer_and_shape):
        _layer, shape = layer_and_shape
        out = featurize_batch(sample_hw, [], shape)
        assert out.shape == (0, feature_dim())


class TestExactFeaturization:
    def test_batch_matches_scalar(self, sample_hw, layer_and_shape, mapping_batch):
        _layer, shape = layer_and_shape
        batch = featurize_batch(sample_hw, mapping_batch, shape)
        assert batch.shape == (len(mapping_batch), feature_dim())
        assert np.isfinite(batch).all()
        for index in (0, len(mapping_batch) // 2, -1):
            single = featurize(sample_hw, mapping_batch[index], shape)
            assert np.array_equal(single, batch[index])

    def test_distinct_mappings_differ(self, sample_hw, layer_and_shape, mapping_batch):
        _layer, shape = layer_and_shape
        batch = featurize_batch(sample_hw, mapping_batch, shape)
        keys = {m.key() for m in mapping_batch}
        rows = {tuple(row) for row in batch}
        assert len(rows) == len(keys)

    def test_foreign_hw_raises(self, layer_and_shape, mapping_batch):
        _layer, shape = layer_and_shape

        class ForeignHW:
            pass

        with pytest.raises(AttributeError):
            featurize_batch(ForeignHW(), mapping_batch[:2], shape)


class TestRelaxation:
    def test_matches_exact_at_integer_tiles(
        self, sample_hw, layer_and_shape, mapping_batch
    ):
        _layer, shape = layer_and_shape
        for mapping in mapping_batch[:8]:
            exact = featurize(sample_hw, mapping, shape)
            relaxed, jac = relaxed_features(
                sample_hw,
                shape,
                np.log2(np.asarray(mapping.tiles(), dtype=float)),
                1 if mapping.spatial == "mn" else 0,
                mapping.unroll,
                DIM_INDEX[mapping.loop_order[2]],
            )
            assert relaxed == pytest.approx(exact, abs=1e-12)
            assert jac.shape == (feature_dim(), 3)

    def test_jacobian_matches_finite_differences(
        self, sample_hw, layer_and_shape, mapping_batch
    ):
        _layer, shape = layer_and_shape
        mapping = mapping_batch[0]
        log_tiles = np.log2(np.asarray(mapping.tiles(), dtype=float)) + 0.3
        args = (1, mapping.unroll, DIM_INDEX[mapping.loop_order[2]])
        x0, jac = relaxed_features(sample_hw, shape, log_tiles, *args)
        eps = 1e-6
        for dim in range(3):
            bumped = log_tiles.copy()
            bumped[dim] += eps
            x1, _ = relaxed_features(sample_hw, shape, bumped, *args)
            finite_diff = (x1 - x0) / eps
            assert finite_diff == pytest.approx(jac[:, dim], abs=1e-5)

    def test_hw_prefix_has_zero_gradient(self, sample_hw, layer_and_shape):
        _layer, shape = layer_and_shape
        _x, jac = relaxed_features(sample_hw, shape, [2.0, 2.0, 2.0], 1, 2, 0)
        # only the tile block depends on the tile coordinates
        assert np.all(jac[:17] == 0.0)
        assert np.any(jac[17:] != 0.0)
