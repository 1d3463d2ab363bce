"""Tests for the prediction stages used by SZ2/SZ3."""

import numpy as np
import pytest

from repro.compressors.predictors import (
    InterpolationPredictor,
    block_mean_predictor,
    block_pad,
    block_regression_predictor,
    predictions_from_regression,
)


class TestBlockPad:
    def test_exact_multiple(self):
        blocks, n = block_pad(np.arange(8, dtype=float), 4)
        assert blocks.shape == (2, 4)
        assert n == 8

    def test_padding_with_edge_value(self):
        blocks, n = block_pad(np.array([1.0, 2.0, 3.0]), 4)
        assert n == 3
        assert blocks.shape == (1, 4)
        assert blocks[0, 3] == 3.0

    def test_empty_input(self):
        blocks, n = block_pad(np.array([]), 4)
        assert n == 0
        assert blocks.shape == (0, 4)


class TestBlockPredictors:
    def test_mean_predictor_constant_block_exact(self):
        blocks = np.full((3, 8), 2.5)
        pred, coef = block_mean_predictor(blocks)
        np.testing.assert_allclose(pred, blocks)
        np.testing.assert_allclose(coef.ravel(), [2.5, 2.5, 2.5])

    def test_regression_predictor_linear_block_exact(self):
        idx = np.arange(16, dtype=float)
        blocks = np.stack([2.0 + 0.5 * idx, -1.0 - 0.25 * idx])
        pred, coef = block_regression_predictor(blocks)
        np.testing.assert_allclose(pred, blocks, atol=1e-10)
        np.testing.assert_allclose(coef[0], [2.0, 0.5], atol=1e-10)
        np.testing.assert_allclose(coef[1], [-1.0, -0.25], atol=1e-10)

    def test_regression_beats_mean_on_trend(self):
        idx = np.arange(32, dtype=float)
        blocks = (3.0 * idx)[None, :]
        mean_pred, _ = block_mean_predictor(blocks)
        reg_pred, _ = block_regression_predictor(blocks)
        assert ((blocks - reg_pred) ** 2).sum() < ((blocks - mean_pred) ** 2).sum()

    def test_predictions_from_regression_matches(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(5, 12))
        _, coef = block_regression_predictor(blocks)
        rebuilt = predictions_from_regression(coef, 12)
        direct, _ = block_regression_predictor(blocks)
        np.testing.assert_allclose(rebuilt, direct, atol=1e-10)

    def test_regression_reuses_means_and_buffer(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(6, 16))
        _, means = block_mean_predictor(blocks)
        buffer = np.empty_like(blocks)
        pred, coef = block_regression_predictor(blocks, means[:, 0], out=buffer)
        assert pred is buffer
        fresh_pred, fresh_coef = block_regression_predictor(blocks)
        np.testing.assert_array_equal(pred, fresh_pred)
        np.testing.assert_array_equal(coef, fresh_coef)

    def test_regression_predicts_from_stored_coefficients(self):
        # the coefficients are what a payload stores, and the predictions
        # are exactly what a decoder rebuilds from them
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(4, 10)) + np.arange(10) * 1e-3
        pred, coef = block_regression_predictor(blocks)
        assert coef.dtype == np.float32
        np.testing.assert_array_equal(pred, predictions_from_regression(coef, 10))

    def test_single_column_block(self):
        blocks = np.array([[5.0], [7.0]])
        pred, _ = block_regression_predictor(blocks)
        np.testing.assert_allclose(pred, blocks)


class TestInterpolationPredictor:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 100, 1023, 1024, 1025])
    def test_every_index_covered_exactly_once(self, n):
        predictor = InterpolationPredictor(n)
        seen = set(predictor.anchor_indices().tolist())
        for new_idx, left_idx, right_idx in predictor.levels():
            for i in new_idx.tolist():
                assert i not in seen, f"index {i} predicted twice (n={n})"
                seen.add(i)
            # parents must already be reconstructed
            assert set(left_idx.tolist()) <= seen - set(new_idx.tolist()) | set(left_idx.tolist())
            for left, right, new in zip(left_idx.tolist(), right_idx.tolist(), new_idx.tolist()):
                assert left in seen and left != new
                assert right in seen and (right != new or right == left)
        assert seen == set(range(n))

    def test_parents_reconstructed_before_use(self):
        n = 37
        predictor = InterpolationPredictor(n)
        reconstructed = set(predictor.anchor_indices().tolist())
        for new_idx, left_idx, right_idx in predictor.levels():
            for left, right in zip(left_idx.tolist(), right_idx.tolist()):
                assert left in reconstructed
                assert right in reconstructed
            reconstructed.update(new_idx.tolist())

    def test_linear_data_predicted_exactly(self):
        n = 64
        data = np.linspace(0.0, 10.0, n)
        predictor = InterpolationPredictor(n)
        values = np.zeros(n)
        anchors = predictor.anchor_indices()
        values[anchors] = data[anchors]
        for new_idx, left_idx, right_idx in predictor.levels():
            pred = InterpolationPredictor.predict(values, new_idx, left_idx, right_idx)
            interior = right_idx != left_idx
            np.testing.assert_allclose(pred[interior], data[new_idx][interior], atol=1e-12)
            values[new_idx] = data[new_idx]

    def test_zero_length(self):
        predictor = InterpolationPredictor(0)
        assert predictor.anchor_indices().size == 0
        assert list(predictor.levels()) == []

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            InterpolationPredictor(-1)
