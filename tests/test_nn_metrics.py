"""Unit tests for repro.nn.metrics."""

import numpy as np
import pytest

from repro.nn.metrics import accuracy, accuracy_drop, per_class_accuracy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_half(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 1]) == 0.5

    def test_accepts_one_hot_targets(self):
        targets = np.array([[1, 0], [0, 1]])
        assert accuracy(targets, [0, 1]) == 1.0

    def test_accepts_probability_predictions(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy([0, 1], scores) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 2])


class TestPerClass:
    def test_per_class_accuracy_values(self):
        y_true = [0, 0, 1, 1]
        y_pred = [0, 1, 1, 1]
        values = per_class_accuracy(y_true, y_pred)
        np.testing.assert_allclose(values, [0.5, 1.0])

    def test_per_class_nan_for_absent_class(self):
        values = per_class_accuracy([0, 0], [0, 1])
        assert np.isnan(values[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_per_class_matches_per_class_loop(self, seed):
        generator = np.random.default_rng(seed)
        y_true = generator.integers(0, 4, size=40)
        y_pred = np.where(generator.random(40) < 0.7, y_true, generator.integers(0, 4, size=40))
        values = per_class_accuracy(y_true, y_pred)
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
        assert values.shape == (n_classes,)
        for label in range(n_classes):
            members = y_true == label
            if members.any():
                assert values[label] == np.mean(y_pred[members] == label)
            else:
                assert np.isnan(values[label])

    def test_per_class_accepts_one_hot_and_scores(self):
        y_true = np.eye(3)[[0, 1, 2, 2]]
        scores = np.array([[0.8, 0.1, 0.1], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8], [0.2, 0.7, 0.1]])
        np.testing.assert_array_equal(per_class_accuracy(y_true, scores), [1.0, 0.0, 0.5])

    def test_support_weighted_mean_is_accuracy(self):
        y_true = np.array([0, 0, 0, 1, 2, 2])
        y_pred = np.array([0, 1, 0, 1, 0, 2])
        support = np.bincount(y_true)
        weighted = np.sum(per_class_accuracy(y_true, y_pred) * support) / support.sum()
        assert weighted == pytest.approx(accuracy(y_true, y_pred))


class TestAccuracyDrop:
    def test_accuracy_drop_sign(self):
        assert accuracy_drop(0.9, 0.85) == pytest.approx(0.05)
        assert accuracy_drop(0.9, 0.95) == pytest.approx(-0.05)

    def test_no_drop_is_zero(self):
        assert accuracy_drop(0.875, 0.875) == 0.0
