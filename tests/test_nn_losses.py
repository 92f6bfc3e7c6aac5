"""Unit tests for repro.nn.losses (values and gradient checks)."""

import numpy as np
import pytest

from repro.nn.losses import (
    CategoricalCrossEntropy,
    MeanAbsoluteError,
    MeanSquaredError,
    SoftmaxCrossEntropy,
)


def one_hot(labels, n_classes):
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def numerical_gradient(loss, predictions, targets, epsilon=1e-6):
    grad = np.zeros_like(predictions)
    flat_p = predictions.reshape(-1)
    flat_g = grad.reshape(-1)
    for index in range(flat_p.size):
        original = flat_p[index]
        flat_p[index] = original + epsilon
        plus = loss.forward(predictions, targets)
        flat_p[index] = original - epsilon
        minus = loss.forward(predictions, targets)
        flat_p[index] = original
        flat_g[index] = (plus - minus) / (2 * epsilon)
    return grad


class TestMeanSquaredError:
    def test_zero_for_perfect_prediction(self):
        predictions = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert MeanSquaredError().forward(predictions, predictions) == 0.0

    def test_known_value(self):
        loss = MeanSquaredError().forward(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
        assert loss == pytest.approx((1.0 + 4.0) / 2.0)

    def test_gradient_matches_numerical(self):
        generator = np.random.default_rng(0)
        predictions = generator.normal(size=(5, 3))
        targets = generator.normal(size=(5, 3))
        analytic = MeanSquaredError().backward(predictions, targets)
        numeric = numerical_gradient(MeanSquaredError(), predictions.copy(), targets)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestMeanAbsoluteError:
    def test_known_value(self):
        loss = MeanAbsoluteError().forward(np.array([2.0, -1.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(1.5)

    def test_gradient_sign(self):
        predictions = np.array([2.0, -3.0])
        targets = np.array([0.0, 0.0])
        grad = MeanAbsoluteError().backward(predictions, targets)
        assert grad[0] > 0 and grad[1] < 0

    def test_gradient_matches_numerical_away_from_kinks(self):
        generator = np.random.default_rng(3)
        targets = generator.normal(size=(4, 3))
        offsets = generator.uniform(0.1, 1.0, size=(4, 3)) * generator.choice([-1, 1], size=(4, 3))
        predictions = targets + offsets
        analytic = MeanAbsoluteError().backward(predictions, targets)
        numeric = numerical_gradient(MeanAbsoluteError(), predictions.copy(), targets)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestCrossEntropyLosses:
    def test_categorical_cross_entropy_perfect_prediction(self):
        targets = one_hot([0, 1], 2)
        loss = CategoricalCrossEntropy().forward(targets, targets)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_categorical_cross_entropy_uniform_prediction(self):
        predictions = np.full((4, 4), 0.25)
        targets = one_hot([0, 1, 2, 3], 4)
        loss = CategoricalCrossEntropy().forward(predictions, targets)
        assert loss == pytest.approx(np.log(4.0))

    def test_softmax_cross_entropy_matches_composition(self):
        generator = np.random.default_rng(1)
        logits = generator.normal(size=(6, 5))
        targets = one_hot(generator.integers(0, 5, size=6), 5)
        fused = SoftmaxCrossEntropy().forward(logits, targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probabilities = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        composed = CategoricalCrossEntropy().forward(probabilities, targets)
        assert fused == pytest.approx(composed, rel=1e-9)

    def test_softmax_cross_entropy_gradient(self):
        generator = np.random.default_rng(2)
        logits = generator.normal(size=(4, 3))
        targets = one_hot(generator.integers(0, 3, size=4), 3)
        analytic = SoftmaxCrossEntropy().backward(logits, targets)
        numeric = numerical_gradient(SoftmaxCrossEntropy(), logits.copy(), targets)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_softmax_cross_entropy_stable_for_large_logits(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        targets = one_hot([0], 3)
        loss = SoftmaxCrossEntropy().forward(logits, targets)
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_categorical_cross_entropy_gradient(self, n_classes):
        generator = np.random.default_rng(n_classes)
        probabilities = generator.uniform(0.05, 1.0, size=(4, n_classes))
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        targets = one_hot(generator.integers(0, n_classes, size=4), n_classes)
        loss = CategoricalCrossEntropy()
        analytic = loss.backward(probabilities, targets)
        numeric = numerical_gradient(loss, probabilities.copy(), targets)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    @pytest.mark.parametrize("shift", [-50.0, 0.5, 100.0])
    def test_softmax_cross_entropy_invariant_to_logit_shift(self, shift):
        generator = np.random.default_rng(4)
        logits = generator.normal(size=(5, 4))
        targets = one_hot(generator.integers(0, 4, size=5), 4)
        loss = SoftmaxCrossEntropy()
        assert loss.forward(logits + shift, targets) == pytest.approx(
            loss.forward(logits, targets), rel=1e-9
        )
        np.testing.assert_allclose(
            loss.backward(logits + shift, targets), loss.backward(logits, targets), atol=1e-12
        )

    def test_softmax_cross_entropy_gradient_rows_sum_to_zero(self):
        generator = np.random.default_rng(5)
        logits = generator.normal(size=(6, 3))
        targets = one_hot(generator.integers(0, 3, size=6), 3)
        grad = SoftmaxCrossEntropy().backward(logits, targets)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)
