"""Unit tests for repro.nn.layers: Dense hooks, gradients, Dropout, summaries."""

import numpy as np
import pytest

from repro.nn.layers import ActivationLayer, Dense, Dropout


@pytest.fixture
def dense():
    return Dense(4, 3, rng=np.random.default_rng(0))


class TestDenseForward:
    def test_output_shape(self, dense):
        out = dense.forward(np.zeros((7, 4)))
        assert out.shape == (7, 3)

    def test_1d_input_promoted_to_batch(self, dense):
        out = dense.forward(np.zeros(4))
        assert out.shape == (1, 3)

    def test_wrong_feature_count_raises(self, dense):
        with pytest.raises(ValueError):
            dense.forward(np.zeros((2, 5)))

    def test_linear_in_inputs(self, dense):
        x = np.random.default_rng(1).normal(size=(5, 4))
        y = dense.forward(2.0 * x) - dense.forward(np.zeros((5, 4)))
        expected = 2.0 * (dense.forward(x) - dense.forward(np.zeros((5, 4))))
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_bias_disabled(self):
        layer = Dense(3, 2, use_bias=False, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((1, 3)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)


class TestDenseHooks:
    def test_mask_zeroes_connections(self, dense):
        mask = np.ones_like(dense.weights)
        mask[0, :] = 0.0
        dense.mask = mask
        assert np.all(dense.effective_weights()[0, :] == 0.0)

    def test_mask_blocks_gradient(self, dense):
        mask = np.zeros_like(dense.weights)
        dense.mask = mask
        x = np.ones((2, 4))
        dense.forward(x, training=True)
        dense.backward(np.ones((2, 3)))
        np.testing.assert_array_equal(dense.grad_weights, np.zeros_like(dense.weights))

    def test_quantizer_applied_in_forward(self, dense):
        dense.weight_quantizer = lambda w: np.zeros_like(w)
        dense.bias_quantizer = lambda b: np.zeros_like(b)
        out = dense.forward(np.ones((1, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_quantizer_does_not_touch_shadow_weights(self, dense):
        original = dense.weights.copy()
        dense.weight_quantizer = lambda w: np.round(w)
        dense.forward(np.ones((1, 4)))
        np.testing.assert_array_equal(dense.weights, original)

    def test_sparsity_reflects_mask(self, dense):
        assert dense.sparsity() == 0.0
        mask = np.ones_like(dense.weights)
        mask[:, 0] = 0.0
        dense.mask = mask
        assert dense.sparsity() == pytest.approx(1.0 / 3.0)


class TestDenseBackward:
    def test_backward_requires_training_forward(self, dense):
        with pytest.raises(RuntimeError):
            dense.backward(np.ones((1, 3)))

    def test_gradients_match_numerical(self):
        layer = Dense(3, 2, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(4, 3))
        grad_out = np.random.default_rng(7).normal(size=(4, 2))
        layer.forward(x, training=True)
        layer.backward(grad_out)

        epsilon = 1e-6
        numeric_w = np.zeros_like(layer.weights)
        for i in range(layer.weights.shape[0]):
            for j in range(layer.weights.shape[1]):
                layer.weights[i, j] += epsilon
                plus = np.sum(layer.forward(x) * grad_out)
                layer.weights[i, j] -= 2 * epsilon
                minus = np.sum(layer.forward(x) * grad_out)
                layer.weights[i, j] += epsilon
                numeric_w[i, j] = (plus - minus) / (2 * epsilon)
        np.testing.assert_allclose(layer.grad_weights, numeric_w, atol=1e-5)

    def test_input_gradient_shape(self, dense):
        x = np.ones((6, 4))
        dense.forward(x, training=True)
        grad_in = dense.backward(np.ones((6, 3)))
        assert grad_in.shape == (6, 4)

    def test_bias_gradient_is_column_sum(self, dense):
        x = np.random.default_rng(2).normal(size=(5, 4))
        grad_out = np.random.default_rng(3).normal(size=(5, 3))
        dense.forward(x, training=True)
        dense.backward(grad_out)
        np.testing.assert_allclose(dense.grad_bias, grad_out.sum(axis=0))


class TestSetWeights:
    def test_set_weights_roundtrip(self, dense):
        new_weights = np.full_like(dense.weights, 0.5)
        new_bias = np.full_like(dense.bias, -1.0)
        dense.set_weights(new_weights, new_bias)
        np.testing.assert_array_equal(dense.weights, new_weights)
        np.testing.assert_array_equal(dense.bias, new_bias)

    def test_shape_mismatch_rejected(self, dense):
        with pytest.raises(ValueError):
            dense.set_weights(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dense.set_weights(np.zeros_like(dense.weights), np.zeros(99))


class TestActivationLayerAndDropout:
    def test_activation_layer_from_string(self):
        layer = ActivationLayer("relu")
        out = layer.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_activation_backward_requires_forward(self):
        with pytest.raises(RuntimeError):
            ActivationLayer("relu").backward(np.ones((1, 2)))

    def test_dropout_identity_at_inference(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((10, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_dropout_scales_kept_units(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((2000, 1))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        # Roughly half the units survive.
        assert 0.4 < kept.size / out.size < 0.6

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_dropout_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((50, 4))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, out)


