"""Unit tests for repro.nn.network (MLP container and build_mlp)."""

import numpy as np
import pytest

from repro.nn.layers import ActivationLayer, Dense, Dropout
from repro.nn.network import build_mlp


@pytest.fixture
def mlp():
    return build_mlp(6, (5, 4), 3, seed=0)


class TestBuildMLP:
    def test_topology(self, mlp):
        assert mlp.topology() == [6, 5, 4, 3]

    def test_layer_structure(self, mlp):
        kinds = [type(layer).__name__ for layer in mlp.layers]
        assert kinds == [
            "Dense",
            "ActivationLayer",
            "Dense",
            "ActivationLayer",
            "Dense",
        ]

    def test_no_hidden_layers(self):
        model = build_mlp(4, (), 2, seed=0)
        assert model.topology() == [4, 2]
        assert len(model.layers) == 1

    def test_dropout_inserted(self):
        model = build_mlp(4, (3,), 2, dropout=0.5, seed=0)
        assert any(isinstance(layer, Dropout) for layer in model.layers)

    def test_seed_reproducibility(self):
        a = build_mlp(5, (4,), 3, seed=42)
        b = build_mlp(5, (4,), 3, seed=42)
        np.testing.assert_array_equal(a.dense_layers[0].weights, b.dense_layers[0].weights)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            build_mlp(0, (3,), 2)
        with pytest.raises(ValueError):
            build_mlp(3, (0,), 2)
        with pytest.raises(ValueError):
            build_mlp(3, (3,), 0)


class TestForwardPredict:
    def test_forward_shape(self, mlp):
        out = mlp.forward(np.zeros((10, 6)))
        assert out.shape == (10, 3)

    def test_predict_returns_class_indices(self, mlp):
        predictions = mlp.predict(np.random.default_rng(0).normal(size=(20, 6)))
        assert predictions.shape == (20,)
        assert set(np.unique(predictions)).issubset({0, 1, 2})

    def test_predict_scores_matches_forward(self, mlp):
        x = np.random.default_rng(1).normal(size=(4, 6))
        np.testing.assert_array_equal(mlp.predict_scores(x), mlp.forward(x))

    def test_evaluate_accuracy_range(self, mlp):
        x = np.random.default_rng(2).normal(size=(30, 6))
        labels = np.random.default_rng(3).integers(0, 3, size=30)
        value = mlp.evaluate_accuracy(x, labels)
        assert 0.0 <= value <= 1.0

    def test_callable_interface(self, mlp):
        x = np.zeros((2, 6))
        np.testing.assert_array_equal(mlp(x), mlp.forward(x))


class TestParameterAccounting:
    def test_n_parameters(self, mlp):
        expected = (6 * 5 + 5) + (5 * 4 + 4) + (4 * 3 + 3)
        assert mlp.n_parameters() == expected

    def test_n_connections_excludes_bias(self, mlp):
        assert mlp.n_connections() == 6 * 5 + 5 * 4 + 4 * 3

    def test_sparsity_zero_without_masks(self, mlp):
        assert mlp.sparsity() == pytest.approx(0.0)

    def test_sparsity_with_mask(self, mlp):
        layer = mlp.dense_layers[0]
        mask = np.ones_like(layer.weights)
        mask[:, 0] = 0.0
        layer.mask = mask
        expected = layer.weights.shape[0] / mlp.n_connections()
        assert mlp.sparsity() == pytest.approx(expected)

    def test_dense_layers_property(self, mlp):
        assert len(mlp.dense_layers) == 3
        assert all(isinstance(layer, Dense) for layer in mlp.dense_layers)


class TestCloneAndWeights:
    def test_clone_is_independent(self, mlp):
        clone = mlp.clone()
        clone.dense_layers[0].weights[:] = 99.0
        assert not np.array_equal(clone.dense_layers[0].weights, mlp.dense_layers[0].weights)

    def test_clone_preserves_hooks(self, mlp):
        mlp_copy = mlp.clone()
        mlp_copy.dense_layers[0].mask = np.zeros_like(mlp_copy.dense_layers[0].weights)
        second = mlp_copy.clone()
        assert second.dense_layers[0].mask is not None
        assert second.dense_layers[0].mask is not mlp_copy.dense_layers[0].mask

    def test_get_set_weights_roundtrip(self, mlp):
        weights = mlp.get_weights()
        clone = build_mlp(6, (5, 4), 3, seed=99)
        clone.set_weights(weights)
        x = np.random.default_rng(4).normal(size=(5, 6))
        np.testing.assert_allclose(clone.forward(x), mlp.forward(x))

    def test_set_weights_wrong_length(self, mlp):
        with pytest.raises(ValueError):
            mlp.set_weights(mlp.get_weights()[:-1])


class TestBackward:
    def test_training_roundtrip_reduces_loss(self):
        # A minimal sanity check that forward/backward/update wiring learns.
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.nn.optimizers import Adam

        generator = np.random.default_rng(0)
        x = np.vstack(
            [generator.normal(-1.0, 0.5, size=(40, 4)), generator.normal(1.0, 0.5, size=(40, 4))]
        )
        labels = np.array([0] * 40 + [1] * 40)
        targets = np.zeros((80, 2))
        targets[np.arange(80), labels] = 1.0

        model = build_mlp(4, (6,), 2, seed=0)
        loss = SoftmaxCrossEntropy()
        optimizer = Adam(learning_rate=0.05)
        initial = loss.forward(model.forward(x), targets)
        for _ in range(50):
            scores = model.forward(x, training=True)
            grad = loss.backward(scores, targets)
            model.backward(grad)
            optimizer.update(model.parameters, model.gradients)
        final = loss.forward(model.forward(x), targets)
        assert final < initial * 0.5
