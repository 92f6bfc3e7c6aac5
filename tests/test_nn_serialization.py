"""Unit tests for repro.nn.serialization (save/load round-trips)."""

import time

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.network import build_mlp
from repro.nn.serialization import load_model, save_model


@pytest.fixture
def model():
    return build_mlp(5, (4,), 3, dropout=0.1, seed=0)


class TestRoundTrip:
    def test_forward_identical_after_reload(self, model, tmp_path):
        path = save_model(model, tmp_path / "model.npz")
        reloaded = load_model(path)
        x = np.random.default_rng(0).normal(size=(6, 5))
        np.testing.assert_allclose(reloaded.forward(x), model.forward(x))

    def test_suffix_appended(self, model, tmp_path):
        path = save_model(model, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_architecture_preserved(self, model, tmp_path):
        reloaded = load_model(save_model(model, tmp_path / "m.npz"))
        assert reloaded.topology() == model.topology()
        assert [type(l).__name__ for l in reloaded.layers] == [
            type(l).__name__ for l in model.layers
        ]

    def test_mask_preserved(self, model, tmp_path):
        layer = model.dense_layers[0]
        mask = np.ones_like(layer.weights)
        mask[0, :] = 0.0
        layer.mask = mask
        reloaded = load_model(save_model(model, tmp_path / "masked.npz"))
        np.testing.assert_array_equal(reloaded.dense_layers[0].mask, mask)

    def test_bias_disabled_preserved(self, tmp_path):
        from repro.nn.network import MLP

        model = MLP([Dense(3, 2, use_bias=False, rng=np.random.default_rng(0))])
        reloaded = load_model(save_model(model, tmp_path / "nobias.npz"))
        assert reloaded.dense_layers[0].use_bias is False

    def test_same_model_same_bytes_and_exact_floats(self, model, tmp_path, monkeypatch):
        first = save_model(model, tmp_path / "a.npz").read_bytes()
        clock = time.time
        monkeypatch.setattr(time, "time", lambda: clock() + 400 * 86400.0)
        assert save_model(model, tmp_path / "b.npz").read_bytes() == first
        reloaded = load_model(tmp_path / "a.npz")
        for layer, original in zip(reloaded.dense_layers, model.dense_layers):
            assert layer.weights.tobytes() == original.weights.tobytes()
            assert layer.bias.tobytes() == original.bias.tobytes()

    def test_directories_created(self, model, tmp_path):
        path = save_model(model, tmp_path / "deep" / "nested" / "model.npz")
        assert path.exists()


class TestErrors:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.npz")

    def test_unsupported_layer_rejected(self, tmp_path):
        from repro.nn.layers import Layer
        from repro.nn.network import MLP

        class Custom(Layer):
            def forward(self, inputs, training=False):
                return inputs

            def backward(self, grad_output):
                return grad_output

        with pytest.raises(TypeError):
            save_model(MLP([Custom()]), tmp_path / "custom.npz")

    def test_quantizer_hooks_not_serialized(self, model, tmp_path):
        model.dense_layers[0].weight_quantizer = lambda w: w
        reloaded = load_model(save_model(model, tmp_path / "q.npz"))
        assert reloaded.dense_layers[0].weight_quantizer is None
