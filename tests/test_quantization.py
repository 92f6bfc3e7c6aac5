"""Tests for repro.quantization: quantizers, QAT, PTQ, and the bit-width sweep."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import load_dataset, prepare_split, train_val_test_split
from repro.nn import build_mlp
from repro.quantization import (
    QATConfig,
    SymmetricQuantizer,
    attach_quantizers,
    detach_quantizers,
    post_training_quantize,
    quantize_aware_train,
    quantize_tensor,
    quantization_sweep,
    quantized_copy,
    weight_bits_used,
)


class TestSymmetricQuantizer:
    def test_output_on_grid(self):
        quantizer = SymmetricQuantizer(bits=3)
        values = np.random.default_rng(0).normal(size=100)
        quantized = quantizer(values)
        scale = quantizer.format_for(values).scale
        levels = quantized / scale
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)

    def test_number_of_levels_bounded(self):
        quantizer = SymmetricQuantizer(bits=3)
        values = np.linspace(-1, 1, 1000)
        assert len(np.unique(quantizer(values))) <= 7

    def test_calibrated_scale_frozen(self):
        quantizer = SymmetricQuantizer(bits=4).calibrate(np.array([-2.0, 2.0]))
        assert quantizer.scale == pytest.approx(2.0 / 7)
        # New data does not change the scale once calibrated.
        quantized = quantizer(np.array([10.0]))
        assert quantized[0] == pytest.approx(7 * quantizer.scale)

    def test_integer_levels_consistent(self):
        quantizer = SymmetricQuantizer(bits=5)
        values = np.random.default_rng(1).normal(size=30)
        integers = quantizer.integer_levels(values)
        fmt = quantizer.format_for(values)
        np.testing.assert_allclose(quantizer(values), integers * fmt.scale)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SymmetricQuantizer(bits=1)
        with pytest.raises(ValueError):
            SymmetricQuantizer(bits=4, scale=-1.0)

    def test_quantize_tensor_helper(self):
        values = np.array([0.1, -0.9, 0.5])
        np.testing.assert_allclose(
            quantize_tensor(values, 4), SymmetricQuantizer(bits=4)(values)
        )

    @pytest.mark.parametrize("bits", [2, 3, 4, 6, 8])
    def test_frozen_scale_quantization_is_idempotent(self, bits):
        values = np.random.default_rng(bits).normal(size=64)
        quantizer = SymmetricQuantizer(bits=bits).calibrate(values)
        once = quantizer(values)
        assert quantizer(once).tobytes() == once.tobytes()

    @pytest.mark.parametrize("bits", [2, 3, 4, 6, 8])
    def test_largest_magnitude_lands_on_top_level(self, bits):
        values = np.random.default_rng(bits).normal(size=64)
        levels = SymmetricQuantizer(bits=bits).integer_levels(values)
        top = (1 << (bits - 1)) - 1
        assert np.abs(levels).max() == top
        assert levels[np.argmax(np.abs(values))] == np.sign(values[np.argmax(np.abs(values))]) * top
        assert np.all(np.abs(levels) <= top)

    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_error_bounded_by_half_step(self, bits, values):
        values = np.array(values)
        quantizer = SymmetricQuantizer(bits=bits)
        quantized = quantizer(values)
        scale = quantizer.format_for(values).scale
        assert np.all(np.abs(values - quantized) <= scale / 2 + 1e-9)


class TestQATAndPTQ:
    @pytest.fixture(scope="class")
    def data(self):
        dataset = load_dataset("seeds")
        return prepare_split(train_val_test_split(dataset, seed=0), input_bits=4)

    @pytest.fixture(scope="class")
    def trained(self, data):
        from repro.nn import train_classifier

        model = build_mlp(7, (4,), 3, seed=0)
        train_classifier(
            model, data.train.features, data.train.labels,
            data.validation.features, data.validation.labels, epochs=60, seed=0,
        )
        return model

    def test_attach_and_detach(self, trained):
        model = trained.clone()
        quantizers = attach_quantizers(model, 4)
        assert len(quantizers) == 2
        assert weight_bits_used(model) == [4, 4]
        detach_quantizers(model)
        assert weight_bits_used(model) == [None, None]

    def test_per_layer_bits(self, trained):
        model = trained.clone()
        attach_quantizers(model, (3, 5))
        assert weight_bits_used(model) == [3, 5]

    def test_per_layer_bits_wrong_length(self, trained):
        with pytest.raises(ValueError):
            attach_quantizers(trained.clone(), (3, 5, 7))

    def test_effective_weights_on_grid_after_attach(self, trained):
        model = trained.clone()
        attach_quantizers(model, 3)
        for layer in model.dense_layers:
            effective = layer.effective_weights()
            assert len(np.unique(effective)) <= 7

    def test_qat_recovers_accuracy_at_low_bits(self, data, trained):
        float_accuracy = trained.evaluate_accuracy(data.test.features, data.test.labels)
        ptq_model = post_training_quantize(trained, 2).model
        ptq_accuracy = ptq_model.evaluate_accuracy(data.test.features, data.test.labels)
        qat_model = trained.clone()
        quantize_aware_train(qat_model, data, QATConfig(weight_bits=2, epochs=15), seed=0)
        qat_accuracy = qat_model.evaluate_accuracy(data.test.features, data.test.labels)
        assert qat_accuracy >= ptq_accuracy - 0.02
        assert qat_accuracy >= float_accuracy - 0.25

    def test_quantized_copy_leaves_original_untouched(self, data, trained):
        original_weights = trained.dense_layers[0].weights.copy()
        copy = quantized_copy(trained, 3, data=data, epochs=3, seed=0)
        np.testing.assert_array_equal(trained.dense_layers[0].weights, original_weights)
        assert trained.dense_layers[0].weight_quantizer is None
        assert copy.dense_layers[0].weight_quantizer is not None

    def test_ptq_freezes_scales(self, trained, data):
        result = post_training_quantize(trained, 4, data=data)
        assert len(result.scales) == 2
        assert all(s > 0 for s in result.scales)
        assert result.accuracy is not None

    def test_ptq_wrong_bits_length(self, trained):
        with pytest.raises(ValueError):
            post_training_quantize(trained, (4, 4, 4))

    def test_quantization_sweep_points(self, trained, data):
        points = quantization_sweep(
            trained, data, bit_range=(2, 4, 6), qat_epochs=3, seed=0
        )
        assert [p.parameters["weight_bits"] for p in points] == [2, 4, 6]
        assert all(p.technique == "quantization" for p in points)
        areas = [p.area for p in points]
        assert areas[0] < areas[-1]  # fewer bits -> smaller circuit

    def test_quantization_sweep_does_not_mutate_baseline(self, trained, data):
        before = trained.dense_layers[0].weights.copy()
        quantization_sweep(trained, data, bit_range=(3,), qat_epochs=2, seed=0)
        np.testing.assert_array_equal(trained.dense_layers[0].weights, before)
        assert trained.dense_layers[0].weight_quantizer is None
