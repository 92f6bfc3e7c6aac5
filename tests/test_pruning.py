"""Tests for repro.pruning: magnitude, one-shot pruning and the sweep."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import build_mlp
from repro.pruning import (
    one_shot_pruning,
    prune_by_magnitude,
    prune_layer_by_magnitude,
    pruning_mask_summary,
    pruning_sweep,
    remove_pruning,
)


@pytest.fixture
def model():
    return build_mlp(6, (5,), 3, seed=0)


class TestLayerPruning:
    def test_target_sparsity_achieved(self, model):
        layer = model.dense_layers[0]
        prune_layer_by_magnitude(layer, 0.4)
        assert layer.sparsity() == pytest.approx(0.4, abs=0.05)

    def test_smallest_magnitudes_removed_first(self, model):
        layer = model.dense_layers[0]
        magnitudes = np.abs(layer.weights)
        prune_layer_by_magnitude(layer, 0.3)
        pruned_magnitudes = magnitudes[layer.mask == 0.0]
        kept_magnitudes = magnitudes[layer.mask == 1.0]
        assert pruned_magnitudes.max() <= kept_magnitudes.min() + 1e-12

    def test_zero_sparsity_keeps_everything(self, model):
        layer = model.dense_layers[0]
        prune_layer_by_magnitude(layer, 0.0)
        assert layer.sparsity() == 0.0

    def test_repruning_respects_existing_mask(self, model):
        layer = model.dense_layers[0]
        prune_layer_by_magnitude(layer, 0.3)
        first_mask = layer.mask.copy()
        prune_layer_by_magnitude(layer, 0.5)
        # Everything pruned in the first pass stays pruned.
        assert np.all(layer.mask[first_mask == 0.0] == 0.0)

    def test_invalid_sparsity(self, model):
        with pytest.raises(ValueError):
            prune_layer_by_magnitude(model.dense_layers[0], 1.0)


class TestModelPruning:
    def test_global_ranking_overall_sparsity(self, model):
        result = prune_by_magnitude(model, 0.5, global_ranking=True)
        assert result.achieved_sparsity == pytest.approx(0.5, abs=0.1)
        assert result.n_pruned + model.n_active_connections() == result.n_total

    def test_per_layer_sparsity_list(self, model):
        result = prune_by_magnitude(model, [0.2, 0.6])
        assert result.per_layer_sparsity[0] == pytest.approx(0.2, abs=0.05)
        assert result.per_layer_sparsity[1] == pytest.approx(0.6, abs=0.1)

    def test_wrong_sparsity_list_length(self, model):
        with pytest.raises(ValueError):
            prune_by_magnitude(model, [0.2, 0.3, 0.4])

    def test_local_ranking_uniform_sparsity(self, model):
        prune_by_magnitude(model, 0.4, global_ranking=False)
        for layer in model.dense_layers:
            assert layer.sparsity() == pytest.approx(0.4, abs=0.1)

    def test_remove_pruning_restores_density(self, model):
        prune_by_magnitude(model, 0.5)
        remove_pruning(model)
        assert model.sparsity() == 0.0

    def test_mask_summary(self, model):
        prune_by_magnitude(model, 0.3)
        summary = pruning_mask_summary(model)
        assert summary["model_sparsity"] == pytest.approx(0.3, abs=0.1)
        assert all(entry["has_mask"] for entry in summary["layers"])

    def test_pruned_weights_stay_zero_in_effective(self, model):
        prune_by_magnitude(model, 0.5)
        for layer in model.dense_layers:
            assert np.count_nonzero(layer.effective_weights()) == np.count_nonzero(layer.mask)

    @given(st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_achieved_sparsity_close_to_target(self, sparsity):
        mlp = build_mlp(8, (6,), 4, seed=1)
        result = prune_by_magnitude(mlp, sparsity)
        assert abs(result.achieved_sparsity - sparsity) < 0.08


class TestSchedulesAndSweep:
    @pytest.fixture(scope="class")
    def data(self):
        from repro.datasets import load_dataset, prepare_split, train_val_test_split

        return prepare_split(train_val_test_split(load_dataset("seeds"), seed=0), input_bits=4)

    @pytest.fixture(scope="class")
    def trained(self, data):
        from repro.nn import train_classifier

        model = build_mlp(7, (4,), 3, seed=0)
        train_classifier(
            model, data.train.features, data.train.labels,
            data.validation.features, data.validation.labels, epochs=60, seed=0,
        )
        return model

    def test_one_shot_pruning_with_finetune(self, trained, data):
        candidate = trained.clone()
        baseline_accuracy = trained.evaluate_accuracy(data.test.features, data.test.labels)
        result = one_shot_pruning(candidate, 0.4, data=data, finetune_epochs=8, seed=0)
        accuracy = candidate.evaluate_accuracy(data.test.features, data.test.labels)
        assert result.achieved_sparsity == pytest.approx(0.4, abs=0.08)
        assert accuracy >= baseline_accuracy - 0.15

    def test_pruning_sweep_points(self, trained, data):
        points = pruning_sweep(
            trained, data, sparsity_range=(0.2, 0.6), finetune_epochs=3, seed=0
        )
        assert [p.parameters["target_sparsity"] for p in points] == [0.2, 0.6]
        assert points[1].area < points[0].area
        assert all(p.technique == "pruning" for p in points)
