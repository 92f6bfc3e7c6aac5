"""Unit and integration tests for repro.nn.trainer."""

import numpy as np
import pytest

from repro.nn.network import build_mlp
from repro.nn.trainer import Trainer, TrainerConfig, TrainingHistory, finetune, train_classifier


@pytest.fixture
def problem(tiny_problem):
    return tiny_problem


class TestTrainerConfig:
    def test_defaults_valid(self):
        TrainerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"monitor": "train_loss"},
            {"lr_decay_factor": 0.0},
            {"lr_decay_factor": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)


class TestTrainingBehaviour:
    def test_learns_separable_problem(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        history = train_classifier(
            model, features, labels, epochs=40, batch_size=16, seed=0
        )
        assert model.evaluate_accuracy(features, labels) > 0.9
        assert isinstance(history, TrainingHistory)
        assert history.epochs_run >= 1

    def test_history_records_validation(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        history = train_classifier(
            model,
            features[:80],
            labels[:80],
            features[80:],
            labels[80:],
            epochs=10,
            seed=0,
        )
        assert len(history.val_accuracy) == history.epochs_run
        assert len(history.val_loss) == history.epochs_run
        assert 0.0 <= history.best_val_accuracy <= 1.0

    def test_no_validation_history_empty(self, problem):
        features, labels = problem
        model = build_mlp(4, (4,), 2, seed=0)
        history = train_classifier(model, features, labels, epochs=5, seed=0)
        assert history.val_accuracy == []

    def test_early_stopping_limits_epochs(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        config = TrainerConfig(epochs=500, early_stopping_patience=3)
        trainer = Trainer(model, config=config, seed=0)
        history = trainer.fit(features, labels)
        assert history.epochs_run < 500

    def test_restore_best_weights(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        config = TrainerConfig(epochs=30, restore_best_weights=True, early_stopping_patience=None)
        trainer = Trainer(model, config=config, seed=0)
        trainer.fit(features[:80], labels[:80], features[80:], labels[80:])
        # After restoring, validation accuracy equals the best recorded value.
        final_val = model.evaluate_accuracy(features[80:], labels[80:])
        assert final_val >= 0.8

    def test_mismatched_rows_rejected(self, problem):
        features, labels = problem
        trainer = Trainer(build_mlp(4, (3,), 2, seed=0), seed=0)
        with pytest.raises(ValueError):
            trainer.fit(features, labels[:-5])

    def test_deterministic_given_seed(self, problem):
        features, labels = problem

        def run():
            model = build_mlp(4, (5,), 2, seed=1)
            train_classifier(model, features, labels, epochs=8, seed=7)
            return model.dense_layers[0].weights.copy()

        np.testing.assert_array_equal(run(), run())

class TestFinetune:
    def test_finetune_improves_perturbed_model(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        train_classifier(model, features, labels, epochs=40, seed=0)
        baseline = model.evaluate_accuracy(features, labels)

        # Damage the weights, then fine-tune back.
        for layer in model.dense_layers:
            layer.weights += np.random.default_rng(0).normal(scale=0.8, size=layer.weights.shape)
        damaged = model.evaluate_accuracy(features, labels)
        finetune(model, features, labels, epochs=25, learning_rate=0.01, seed=0)
        recovered = model.evaluate_accuracy(features, labels)
        assert recovered >= damaged
        assert recovered >= baseline - 0.1

    def test_finetune_respects_mask(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        layer = model.dense_layers[0]
        mask = np.ones_like(layer.weights)
        mask[0, :] = 0.0
        layer.mask = mask
        finetune(model, features, labels, epochs=5, seed=0)
        assert np.all(layer.effective_weights()[0, :] == 0.0)

    def test_history_as_dict_keys(self, problem):
        features, labels = problem
        model = build_mlp(4, (3,), 2, seed=0)
        history = finetune(model, features, labels, epochs=3, seed=0)
        data = history.as_dict()
        assert set(data) == {"train_loss", "train_accuracy", "val_loss", "val_accuracy"}
