"""Bit-identity tests of the stacked population trainer.

The stacked trainer's contract is that genome ``g`` of a stack evolves
through exactly the float operations the serial fast path would apply to it
alone. These tests train the same populations both ways and assert byte
equality of the resulting weights and the full training histories — for
mixed bit-widths, mixed pruning masks, per-genome seeds, and populations
whose genomes early-stop at different epochs (exercising stack compaction).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Dropout
from repro.nn.network import build_mlp
from repro.nn.optimizers import Adam, StackedAdam
from repro.nn.stacked import (
    StackedTrainer,
    finetune_stacked,
    predict_stacked,
    supports_stacking,
)
from repro.nn.trainer import Trainer, TrainerConfig, finetune
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers


def _problem(rng, n=260, n_features=9, n_classes=4):
    x = rng.normal(size=(n, n_features))
    y = rng.integers(0, n_classes, size=n)
    return x, y


def _population(n_features=9, n_classes=4, specs=None):
    """Heterogeneous population: varying bits, masks and initializations."""
    if specs is None:
        specs = [(2, True, 0), (3, False, 1), (4, True, 2), (8, True, 3), (6, False, 4)]
    models = []
    for bits, do_prune, seed in specs:
        model = build_mlp(n_features, [10], n_classes, seed=seed)
        if do_prune:
            prune_by_magnitude(model, [0.5, 0.3], global_ranking=False)
        attach_quantizers(model, bits)
        models.append(model)
    return models


def _assert_identical(serial_models, stacked_models, serial_hist, stacked_hist):
    for index, (a, b) in enumerate(zip(serial_models, stacked_models)):
        for la, lb in zip(a.dense_layers, b.dense_layers):
            assert la.weights.tobytes() == lb.weights.tobytes(), f"weights {index}"
            assert la.bias.tobytes() == lb.bias.tobytes(), f"bias {index}"
    for index, (ha, hb) in enumerate(zip(serial_hist, stacked_hist)):
        assert ha.as_dict() == hb.as_dict(), f"history {index}"


class TestStackedFinetuneBitIdentity:
    def test_quantized_masked_population(self, rng):
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=70)
        seeds = [11, 12, 13, 14, 15]
        serial = _population()
        serial_hist = [
            finetune(m, x, y, xv, yv, epochs=8, learning_rate=0.003, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked = _population()
        assert supports_stacking(stacked)
        stacked_hist = finetune_stacked(
            stacked, x, y, xv, yv, epochs=8, learning_rate=0.003, seeds=seeds
        )
        _assert_identical(serial, stacked, serial_hist, stacked_hist)

    def test_heterogeneous_early_stopping(self, rng):
        """Genomes stop at different epochs -> the stack compacts mid-run."""
        x, y = _problem(rng, n=300)
        xv, yv = _problem(rng, n=80)
        specs = [(b, i % 2 == 0, i) for i, b in enumerate([2, 3, 4, 6, 8, 5, 7, 3])]
        seeds = list(range(100, 108))
        serial = _population(specs=specs)
        serial_hist = [
            finetune(m, x, y, xv, yv, epochs=30, learning_rate=0.01, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked = _population(specs=specs)
        stacked_hist = finetune_stacked(
            stacked, x, y, xv, yv, epochs=30, learning_rate=0.01, seeds=seeds
        )
        # The point of this configuration: stopping epochs must differ.
        assert len({h.epochs_run for h in serial_hist}) > 1
        _assert_identical(serial, stacked, serial_hist, stacked_hist)

    def test_no_validation_data(self, rng):
        x, y = _problem(rng)
        seeds = [5, 6, 7, 8, 9]
        serial = _population()
        serial_hist = [
            finetune(m, x, y, epochs=5, learning_rate=0.003, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked = _population()
        stacked_hist = finetune_stacked(
            stacked, x, y, epochs=5, learning_rate=0.003, seeds=seeds
        )
        _assert_identical(serial, stacked, serial_hist, stacked_hist)

    def test_unquantized_population(self, rng):
        """Plain float fine-tuning (no quantizers) also stacks bit-identically."""
        x, y = _problem(rng)
        seeds = [1, 2, 3]
        serial = [build_mlp(9, [8], 4, seed=i) for i in range(3)]
        stacked = [build_mlp(9, [8], 4, seed=i) for i in range(3)]
        assert supports_stacking(stacked)
        serial_hist = [
            finetune(m, x, y, epochs=4, learning_rate=0.01, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked_hist = finetune_stacked(
            stacked, x, y, epochs=4, learning_rate=0.01, seeds=seeds
        )
        _assert_identical(serial, stacked, serial_hist, stacked_hist)


class TestStackedPredictions:
    def test_predict_stacked_matches_serial(self, rng):
        x, y = _problem(rng)
        models = _population()
        seeds = [21, 22, 23, 24, 25]
        finetune_stacked(models, x, y, epochs=3, seeds=seeds)
        predictions = predict_stacked(models, x)
        assert predictions.shape == (len(models), x.shape[0])
        for index, model in enumerate(models):
            assert (predictions[index] == model.predict(x)).all()

    def test_predict_stacked_rejects_empty(self):
        with pytest.raises(ValueError):
            predict_stacked([], np.zeros((3, 4)))


class TestSupportsStacking:
    def test_rejects_empty_and_mismatched(self):
        assert not supports_stacking([])
        a = build_mlp(6, [8], 3, seed=0)
        b = build_mlp(6, [9], 3, seed=0)
        assert not supports_stacking([a, b])

    def test_rejects_dropout(self):
        model = build_mlp(6, [8], 3, dropout=0.2, seed=0)
        assert not supports_stacking([model])
        assert isinstance(model.layers[2], Dropout)

    def test_rejects_mixed_quantizer_patterns(self):
        a = build_mlp(6, [8], 3, seed=0)
        attach_quantizers(a, 4)
        b = build_mlp(6, [8], 3, seed=1)
        assert not supports_stacking([a, b])

    def test_rejects_frozen_scales(self):
        a = build_mlp(6, [8], 3, seed=0)
        quantizers = attach_quantizers(a, 4)
        quantizers[0].calibrate(a.dense_layers[0].weights)
        assert not supports_stacking([a])

    def test_constructor_raises_for_unstackable(self):
        a = build_mlp(6, [8], 3, seed=0)
        b = build_mlp(6, [9], 3, seed=0)
        with pytest.raises(ValueError):
            StackedTrainer([a, b], learning_rate=0.01)


class TestStackedAdam:
    def test_matches_per_model_adam(self, rng):
        """Each row of the stacked update == an independent fused Adam."""
        n_models, size = 4, 23
        stacked_params = rng.normal(size=(n_models, size))
        serial_params = [stacked_params[i].copy() for i in range(n_models)]
        rates = [0.01, 0.003, 0.02, 0.001]
        stacked = StackedAdam(rates)
        serials = [Adam(learning_rate=rate) for rate in rates]
        for _ in range(20):
            grads = rng.normal(size=(n_models, size))
            stacked.update(stacked_params, grads)
            for index, adam in enumerate(serials):
                adam.update([serial_params[index]], [grads[index].copy()])
        for index in range(n_models):
            assert stacked_params[index].tobytes() == serial_params[index].tobytes()

    def test_compact_preserves_survivor_rows(self, rng):
        params = rng.normal(size=(3, 7))
        reference = params[1].copy().reshape(1, -1)
        stacked = StackedAdam([0.01, 0.01, 0.01])
        lone = StackedAdam([0.01])
        grads = rng.normal(size=(3, 7))
        stacked.update(params, grads)
        lone.update(reference, grads[1].copy().reshape(1, -1))
        keep = np.array([1], dtype=np.intp)
        params = params[keep]
        stacked.compact(keep)
        for _ in range(5):
            grad = rng.normal(size=(1, 7))
            stacked.update(params, grad)
            lone.update(reference, grad.copy())
        assert params.tobytes() == reference.tobytes()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            StackedAdam([])
        with pytest.raises(ValueError):
            StackedAdam([0.0])
        optimizer = StackedAdam([0.01])
        with pytest.raises(ValueError):
            optimizer.update(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            optimizer.update(np.zeros((2, 3)), np.zeros((2, 3)))


class TestTrainerConfigInteractions:
    def test_monitor_val_loss(self, rng):
        """The val_loss monitor drives identical early stopping either way."""
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=60)
        config = TrainerConfig(
            epochs=6, batch_size=32, early_stopping_patience=3, monitor="val_loss"
        )
        from repro.nn.trainer import Trainer

        seeds = [41, 42, 43, 44, 45]
        serial = _population()
        serial_hist = []
        for model, seed in zip(serial, seeds):
            trainer = Trainer(
                model,
                optimizer=Adam(learning_rate=0.003),
                config=config,
                seed=seed,
            )
            serial_hist.append(trainer.fit(x, y, xv, yv))
        stacked = _population()
        trainer = StackedTrainer(stacked, 0.003, config=config, seeds=seeds)
        stacked_hist = trainer.fit(x, y, xv, yv)
        _assert_identical(serial, stacked, serial_hist, stacked_hist)


class TestDeferredTrainAccuracy:
    """Train accuracy nobody monitors is computed on the histories' first read."""

    EPOCHS = 6
    SEEDS = [21, 22, 23, 24, 25]

    @staticmethod
    def _count_train_forwards(monkeypatch, n_train):
        calls = []
        forward = StackedTrainer._forward

        def counting(self, features, views):
            if features.shape[0] == n_train:
                calls.append(features.shape)
            return forward(self, features, views)

        monkeypatch.setattr(StackedTrainer, "_forward", counting)
        return calls

    def _serial(self, x, y, xv, yv, config):
        models = _population()
        histories = [
            Trainer(m, optimizer=Adam(learning_rate=0.003), config=config, seed=s).fit(x, y, xv, yv)
            for m, s in zip(models, self.SEEDS)
        ]
        return models, histories

    def _stacked(self, x, y, xv, yv, config):
        models = _population()
        trainer = StackedTrainer(models, 0.003, config=config, seeds=self.SEEDS)
        return models, trainer.fit(x, y, xv, yv)

    def test_validation_split_defers_until_read(self, rng, monkeypatch):
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=70)
        config = TrainerConfig(epochs=self.EPOCHS, early_stopping_patience=2)
        serial_models, serial_hist = self._serial(x, y, xv, yv, config)
        calls = self._count_train_forwards(monkeypatch, x.shape[0])
        stacked_models, stacked_hist = self._stacked(x, y, xv, yv, config)
        assert calls == []
        epochs = max(history.epochs_run for history in stacked_hist)

        # Neither the models nor the caller's x_train reach the pending record.
        for model in stacked_models:
            for layer in model.dense_layers:
                layer.weights = np.zeros_like(layer.weights)
        x[:] = 0.0

        assert len(stacked_hist[2].train_accuracy) == stacked_hist[2].epochs_run
        assert len(calls) == epochs  # one batched forward per recorded epoch
        for serial, stacked in zip(serial_hist, stacked_hist):
            assert [v.hex() for v in stacked.train_accuracy] == [
                v.hex() for v in serial.train_accuracy
            ]
            assert stacked.train_accuracy[-1] == serial.train_accuracy[-1]
            assert stacked == serial
            assert stacked.as_dict() == serial.as_dict()
        assert len(calls) == epochs  # the first read computed every history

    def test_comparison_and_as_dict_resolve_pending_values(self, rng):
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=70)
        config = TrainerConfig(epochs=3, early_stopping_patience=None)
        _, serial_hist = self._serial(x, y, xv, yv, config)
        _, stacked_hist = self._stacked(x, y, xv, yv, config)
        assert stacked_hist[0] == serial_hist[0]
        assert stacked_hist[1].as_dict() == serial_hist[1].as_dict()
        assert repr(stacked_hist[2]) == repr(serial_hist[2])

    def test_val_loss_monitor_without_validation_defers(self, rng, monkeypatch):
        x, y = _problem(rng)
        config = TrainerConfig(epochs=self.EPOCHS, early_stopping_patience=2, monitor="val_loss")
        serial_models, serial_hist = self._serial(x, y, None, None, config)
        calls = self._count_train_forwards(monkeypatch, x.shape[0])
        stacked_models, stacked_hist = self._stacked(x, y, None, None, config)
        assert calls == []
        _assert_identical(serial_models, stacked_models, serial_hist, stacked_hist)
        assert calls

    def test_train_accuracy_monitor_stays_eager(self, rng, monkeypatch):
        x, y = _problem(rng)
        config = TrainerConfig(epochs=self.EPOCHS, early_stopping_patience=2)
        serial_models, serial_hist = self._serial(x, y, None, None, config)
        calls = self._count_train_forwards(monkeypatch, x.shape[0])
        stacked_models, stacked_hist = self._stacked(x, y, None, None, config)
        epochs = max(history.epochs_run for history in stacked_hist)
        assert len(calls) == epochs
        _assert_identical(serial_models, stacked_models, serial_hist, stacked_hist)
        assert len(calls) == epochs
