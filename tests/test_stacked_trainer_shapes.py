"""Stacked vs serial fine-tuning over class counts, depths and ragged batches.

``tests/test_stacked_trainer.py`` pins the stacked trainer's bit identity on
4-class, one-hidden-layer models. The per-batch step reduces along the
class axis with column folds up to 7 classes and with numpy's own
reductions above, and the fold only runs on stacks of at least
``FOLD_MIN_ROWS`` rows. The cases here cross both thresholds: 2, 7 and 9
classes, one and two hidden layers, populations large enough to fold, and
a training set whose last batch is short (and too short to fold).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.network import build_mlp
from repro.nn.rowwise import FOLD_MIN_ROWS
from repro.nn.stacked import finetune_stacked
from repro.nn.trainer import finetune
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers

N_FEATURES = 9
BATCH = 32
#: Enough genomes that a full batch folds and a short last batch does not.
N_GENOMES = FOLD_MIN_ROWS // BATCH
BITS = (2, 3, 4, 5, 6, 8, 3, 7)


def _population(hidden, n_classes):
    models = []
    for index in range(N_GENOMES):
        model = build_mlp(N_FEATURES, list(hidden), n_classes, seed=index)
        if index % 2 == 0:
            prune_by_magnitude(model, [0.4] * (len(hidden) + 1), global_ranking=False)
        attach_quantizers(model, BITS[index % len(BITS)])
        models.append(model)
    return models


def _problem(seed, n, n_classes):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, N_FEATURES))
    # Labels follow the features a little, so accuracies move between epochs.
    y = (np.abs(x[:, 0] * 3 + x[:, 1]).astype(int) + rng.integers(0, 2, size=n)) % n_classes
    return x, y


def _assert_identical(serial, stacked, serial_hist, stacked_hist):
    for index, (a, b) in enumerate(zip(serial, stacked)):
        for la, lb in zip(a.dense_layers, b.dense_layers):
            assert la.weights.tobytes() == lb.weights.tobytes(), f"weights {index}"
            assert la.bias.tobytes() == lb.bias.tobytes(), f"bias {index}"
    for index, (ha, hb) in enumerate(zip(serial_hist, stacked_hist)):
        assert ha.as_dict() == hb.as_dict(), f"history {index}"


@pytest.mark.parametrize("n_classes", [2, 7, 9])
@pytest.mark.parametrize("hidden", [(10,), (9, 6)], ids=["1-hidden", "2-hidden"])
@pytest.mark.parametrize("n_train", [10 * BATCH, 9 * BATCH + 5], ids=["even", "ragged"])
def test_stacked_matches_serial(n_classes, hidden, n_train):
    x, y = _problem(n_classes, n_train, n_classes)
    xv, yv = _problem(100 + n_classes, 70, n_classes)
    seeds = list(range(30, 30 + N_GENOMES))
    serial = _population(hidden, n_classes)
    serial_hist = [
        finetune(model, x, y, xv, yv, epochs=5, learning_rate=0.01, seed=seed)
        for model, seed in zip(serial, seeds)
    ]
    stacked = _population(hidden, n_classes)
    stacked_hist = finetune_stacked(
        stacked, x, y, xv, yv, epochs=5, learning_rate=0.01, seeds=seeds
    )
    _assert_identical(serial, stacked, serial_hist, stacked_hist)


def test_stacked_matches_serial_without_validation():
    x, y = _problem(1, 9 * BATCH + 5, 7)
    seeds = list(range(N_GENOMES))
    serial = _population((9, 6), 7)
    serial_hist = [
        finetune(model, x, y, epochs=4, learning_rate=0.01, seed=seed)
        for model, seed in zip(serial, seeds)
    ]
    stacked = _population((9, 6), 7)
    stacked_hist = finetune_stacked(stacked, x, y, epochs=4, learning_rate=0.01, seeds=seeds)
    _assert_identical(serial, stacked, serial_hist, stacked_hist)


@pytest.mark.parametrize("bad", [-1, 7])
def test_out_of_range_labels_are_rejected(bad):
    x, y = _problem(2, 40, 7)
    y[3] = bad
    with pytest.raises(ValueError, match="labels"):
        finetune_stacked(_population((10,), 7)[:2], x, y, epochs=1)
    with pytest.raises(ValueError, match="labels"):
        finetune(_population((10,), 7)[0], x, y, epochs=1)
