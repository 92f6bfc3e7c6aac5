"""Loss functions for training printed-MLP classifiers.

Classification in the paper is plain categorical cross-entropy (via Keras /
QKeras); regression losses are included because they are useful for the
clustering fine-tuning utilities and for property tests of the optimizers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .rowwise import row_max, row_sum

_EPS = 1e-12


class Loss:
    """Base class: ``forward`` returns a scalar, ``backward`` the gradient."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class MeanSquaredError(Loss):
    """Mean squared error averaged over all elements."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        diff = np.asarray(predictions, dtype=np.float64) - np.asarray(
            targets, dtype=np.float64
        )
        return float(np.mean(diff * diff))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        return 2.0 * (predictions - targets) / predictions.size


class MeanAbsoluteError(Loss):
    """Mean absolute error averaged over all elements."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        diff = np.asarray(predictions, dtype=np.float64) - np.asarray(
            targets, dtype=np.float64
        )
        return float(np.mean(np.abs(diff)))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        return np.sign(predictions - targets) / predictions.size


class CategoricalCrossEntropy(Loss):
    """Cross-entropy over probability vectors (expects softmax outputs).

    ``targets`` must be one-hot encoded with the same shape as
    ``predictions``; rows are averaged.
    """

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions = np.clip(np.asarray(predictions, dtype=np.float64), _EPS, 1.0)
        targets = np.asarray(targets, dtype=np.float64)
        per_sample = -np.sum(targets * np.log(predictions), axis=-1)
        return float(np.mean(per_sample))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions = np.clip(np.asarray(predictions, dtype=np.float64), _EPS, 1.0)
        targets = np.asarray(targets, dtype=np.float64)
        n = predictions.shape[0] if predictions.ndim > 1 else 1
        return -(targets / predictions) / n


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + cross-entropy on raw logits.

    Numerically stabler than chaining :class:`~repro.nn.activations.Softmax`
    with :class:`CategoricalCrossEntropy`, and the gradient collapses to the
    familiar ``softmax(logits) - targets``.
    """

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / np.sum(exp, axis=-1, keepdims=True)

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        probs = np.clip(self._softmax(logits), _EPS, 1.0)
        per_sample = -np.sum(targets * np.log(probs), axis=-1)
        return float(np.mean(per_sample))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        logits = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        probs = self._softmax(logits)
        n = logits.shape[0] if logits.ndim > 1 else 1
        return (probs - targets) / n


def _softmax_pick(logits: np.ndarray, labels: np.ndarray):
    """Row softmax of ``logits`` plus each row's label entry.

    Returns ``(probs, index, picked)``: a fresh softmax buffer, the flat
    positions of the label entries in it, and their values. ``labels`` holds
    class indices and broadcasts against ``logits.shape[:-1]``.
    """
    probs = np.subtract(logits, row_max(logits), order="C")
    np.exp(probs, out=probs)
    probs /= row_sum(probs)
    n_classes = probs.shape[-1]
    index = labels + np.arange(0, probs.size, n_classes).reshape(probs.shape[:-1])
    return probs, index, probs.reshape(-1).take(index)


def _label_loss(picked: np.ndarray) -> np.ndarray:
    return -np.log(np.minimum(np.maximum(picked, _EPS), 1.0))


def sparse_softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample :class:`SoftmaxCrossEntropy` against integer labels.

    Returns an array of shape ``logits.shape[:-1]``; its mean over the
    sample axis equals ``SoftmaxCrossEntropy().forward`` with one-hot
    targets bit for bit. The one-hot form sums one ``log`` term and
    ``C - 1`` signed zeros, which adds nothing, so reading the label's
    probability directly gives the same float. Labels must lie in
    ``[0, C)``; they are not checked here.
    """
    _probs, _index, picked = _softmax_pick(logits, labels)
    return _label_loss(picked)


def sparse_softmax_cross_entropy_with_grad(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and the gradient of their mean over axis ``-2``.

    The gradient equals ``SoftmaxCrossEntropy().backward`` with one-hot
    targets bit for bit: subtracting the target's ``0.0`` leaves a
    probability unchanged, so only the label entries change, by ``- 1.0``.
    The softmax is computed once and shared with the loss.
    """
    probs, index, picked = _softmax_pick(logits, labels)
    losses = _label_loss(picked)
    probs.reshape(-1)[index] = picked - 1.0
    probs /= logits.shape[-2]
    return losses, probs
