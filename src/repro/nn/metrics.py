"""Classification metrics used throughout the reproduction.

The paper reports only top-1 accuracy; :func:`per_class_accuracy` shows
per-class behaviour when pruning aggressively.
"""

from __future__ import annotations

import numpy as np


def _to_labels(y: np.ndarray) -> np.ndarray:
    """Accept either class indices or one-hot/probability rows."""
    y = np.asarray(y)
    if y.ndim == 2 and y.shape[1] > 1:
        return np.argmax(y, axis=1)
    return y.reshape(-1).astype(int)


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Top-1 accuracy. Inputs may be labels, one-hot rows, or probabilities."""
    true_labels = _to_labels(y_true)
    pred_labels = _to_labels(y_pred)
    if true_labels.shape != pred_labels.shape:
        raise ValueError(
            f"Shape mismatch: {true_labels.shape} vs {pred_labels.shape}"
        )
    if true_labels.size == 0:
        raise ValueError("Cannot compute accuracy of empty arrays")
    return float(np.mean(true_labels == pred_labels))


def per_class_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Recall of every class (NaN for classes absent from ``y_true``)."""
    true_labels = _to_labels(y_true)
    pred_labels = _to_labels(y_pred)
    n_classes = int(max(true_labels.max(), pred_labels.max())) + 1
    totals = np.bincount(true_labels, minlength=n_classes).astype(np.float64)
    correct = np.bincount(true_labels[true_labels == pred_labels], minlength=n_classes)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(totals > 0, correct / totals, np.nan)


def accuracy_drop(baseline_accuracy: float, accuracy_value: float) -> float:
    """Absolute accuracy loss relative to a baseline (positive = worse).

    This is the x-axis of the paper's Figures 1 and 2 once normalized: the
    paper's "5 % accuracy loss" threshold is ``accuracy_drop <= 0.05``.
    """
    return float(baseline_accuracy - accuracy_value)
