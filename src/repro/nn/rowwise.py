"""Exact reductions along a short last axis.

A classifier's score tensors end in a narrow class axis (7 columns for
WhiteWine), and numpy reduces along such an axis with one short inner loop
per row: ``scores.max(axis=-1)`` on a ``(64, 32, 7)`` stack costs several
times what folding its 7 columns element-wise does. The helpers here are
those folds, each equal bit for bit to the numpy expression it replaces:

* :func:`row_max` — ``np.maximum`` is exact and propagates NaN like the
  reduction; up to 8 columns numpy's own reduction also picks the same
  signed zero when ``+0.0`` and ``-0.0`` tie.
* :func:`row_sum` — numpy adds up to 7 elements sequentially, starting from
  the identity ``0.0``; the fold does the same adds in the same order.
  From 8 elements on numpy switches to pairwise summation.

Both defer to numpy above :data:`FOLD_MAX_WIDTH` columns, where its order
differs, and below :data:`FOLD_MIN_ROWS` rows, where the fold's one call
per column costs more than the reduction. Either way the result is the
same. ``tests/test_rowwise.py`` checks each helper against its numpy
expression over widths 1-12, on both sides of the row threshold.
"""

from __future__ import annotations

import numpy as np

#: Widest last axis the helpers fold; wider rows use numpy's own reduction.
FOLD_MAX_WIDTH = 7
#: Fewest rows worth folding (measured crossover for 3-7 columns).
FOLD_MIN_ROWS = 256


def _folds(values: np.ndarray) -> bool:
    width = values.shape[-1]
    return width <= FOLD_MAX_WIDTH and values.size >= FOLD_MIN_ROWS * width


def row_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=-1, keepdims=True)``, bit for bit."""
    if not _folds(values):
        return values.max(axis=-1, keepdims=True)
    out = values[..., :1].copy()
    for column in range(1, values.shape[-1]):
        np.maximum(out, values[..., column : column + 1], out=out)
    return out


def row_sum(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=-1, keepdims=True)``, bit for bit."""
    if not _folds(values):
        return values.sum(axis=-1, keepdims=True)
    out = values[..., :1] + 0.0
    for column in range(1, values.shape[-1]):
        np.add(out, values[..., column : column + 1], out=out)
    return out
