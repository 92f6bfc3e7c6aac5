"""The short-class-axis helpers against the numpy expressions they replace.

``repro.nn.rowwise`` folds a short last axis column by column, and the
sparse softmax cross-entropy in ``repro.nn.losses`` reads the label's entry
instead of multiplying by a one-hot tensor. Both claim exact equality with
the numpy code they stand in for, and the trainers' bit-identity contract
rests on it. The fold for ``sum`` copies numpy's own reduction order, so a
numpy release that reorders its reductions fails here first, with the
width and shape that disagree, before any golden-hash test does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import rng_seeds

from repro.nn.losses import (
    SoftmaxCrossEntropy,
    sparse_softmax_cross_entropy,
    sparse_softmax_cross_entropy_with_grad,
)
from repro.nn.rowwise import FOLD_MAX_WIDTH, FOLD_MIN_ROWS, row_max, row_sum

widths = st.integers(1, 12)
#: Leading shapes on both sides of the fold's row threshold.
leading_shapes = st.sampled_from(
    [(1,), (5,), (3, 7), (FOLD_MIN_ROWS,), (2, FOLD_MIN_ROWS // 2), (9, 40), (64, 32)]
)

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324])


def _bits_equal(actual: np.ndarray, expected: np.ndarray, what: str) -> None:
    assert actual.shape == expected.shape, what
    assert actual.dtype == expected.dtype, what
    mismatch = actual.view(np.uint64) != expected.view(np.uint64)
    if mismatch.any():
        where = tuple(np.argwhere(mismatch)[0])
        pytest.fail(
            f"{what}: first mismatch at {where} of shape {actual.shape}: "
            f"{actual[where]!r} != numpy's {expected[where]!r} (numpy {np.__version__})"
        )


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[labels]


@settings(max_examples=120, deadline=None)
@given(leading=leading_shapes, width=widths, seed=rng_seeds, special_share=st.floats(0, 1))
def test_row_max_matches_numpy_max(leading, width, seed, special_share):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=10.0, size=leading + (width,))
    specials = rng.random(values.shape) < special_share
    values[specials] = rng.choice(SPECIALS, size=int(specials.sum()))
    _bits_equal(row_max(values), values.max(axis=-1, keepdims=True), f"row_max width {width}")


@settings(max_examples=60, deadline=None)
@given(leading=leading_shapes, width=widths, seed=rng_seeds)
def test_row_max_resolves_signed_zero_ties_like_numpy(leading, width, seed):
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(leading + (width,)) < 0.5, 0.0, -0.0)
    _bits_equal(row_max(values), values.max(axis=-1, keepdims=True), f"row_max width {width}")


@settings(max_examples=120, deadline=None)
@given(
    leading=leading_shapes,
    width=widths,
    seed=rng_seeds,
    log_scale=st.floats(-300, 300),
    spread=st.floats(0, 40),
)
def test_row_sum_matches_numpy_sum_on_positive_inputs(leading, width, seed, log_scale, spread):
    rng = np.random.default_rng(seed)
    # Magnitudes spread over many decades, as exp() of shifted logits are.
    values = 10.0 ** (log_scale / 10 - spread * rng.random(leading + (width,)))
    _bits_equal(row_sum(values), values.sum(axis=-1, keepdims=True), f"row_sum width {width}")


@settings(max_examples=60, deadline=None)
@given(leading=leading_shapes, width=widths, seed=rng_seeds)
def test_row_sum_matches_numpy_sum_on_signed_inputs(leading, width, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=leading + (width,)) * 10.0 ** rng.integers(-8, 8, size=width)
    values[rng.random(values.shape) < 0.1] = -0.0
    _bits_equal(row_sum(values), values.sum(axis=-1, keepdims=True), f"row_sum width {width}")


@pytest.mark.parametrize("width", [1, FOLD_MAX_WIDTH, FOLD_MAX_WIDTH + 1])
def test_helpers_cover_both_sides_of_the_thresholds(width):
    """The fold and the numpy fallback both run in the cases above."""
    values = np.arange(FOLD_MIN_ROWS * width, dtype=np.float64).reshape(-1, width)
    assert row_max(values).tobytes() == values.max(axis=-1, keepdims=True).tobytes()
    assert row_sum(values).tobytes() == values.sum(axis=-1, keepdims=True).tobytes()
    assert row_sum(values[:3]).tobytes() == values[:3].sum(axis=-1, keepdims=True).tobytes()


def _reference_per_sample(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The one-hot per-sample loss of ``SoftmaxCrossEntropy.forward``."""
    targets = _one_hot(labels, logits.shape[-1])
    probs = np.clip(SoftmaxCrossEntropy._softmax(logits), 1e-12, 1.0)
    return -np.sum(targets * np.log(probs), axis=-1)


logit_cases = st.tuples(leading_shapes, st.integers(1, 12), rng_seeds, st.floats(0.1, 200.0))


def _logits_and_labels(case):
    leading, width, seed, scale = case
    rng = np.random.default_rng(seed)
    # Large scales push probabilities under the 1e-12 clip and to exactly 1.
    logits = rng.normal(scale=scale, size=leading + (width,))
    labels = rng.integers(0, width, size=leading)
    return logits, labels


@settings(max_examples=120, deadline=None)
@given(case=logit_cases)
def test_label_gather_loss_matches_one_hot_loss(case):
    logits, labels = _logits_and_labels(case)
    _bits_equal(
        sparse_softmax_cross_entropy(logits, labels),
        _reference_per_sample(logits, labels),
        f"per-sample loss, {logits.shape[-1]} classes",
    )
    losses, _grad = sparse_softmax_cross_entropy_with_grad(logits, labels)
    _bits_equal(losses, _reference_per_sample(logits, labels), "loss of the grad variant")


@settings(max_examples=120, deadline=None)
@given(case=logit_cases)
def test_label_gather_gradient_matches_one_hot_gradient(case):
    logits, labels = _logits_and_labels(case)
    if logits.ndim < 2:
        logits, labels = logits[None], labels[None]
    _losses, grad = sparse_softmax_cross_entropy_with_grad(logits, labels)
    expected = SoftmaxCrossEntropy().backward(logits, _one_hot(labels, logits.shape[-1]))
    if logits.ndim == 3:
        # backward() normalises by the leading axis; a stack's rows are
        # batches of their own, normalised by the batch axis.
        expected = np.stack(
            [
                SoftmaxCrossEntropy().backward(rows, _one_hot(row_labels, logits.shape[-1]))
                for rows, row_labels in zip(logits, labels)
            ]
        )
    _bits_equal(grad, expected, f"gradient, {logits.shape[-1]} classes")


def test_mean_loss_matches_softmax_cross_entropy_forward():
    rng = np.random.default_rng(3)
    logits = rng.normal(scale=4.0, size=(300, 7))
    labels = rng.integers(0, 7, size=300)
    expected = SoftmaxCrossEntropy().forward(logits, _one_hot(labels, 7))
    assert float(sparse_softmax_cross_entropy(logits, labels).mean()) == expected


def test_labels_broadcast_across_a_stack():
    """Validation labels are shared by every genome of a stack."""
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 60, 7))
    labels = rng.integers(0, 7, size=60)
    stacked = sparse_softmax_cross_entropy(logits, labels)
    for row in range(5):
        expected = sparse_softmax_cross_entropy(logits[row], labels)
        assert stacked[row].tobytes() == expected.tobytes()


def test_helpers_leave_their_inputs_alone():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 40, 7))
    labels = rng.integers(0, 7, size=(8, 40))
    before = logits.copy()
    sparse_softmax_cross_entropy_with_grad(logits, labels)
    assert logits.tobytes() == before.tobytes()


def test_non_contiguous_logits_give_the_contiguous_result():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(40, 8, 7)).transpose(1, 0, 2)
    labels = rng.integers(0, 7, size=(8, 40))
    losses, grad = sparse_softmax_cross_entropy_with_grad(logits, labels)
    expected_losses, expected_grad = sparse_softmax_cross_entropy_with_grad(
        np.ascontiguousarray(logits), labels
    )
    assert losses.tobytes() == expected_losses.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()
