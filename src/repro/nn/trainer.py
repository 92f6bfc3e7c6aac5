"""Mini-batch trainer with early stopping and learning-rate scheduling.

Training in this reproduction happens in three places, all through this
module: the initial float training of each baseline classifier, the
quantization-aware (re)training after fake-quantizers are attached, and the
short fine-tuning passes after pruning or clustering. They differ only in the
number of epochs and whether hooks are present on the Dense layers, so one
trainer covers all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..hardware.fixed_point import derive_scale
from .layers import ActivationLayer, Dense
from .losses import (
    Loss,
    SoftmaxCrossEntropy,
    sparse_softmax_cross_entropy_with_grad,
)
from .metrics import accuracy
from .network import MLP
from .optimizers import Adam, Optimizer


class TrainingHistory:
    """Per-epoch record of losses and accuracies.

    Constructed, compared (``==``) and printed like a dataclass of its four
    lists. A stacked fit (:class:`~repro.nn.stacked.StackedTrainer`) whose
    early stopping does not watch the train accuracy leaves
    ``train_accuracy`` pending: the values are computed on its first read,
    and are the ones an eager fit records.
    """

    def __init__(
        self,
        train_loss: Optional[List[float]] = None,
        train_accuracy: Optional[List[float]] = None,
        val_loss: Optional[List[float]] = None,
        val_accuracy: Optional[List[float]] = None,
    ) -> None:
        self._pending_train_accuracy: Optional[Callable[[], List[float]]] = None
        self.train_loss = [] if train_loss is None else train_loss
        self.train_accuracy = [] if train_accuracy is None else train_accuracy
        self.val_loss = [] if val_loss is None else val_loss
        self.val_accuracy = [] if val_accuracy is None else val_accuracy

    @property
    def train_accuracy(self) -> List[float]:
        if self._pending_train_accuracy is not None:
            source, self._pending_train_accuracy = self._pending_train_accuracy, None
            self._train_accuracy.extend(source())
        return self._train_accuracy

    @train_accuracy.setter
    def train_accuracy(self, values: List[float]) -> None:
        self._train_accuracy = values
        self._pending_train_accuracy = None

    def _defer_train_accuracy(self, source: Callable[[], List[float]]) -> None:
        """Leave the train accuracies to ``source``, called on the first read."""
        self._pending_train_accuracy = source

    def _fields(self) -> Tuple[List[float], ...]:
        return (self.train_loss, self.train_accuracy, self.val_loss, self.val_accuracy)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # mutable, like an eq dataclass

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(train_loss={self.train_loss!r}, "
            f"train_accuracy={self.train_accuracy!r}, val_loss={self.val_loss!r}, "
            f"val_accuracy={self.val_accuracy!r})"
        )

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else float("nan")

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "val_loss": list(self.val_loss),
            "val_accuracy": list(self.val_accuracy),
        }


@dataclass
class TrainerConfig:
    """Hyper-parameters controlling :class:`Trainer.fit`."""

    epochs: int = 100
    batch_size: int = 32
    shuffle: bool = True
    #: Stop if the monitored quantity has not improved for this many epochs.
    early_stopping_patience: Optional[int] = 15
    #: ``"val_accuracy"`` or ``"val_loss"`` (falls back to train metrics when
    #: no validation data is supplied).
    monitor: str = "val_accuracy"
    #: Multiply the learning rate by this factor when patience/2 epochs pass
    #: without improvement (set to 1.0 to disable).
    lr_decay_factor: float = 0.5
    min_learning_rate: float = 1e-5
    #: Restore the best-seen weights at the end of training.
    restore_best_weights: bool = True
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.monitor not in ("val_accuracy", "val_loss"):
            raise ValueError(f"monitor must be 'val_accuracy' or 'val_loss', got {self.monitor}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError("lr_decay_factor must be in (0, 1]")


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels).reshape(-1).astype(int)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _class_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer class labels, checked against the model's output width."""
    labels = np.asarray(labels).reshape(-1).astype(int)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got [{labels.min()}, {labels.max()}]"
        )
    return labels


class Trainer:
    """Fits an :class:`~repro.nn.network.MLP` on labelled data.

    Args:
        model: the network to train (modified in place).
        optimizer: optimizer instance (default Adam).
        loss: loss instance (default fused softmax cross-entropy on logits).
        config: training hyper-parameters.
        seed: seed for the shuffling generator.
        fast_path: use the fused QAT training step when the model/loss shape
            allows it (plain Dense/Activation stack, softmax cross-entropy).
            The fast path executes the same float operations as the layerwise
            loop — effective weights are cached per optimizer step, the
            softmax is shared between the loss value and its gradient, and
            the dead input-gradient matmul of the first layer is skipped —
            so trajectories are bit-identical (property-tested). Set to
            ``False`` to force the layerwise reference path.
    """

    def __init__(
        self,
        model: MLP,
        optimizer: Optional[Optimizer] = None,
        loss: Optional[Loss] = None,
        config: Optional[TrainerConfig] = None,
        seed: Optional[int] = None,
        fast_path: bool = True,
    ) -> None:
        self.model = model
        self.optimizer = optimizer if optimizer is not None else Adam(learning_rate=0.01)
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.config = config if config is not None else TrainerConfig()
        self.fast_path = bool(fast_path)
        self._quant_pack: "dict | None" = None
        self._rng = np.random.default_rng(seed)

    # -- main loop ------------------------------------------------------------

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train the model; returns the per-epoch history.

        ``y_train`` / ``y_val`` are integer class labels in
        ``[0, n_classes)`` of the model's output width (``ValueError``
        otherwise).
        """
        n_classes = self.model.topology()[-1]
        x_train = np.asarray(x_train, dtype=np.float64)
        y_train = _class_labels(y_train, n_classes)
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError(
                f"x_train has {x_train.shape[0]} rows but y_train has {y_train.shape[0]}"
            )

        has_val = x_val is not None and y_val is not None
        if has_val:
            x_val = np.asarray(x_val, dtype=np.float64)
            y_val = _class_labels(y_val, n_classes)
            val_targets = _one_hot(y_val, n_classes)

        history = TrainingHistory()
        cfg = self.config
        best_metric = -np.inf
        best_weights = None
        epochs_without_improvement = 0
        dense_layers = self.model.dense_layers
        # The fused step gathers integer labels; the reference loop hands
        # one-hot targets to the generic loss.
        if self._supports_fused_epoch():
            run_epoch = self._run_epoch_fused
            targets = y_train
            self._quant_pack = self._build_quant_pack(dense_layers)
        else:
            run_epoch = self._run_epoch
            targets = _one_hot(y_train, n_classes)
            self._quant_pack = None
        for layer in dense_layers:
            layer.set_effective_cache(True)
        try:
            for epoch in range(cfg.epochs):
                train_loss = run_epoch(x_train, targets)
                train_acc = self.model.evaluate_accuracy(x_train, y_train)
                history.train_loss.append(train_loss)
                history.train_accuracy.append(train_acc)

                if has_val:
                    val_scores = self.model.predict_scores(x_val)
                    val_loss = self.loss.forward(val_scores, val_targets)
                    val_acc = accuracy(y_val, np.argmax(val_scores, axis=-1))
                    history.val_loss.append(val_loss)
                    history.val_accuracy.append(val_acc)
                    monitored = val_acc if cfg.monitor == "val_accuracy" else -val_loss
                else:
                    monitored = train_acc if cfg.monitor == "val_accuracy" else -train_loss

                if cfg.verbose:  # pragma: no cover - console output
                    msg = f"epoch {epoch + 1}/{cfg.epochs} loss={train_loss:.4f} acc={train_acc:.4f}"
                    if has_val:
                        msg += f" val_acc={history.val_accuracy[-1]:.4f}"
                    print(msg)

                if monitored > best_metric + 1e-9:
                    best_metric = monitored
                    epochs_without_improvement = 0
                    if cfg.restore_best_weights:
                        best_weights = self.model.get_weights()
                else:
                    epochs_without_improvement += 1
                    self._maybe_decay_learning_rate(epochs_without_improvement)
                    if (
                        cfg.early_stopping_patience is not None
                        and epochs_without_improvement >= cfg.early_stopping_patience
                    ):
                        break
        finally:
            for layer in dense_layers:
                layer.set_effective_cache(False)

        if cfg.restore_best_weights and best_weights is not None:
            self.model.set_weights(best_weights)
        return history

    def _supports_fused_epoch(self) -> bool:
        """Whether the model/loss pair fits the fused QAT training step.

        The fused step handles the printed-classifier shape: a stack of
        Dense and Activation layers trained against softmax cross-entropy.
        Anything else (Dropout, custom layers, other losses) falls back to
        the layerwise reference loop, which stays bit-identical thanks to
        the per-step effective-weight cache.
        """
        if not self.fast_path:
            return False
        if type(self.loss) is not SoftmaxCrossEntropy:
            return False
        if not self.model.dense_layers:
            return False
        return all(
            isinstance(layer, (Dense, ActivationLayer)) for layer in self.model.layers
        )

    def _run_epoch(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Layerwise reference epoch (used when the fused step does not apply)."""
        cfg = self.config
        n_samples = inputs.shape[0]
        order = np.arange(n_samples)
        if cfg.shuffle:
            self._rng.shuffle(order)
        dense_layers = self.model.dense_layers
        total_loss = 0.0
        n_batches = 0
        for start in range(0, n_samples, cfg.batch_size):
            batch_idx = order[start : start + cfg.batch_size]
            x_batch = inputs[batch_idx]
            y_batch = targets[batch_idx]
            scores = self.model.forward(x_batch, training=True)
            total_loss += self.loss.forward(scores, y_batch)
            grad = self.loss.backward(scores, y_batch)
            self.model.backward(grad)
            self.optimizer.update(self.model.parameters, self.model.gradients)
            for layer in dense_layers:
                layer.invalidate_effective_cache()
            n_batches += 1
        return total_loss / max(n_batches, 1)

    def _build_quant_pack(self, dense_layers: "List[Dense]") -> "dict | None":
        """Plan the packed per-step fake-quantization of all parameters.

        During QAT every Dense layer re-derives a fixed-point format and
        requantizes its weights and bias once per optimizer step. All those
        tensors can share one flattened pipeline — one mask multiply, one
        divide/rint/clip/rescale pass over a single buffer with per-segment
        scale and level vectors — because every operation is element-wise
        and the per-tensor scales are plain broadcast values. The float
        sequence per element is exactly the one
        :meth:`~repro.quantization.SymmetricQuantizer.__call__` applies, so
        packed and per-tensor quantization are bit-identical.

        Only :class:`~repro.quantization.SymmetricQuantizer` hooks are
        packable; tensors with other (or no) quantizers stay on the generic
        ``effective_weights()`` path. Returns ``None`` when nothing is
        packable.
        """
        # Deferred import: repro.quantization imports repro.nn for QAT.
        from ..quantization.quantizers import SymmetricQuantizer

        segments = []
        for layer in dense_layers:
            for attribute, array, quantizer, mask in layer.quantizable_tensors():
                if type(quantizer) is not SymmetricQuantizer:
                    continue
                segments.append(
                    {
                        "layer": layer,
                        "attribute": attribute,
                        "array": array,
                        "shape": array.shape,
                        "mask": mask,
                        "max_level": float(quantizer._max_level),
                        "quantizer": quantizer,
                    }
                )
        if not segments:
            return None
        offset = 0
        for segment in segments:
            size = segment["array"].size
            segment["slice"] = slice(offset, offset + size)
            offset += size
        total = offset
        flat_mask = np.ones(total)
        level_vec = np.empty(total)
        for segment in segments:
            if segment["mask"] is not None:
                flat_mask[segment["slice"]] = segment["mask"].reshape(-1)
            level_vec[segment["slice"]] = segment["max_level"]
        return {
            "segments": segments,
            "mask": flat_mask,
            "pos_level": level_vec,
            "neg_level": -level_vec,
            "raw": np.empty(total),
            "masked": np.empty(total),
            "abs": np.empty(total),
            "scale": np.empty(total),
            "effective": np.empty(total),
        }

    @staticmethod
    def _apply_quant_pack(pack: dict) -> None:
        """One packed fake-quantization step; publishes per-layer cache views."""
        raw = pack["raw"]
        masked = pack["masked"]
        abs_buf = pack["abs"]
        scale = pack["scale"]
        effective = pack["effective"]
        segments = pack["segments"]
        for segment in segments:
            raw[segment["slice"]] = segment["array"].reshape(-1)
        np.multiply(raw, pack["mask"], out=masked)
        np.abs(masked, out=abs_buf)
        for segment in segments:
            fixed = segment["quantizer"].scale
            if fixed is None:
                max_abs = float(abs_buf[segment["slice"]].max()) if segment["array"].size else 0.0
                fixed = derive_scale(max_abs, segment["max_level"])
            scale[segment["slice"]] = fixed
        np.divide(masked, scale, out=effective)
        np.rint(effective, out=effective)
        np.maximum(effective, pack["neg_level"], out=effective)
        np.minimum(effective, pack["pos_level"], out=effective)
        effective += 0.0
        effective *= scale
        for segment in segments:
            view = effective[segment["slice"]].reshape(segment["shape"])
            if segment["attribute"] == "weights":
                segment["layer"]._cached_effective_weights = view
            else:
                segment["layer"]._cached_effective_bias = view

    def _run_epoch_fused(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Fused QAT training step over one epoch.

        Numerically identical to :meth:`_run_epoch` with less per-batch
        Python/numpy overhead:

        * the epoch's shuffled sample matrix is gathered once instead of
          fancy-indexing every batch (the shuffle consumes the RNG exactly
          like the reference loop);
        * effective (masked + fake-quantized) weights are computed once per
          optimizer step and shared by forward and backward, so the
          quantizer derives its fixed-point format once per step;
        * the softmax is computed once and shared between the loss value and
          its gradient (the reference loss recomputes it from the same
          logits, which yields the same floats), against integer labels
          instead of one-hot targets
          (:func:`~repro.nn.losses.sparse_softmax_cross_entropy_with_grad`,
          exact by the argument in its docstring);
        * the first Dense layer's input gradient — discarded by definition —
          is never computed;
        * parameter/gradient lists are assembled locally and handed to the
          (fused) optimizer in the same order as ``model.parameters``.
        """
        cfg = self.config
        model = self.model
        n_samples = inputs.shape[0]
        order = np.arange(n_samples)
        if cfg.shuffle:
            self._rng.shuffle(order)
        x_all = inputs[order]
        y_all = labels[order]

        dense_layers = model.dense_layers
        # The input gradient is dead only for the model's *first* layer; a
        # Dense preceded by an activation must still propagate to it.
        first_layer = model.layers[0]
        optimizer = self.optimizer
        # Per-layer dispatch plan, resolved once per epoch: (is_dense, layer,
        # activation-or-None). Parameter arrays are updated in place, so the
        # list is stable for the whole epoch.
        plan = [
            (isinstance(layer, Dense), layer, getattr(layer, "activation", None))
            for layer in model.layers
        ]
        parameters = []
        for layer in dense_layers:
            parameters.append(layer.weights)
            if layer.use_bias:
                parameters.append(layer.bias)
        quant_pack = self._quant_pack
        total_loss = 0.0
        n_batches = 0
        for start in range(0, n_samples, cfg.batch_size):
            x_batch = x_all[start : start + cfg.batch_size]
            y_batch = y_all[start : start + cfg.batch_size]

            if quant_pack is not None:
                self._apply_quant_pack(quant_pack)

            # Forward, remembering each layer's input.
            layer_inputs = []
            out = x_batch
            for is_dense, layer, activation in plan:
                layer_inputs.append(out)
                if is_dense:
                    out = out @ layer.effective_weights()
                    if layer.use_bias:
                        out += layer.effective_bias()
                else:
                    out = activation.forward(out)

            losses, grad = sparse_softmax_cross_entropy_with_grad(out, y_batch)
            total_loss += float(losses.mean())

            # Backward; gradients collected in model.parameters order.
            gradients = []
            for (is_dense, layer, activation), layer_input in zip(
                reversed(plan), reversed(layer_inputs)
            ):
                if is_dense:
                    grad_weights = layer_input.T @ grad
                    if layer.mask is not None:
                        grad_weights = grad_weights * layer.mask
                    layer.grad_weights = grad_weights
                    if layer.use_bias:
                        layer.grad_bias = grad.sum(axis=0)
                        gradients.append(layer.grad_bias)
                    gradients.append(grad_weights)
                    if layer is not first_layer:
                        grad = grad @ layer.effective_weights().T
                else:
                    grad = activation.backward(layer_input, grad)
            gradients.reverse()
            optimizer.update(parameters, gradients)
            for layer in dense_layers:
                layer.invalidate_effective_cache()
            n_batches += 1
        return total_loss / max(n_batches, 1)

    def _maybe_decay_learning_rate(self, epochs_without_improvement: int) -> None:
        cfg = self.config
        if cfg.lr_decay_factor >= 1.0 or cfg.early_stopping_patience is None:
            return
        if epochs_without_improvement == max(cfg.early_stopping_patience // 2, 1):
            new_lr = max(
                self.optimizer.learning_rate * cfg.lr_decay_factor,
                cfg.min_learning_rate,
            )
            self.optimizer.learning_rate = new_lr


def train_classifier(
    model: MLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 100,
    batch_size: int = 32,
    learning_rate: float = 0.01,
    patience: Optional[int] = 15,
    seed: Optional[int] = None,
    verbose: bool = False,
) -> TrainingHistory:
    """One-call convenience wrapper used by examples and experiments."""
    config = TrainerConfig(
        epochs=epochs,
        batch_size=batch_size,
        early_stopping_patience=patience,
        verbose=verbose,
    )
    trainer = Trainer(
        model,
        optimizer=Adam(learning_rate=learning_rate),
        config=config,
        seed=seed,
    )
    return trainer.fit(x_train, y_train, x_val, y_val)


def finetune(
    model: MLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 20,
    learning_rate: float = 0.003,
    batch_size: int = 32,
    seed: Optional[int] = None,
) -> TrainingHistory:
    """Short retraining pass after a minimization step (QAT / pruning / clustering).

    Uses a smaller learning rate and fewer epochs than initial training, and
    keeps early stopping aggressive — matching how QAT retraining is applied
    in the paper's QKeras flow.
    """
    config = TrainerConfig(
        epochs=epochs,
        batch_size=batch_size,
        early_stopping_patience=max(3, epochs // 3),
        verbose=False,
    )
    trainer = Trainer(
        model,
        optimizer=Adam(learning_rate=learning_rate),
        config=config,
        seed=seed,
    )
    return trainer.fit(x_train, y_train, x_val, y_val)
