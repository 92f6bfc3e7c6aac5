"""Population-level stacked training: fused QAT for G genomes at once.

The per-genome evaluation hot path fine-tunes one small MLP per genome; a
whole NSGA-II generation is G such fine-tunings over the *same* data with
the *same* schedule, differing only in per-genome weights, pruning masks,
quantizer bit-widths and RNG seeds. :class:`StackedTrainer` runs all of them
as one set of ``(G, ...)`` tensor ops — every numpy dispatch is amortized
over the population instead of being paid per genome, which is where the
residual single-genome overhead lives (see ``docs/performance.md``).

Bit-identity contract
---------------------

Stacked training is *numerically invisible*: genome ``g`` of a stack evolves
through exactly the float operations the serial
:class:`~repro.nn.trainer.Trainer` fast path would apply to it alone.

* Batched ``matmul`` over a ``(G, ...)`` stack executes the same GEMM per
  2-D slice as the serial call; every other op is element-wise or a
  per-genome-row reduction, so per-element float sequences are unchanged.
* Each genome keeps its own ``default_rng(seed)`` whose only consumer is the
  per-epoch shuffle — the same consumption pattern as the serial trainer.
* Per-genome early stopping evicts finished genomes from the stack (the
  survivors' arrays are compacted, which copies values verbatim), so active
  genomes always step in lockstep and the shared Adam step count ``t``
  matches every serial trajectory.
* Per-genome learning-rate decay is a ``(G, 1)`` broadcast column in
  :class:`~repro.nn.optimizers.StackedAdam`.
* The post-epoch train accuracy runs only when early stopping watches it
  (no validation split and ``monitor == "val_accuracy"``). Otherwise each
  epoch keeps a copy of its ``(G_active, P)`` effective parameters and
  active rows, and the first read of ``train_accuracy`` on any of the fit's
  histories runs the same batched forward, ``argmax`` and ``mean`` over
  them (:class:`_PendingTrainAccuracy`): the same inputs, shapes and ops,
  so the same values. The record owns its copies of the parameters and
  the training set, so later changes to the models or the caller's arrays
  do not reach it.

The softmax cross-entropy avoids numpy's slow loops along the short class
axis with rewrites that are exact, not approximate (both trainers share
them through :func:`~repro.nn.losses.sparse_softmax_cross_entropy_with_grad`):

* The row max is a left fold of ``np.maximum`` over the class columns
  (:func:`~repro.nn.rowwise.row_max`); max is exact.
* The softmax denominator is a sequential fold of the columns starting from
  ``0.0`` (:func:`~repro.nn.rowwise.row_sum`), which is numpy's own order up
  to 7 columns; wider rows keep ``.sum``.
* The loss reads the label's probability instead of summing a one-hot
  product. That sum holds one ``log`` term and signed zeros, which add
  nothing, so clip and log run on ``(G, B)`` with the same result.
* The gradient is the softmax minus ``1.0`` at the label: subtracting a
  one-hot ``0.0`` leaves every other entry unchanged.
* Bias adds happen in place on the fresh matmul output: the same add.
* The bias gradient sums a ``(B, G*K)`` copy of the gradient over axis 0,
  the same sequential fold over the batch as the serial ``(B, K)`` sum.

``tests/test_stacked_trainer.py`` and ``tests/test_stacked_trainer_shapes.py``
assert exact byte equality of weights and training histories against the
serial path, including heterogeneous early-stopping populations, 2 to 9
classes, two hidden layers and a short last batch;
``tests/test_rowwise.py`` checks each rewrite against the numpy expression
it replaces.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .layers import ActivationLayer, Dense
from .losses import sparse_softmax_cross_entropy, sparse_softmax_cross_entropy_with_grad
from .network import MLP
from .optimizers import StackedAdam
from .trainer import TrainerConfig, TrainingHistory, _class_labels, finetune


def _layer_signature(model: MLP) -> Tuple:
    """Architecture fingerprint two models must share to be stackable."""
    signature = []
    for layer in model.layers:
        if isinstance(layer, Dense):
            signature.append(("dense", layer.n_inputs, layer.n_outputs, layer.use_bias))
        elif isinstance(layer, ActivationLayer):
            activation = layer.activation
            signature.append(
                ("activation", type(activation).__name__, getattr(activation, "alpha", None))
            )
        else:
            signature.append(("unsupported", type(layer).__name__))
    return tuple(signature)


def _quantizer_pattern(model: MLP) -> Optional[Tuple]:
    """Which parameter tensors carry a SymmetricQuantizer (None = unstackable)."""
    from ..quantization.quantizers import SymmetricQuantizer

    pattern = []
    for layer in model.dense_layers:
        for attribute, _array, quantizer, _mask in layer.quantizable_tensors():
            if attribute == "bias" and not layer.use_bias:
                continue
            if quantizer is None:
                pattern.append(False)
            elif type(quantizer) is SymmetricQuantizer:
                if quantizer.scale is not None:
                    return None  # frozen scales are a deployment concern, not QAT
                pattern.append(True)
            else:
                return None
    return tuple(pattern)


def supports_stacking(models: Sequence[MLP]) -> bool:
    """Whether :class:`StackedTrainer` can train these models as one stack.

    Requires: at least one model, identical Dense/Activation architectures
    (no Dropout or custom layers — same restriction as the serial fused
    path), and a shared quantizer pattern where every quantized tensor uses
    a dynamic-scale :class:`~repro.quantization.SymmetricQuantizer`.
    Pruning masks and bit-widths may differ freely per model.
    """
    if not models:
        return False
    first = models[0]
    if not first.dense_layers:
        return False
    signature = _layer_signature(first)
    if any(entry[0] == "unsupported" for entry in signature):
        return False
    pattern = _quantizer_pattern(first)
    if pattern is None:
        return False
    for model in models[1:]:
        if _layer_signature(model) != signature:
            return False
        if _quantizer_pattern(model) != pattern:
            return False
    return True


def _quantize(
    values: np.ndarray,
    scale: np.ndarray,
    neg_level: np.ndarray,
    pos_level: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """The fake-quantization pass into ``out``: divide, rint, clip, rescale.

    The serial quantizer's exact float sequence, including the ``+ 0.0``
    that normalizes IEEE ``-0.0``.
    """
    np.divide(values, scale, out=out)
    np.rint(out, out=out)
    np.maximum(out, neg_level, out=out)
    np.minimum(out, pos_level, out=out)
    out += 0.0
    out *= scale
    return out


class _PendingTrainAccuracy:
    """The post-epoch train accuracies of one stacked fit, computed on first read.

    Keeps a copy of every epoch's ``(G_active, P)`` effective parameters and
    active rows, and the fit's own copies of the training set; the first
    :meth:`values` call runs the batched forward, ``argmax`` and ``mean``
    the eager fit would have run after each epoch, on the same inputs, so
    the accuracies are the eager ones bit for bit. Later changes to the
    models or to the caller's arrays do not reach it.
    """

    def __init__(self, trainer: "StackedTrainer", x_train: np.ndarray, y_train: np.ndarray) -> None:
        self._trainer = trainer
        self._n_models = len(trainer.models)
        self._x_train = x_train
        self._y_train = y_train
        self._epochs: List[Tuple[np.ndarray, List[int]]] = []
        self._values: Optional[List[List[float]]] = None

    def record(self, effective: np.ndarray, active: Sequence[int]) -> None:
        """Keep one epoch's effective parameters (stack row ``i`` is genome ``active[i]``)."""
        self._epochs.append((effective.copy(), list(active)))

    def values(self, genome: int) -> List[float]:
        """Genome ``genome``'s train accuracy after each of its epochs."""
        if self._values is None:
            self._values = [[] for _ in range(self._n_models)]
            for effective, active in self._epochs:
                views = self._trainer._layer_views(effective)
                scores = self._trainer._forward(self._x_train, views)
                accuracies = (np.argmax(scores, axis=-1) == self._y_train).mean(axis=-1)
                for row, index in enumerate(active):
                    self._values[index].append(float(accuracies[row]))
            self._epochs = []
        return self._values[genome]


class StackedTrainer:
    """Trains G same-architecture MLPs as one stacked tensor program.

    Args:
        models: the population's models (modified in place at the end of
            :meth:`fit`, exactly as the serial trainer leaves its model).
        learning_rate: initial learning rate, shared by every genome (each
            genome then decays its own copy independently).
        config: training hyper-parameters, shared by the population.
        seeds: per-genome shuffle seeds (``None`` entries mean unseeded).

    Use :func:`supports_stacking` first; construction raises ``ValueError``
    for unstackable populations.
    """

    def __init__(
        self,
        models: Sequence[MLP],
        learning_rate: float,
        config: Optional[TrainerConfig] = None,
        seeds: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        if not supports_stacking(models):
            raise ValueError(
                "Models cannot be trained stacked (architecture/quantizer mismatch); "
                "check supports_stacking() first and fall back to serial training"
            )
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.models = list(models)
        self.config = config if config is not None else TrainerConfig()
        self.learning_rate = float(learning_rate)
        if seeds is None:
            seeds = [None] * len(self.models)
        if len(seeds) != len(self.models):
            raise ValueError(f"Got {len(seeds)} seeds for {len(self.models)} models")
        self.seeds = list(seeds)
        self._plan = self._build_plan(self.models[0])
        self._segments = self._build_segments(self.models[0])
        self._flat_size = self._segments[-1]["slice"].stop if self._segments else 0
        n_dense = len(self.models[0].dense_layers)
        self._dense_segments: List[Tuple[dict, Optional[dict]]] = [
            self._segments_for(index) for index in range(n_dense)
        ]

    # -- stack layout -------------------------------------------------------------

    @staticmethod
    def _build_plan(model: MLP) -> List[tuple]:
        """Per-layer dispatch plan: ``(is_dense, dense_index, activation)``."""
        plan = []
        dense_index = 0
        for layer in model.layers:
            if isinstance(layer, Dense):
                plan.append((True, dense_index, None))
                dense_index += 1
            else:
                plan.append((False, -1, layer.activation))
        return plan

    @staticmethod
    def _build_segments(model: MLP) -> List[dict]:
        """Flat-buffer layout: one segment per parameter tensor, in the
        ``model.parameters`` order the fused optimizer uses (weights, then
        bias, per Dense layer)."""
        segments: List[dict] = []
        offset = 0
        for dense_index, layer in enumerate(model.dense_layers):
            for attribute, array, quantizer, _mask in layer.quantizable_tensors():
                if attribute == "bias" and not layer.use_bias:
                    continue
                size = array.size
                segments.append(
                    {
                        "dense_index": dense_index,
                        "attribute": attribute,
                        "shape": array.shape,
                        "slice": slice(offset, offset + size),
                        "quantized": quantizer is not None,
                    }
                )
                offset += size
        return segments

    def _gather_stack(self) -> np.ndarray:
        """Collect every model's parameters into the ``(G, P)`` raw matrix."""
        params = np.empty((len(self.models), self._flat_size))
        for row, model in enumerate(self.models):
            dense = model.dense_layers
            for segment in self._segments:
                array = getattr(dense[segment["dense_index"]], segment["attribute"])
                params[row, segment["slice"]] = array.reshape(-1)
        return params

    def _build_pack(self) -> dict:
        """Stacked analogue of the serial trainer's per-step quant pack."""
        n_models = len(self.models)
        total = self._flat_size
        mask = np.ones((n_models, total))
        pos_level = np.zeros((n_models, total))
        max_levels = np.ones((n_models, len(self._segments)))
        for row, model in enumerate(self.models):
            dense = model.dense_layers
            for seg_index, segment in enumerate(self._segments):
                layer = dense[segment["dense_index"]]
                if segment["attribute"] == "weights" and layer.mask is not None:
                    mask[row, segment["slice"]] = layer.mask.reshape(-1)
                if segment["quantized"]:
                    quantizer = (
                        layer.weight_quantizer
                        if segment["attribute"] == "weights"
                        else layer.bias_quantizer
                    )
                    level = float(quantizer._max_level)
                    pos_level[row, segment["slice"]] = level
                    max_levels[row, seg_index] = level
        # Segment geometry for the packed scale computation: contiguous
        # ``reduceat`` boundaries plus an element -> segment index map that
        # broadcasts per-segment scales back over the flat axis in one take.
        seg_starts = np.array(
            [segment["slice"].start for segment in self._segments], dtype=np.intp
        )
        seg_map = np.empty(total, dtype=np.intp)
        for seg_index, segment in enumerate(self._segments):
            seg_map[segment["slice"]] = seg_index
        return {
            "mask": mask,
            "pos_level": pos_level,
            "neg_level": -pos_level,
            "max_levels": max_levels,
            "seg_starts": seg_starts,
            "seg_map": seg_map,
            "masked": np.empty((n_models, total)),
            "abs": np.empty((n_models, total)),
            "scale": np.empty((n_models, total)),
            "effective": np.empty((n_models, total)),
        }

    def _apply_pack(self, pack: dict, params: np.ndarray) -> np.ndarray:
        """One stacked fake-quantization pass: raw params -> effective params.

        Per-element float sequence identical to the serial trainer's
        ``_apply_quant_pack`` (mask multiply, |.|, per-segment scale via
        :func:`~repro.hardware.fixed_point.derive_scale`, divide / rint /
        clip / renormalize / rescale) applied row-wise over the population.
        Unquantized segments are copied through as masked values, matching
        the serial generic ``effective_weights()`` path.
        """
        masked = pack["masked"]
        abs_buf = pack["abs"]
        scale = pack["scale"]
        effective = pack["effective"]
        np.multiply(params, pack["mask"], out=masked)
        np.abs(masked, out=abs_buf)
        # One contiguous-span reduce for every (genome, segment) max — max is
        # exact, so how it is reduced cannot change the derived scale.
        seg_max = np.maximum.reduceat(abs_buf, pack["seg_starts"], axis=1)
        # derive_scale vectorized: same IEEE divide, same degenerate-tensor
        # fallbacks (all-zero -> 1.0, underflow-to-zero -> 1.0).
        seg_scale = np.where(seg_max > 0, seg_max / pack["max_levels"], 1.0)
        seg_scale = np.where(seg_scale == 0.0, 1.0, seg_scale)
        np.take(seg_scale, pack["seg_map"], axis=1, out=scale)
        _quantize(masked, scale, pack["neg_level"], pack["pos_level"], out=effective)
        for segment in self._segments:
            if not segment["quantized"]:
                sl = segment["slice"]
                effective[:, sl] = masked[:, sl]
        return effective

    def _layer_views(self, flat: np.ndarray) -> List[dict]:
        """Per-Dense-layer ``(G, in, out)`` / ``(G, out)`` views of a flat stack."""
        views: List[dict] = []
        for segment in self._segments:
            if segment["attribute"] == "weights":
                views.append(
                    {
                        "weights": flat[:, segment["slice"]].reshape(
                            (flat.shape[0],) + segment["shape"]
                        ),
                        "bias": None,
                    }
                )
            else:
                views[-1]["bias"] = flat[:, segment["slice"]]
        return views

    # -- training -----------------------------------------------------------------

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> List[TrainingHistory]:
        """Train the whole population; returns per-genome histories.

        Mirrors :meth:`repro.nn.trainer.Trainer.fit` epoch for epoch: the
        monitored metric, LR decay, early stopping and best-weight
        restoration are tracked per genome, and a genome whose patience runs
        out is evicted from the stack (its serial counterpart would have
        broken out of the epoch loop at the same point).
        """
        cfg = self.config
        n_classes = self.models[0].topology()[-1]
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
        # Early stopping watches the train accuracy only without a validation
        # split under the "val_accuracy" monitor; otherwise it is left to the
        # first read of the histories.
        pending = None
        if has_val or cfg.monitor == "val_loss":
            x_train = x_train.copy()
            pending = _PendingTrainAccuracy(self, x_train, y_train)

        n_models = len(self.models)
        n_samples = x_train.shape[0]
        params = self._gather_stack()
        pack = self._build_pack()
        grad_flat = np.empty_like(params)
        optimizer = StackedAdam([self.learning_rate] * n_models)
        rngs = [np.random.default_rng(seed) for seed in self.seeds]

        # Per-genome bookkeeping, indexed by ORIGINAL genome position.
        histories = [TrainingHistory() for _ in range(n_models)]
        if pending is not None:
            for genome, history in enumerate(histories):
                history._defer_train_accuracy(functools.partial(pending.values, genome))
        best_metric = [-np.inf] * n_models
        best_params: List[Optional[np.ndarray]] = [None] * n_models
        final_params: List[Optional[np.ndarray]] = [None] * n_models
        without_improvement = [0] * n_models
        #: active[i] = original genome index of stack row i.
        active = list(range(n_models))

        # Layer views into the shared effective-parameter buffer; stable
        # until a compaction swaps the buffer out.
        views = self._layer_views(pack["effective"])
        for _epoch in range(cfg.epochs):
            if not active:
                break
            self._run_epoch(
                params, grad_flat, pack, views, optimizer, rngs, active,
                x_train, y_train, n_samples, histories,
            )
            # Post-epoch evaluation on the freshly re-quantized parameters.
            if pending is None:
                train_scores = self._forward(x_train, views)
                train_accuracies = (np.argmax(train_scores, axis=-1) == y_train).mean(axis=-1)
            else:
                pending.record(pack["effective"], active)
            if has_val:
                val_scores = self._forward(x_val, views)
                val_losses = sparse_softmax_cross_entropy(val_scores, y_val).mean(axis=-1)
                val_accuracies = (np.argmax(val_scores, axis=-1) == y_val).mean(axis=-1)

            stopped_rows: List[int] = []
            for row, genome in enumerate(active):
                history = histories[genome]
                if pending is None:
                    train_acc = float(train_accuracies[row])
                    history.train_accuracy.append(train_acc)
                if has_val:
                    val_loss = float(val_losses[row])
                    val_acc = float(val_accuracies[row])
                    history.val_loss.append(val_loss)
                    history.val_accuracy.append(val_acc)
                    monitored = val_acc if cfg.monitor == "val_accuracy" else -val_loss
                else:
                    monitored = (
                        train_acc
                        if cfg.monitor == "val_accuracy"
                        else -history.train_loss[-1]
                    )
                if monitored > best_metric[genome] + 1e-9:
                    best_metric[genome] = monitored
                    without_improvement[genome] = 0
                    if cfg.restore_best_weights:
                        best_params[genome] = params[row].copy()
                else:
                    without_improvement[genome] += 1
                    self._maybe_decay_learning_rate(
                        optimizer, row, without_improvement[genome]
                    )
                    if (
                        cfg.early_stopping_patience is not None
                        and without_improvement[genome] >= cfg.early_stopping_patience
                    ):
                        stopped_rows.append(row)

            if stopped_rows:
                for row in stopped_rows:
                    final_params[active[row]] = params[row].copy()
                keep = np.delete(np.arange(len(active)), stopped_rows)
                active = [active[row] for row in keep]
                params = params[keep]
                grad_flat = np.empty_like(params)
                optimizer.compact(keep)
                self._compact_pack(pack, keep)
                views = self._layer_views(pack["effective"])
                rngs = [rngs[row] for row in keep]

        for row, genome in enumerate(active):
            final_params[genome] = params[row].copy()
        self._write_back(final_params, best_params)
        return histories

    def _run_epoch(
        self,
        params: np.ndarray,
        grad_flat: np.ndarray,
        pack: dict,
        views: List[dict],
        optimizer: StackedAdam,
        rngs: List[np.random.Generator],
        active: List[int],
        x_train: np.ndarray,
        y_train: np.ndarray,
        n_samples: int,
        histories: List[TrainingHistory],
    ) -> None:
        """One stacked epoch; leaves the post-epoch effective parameters in
        ``pack["effective"]`` (which ``views`` look into)."""
        cfg = self.config
        orders = np.empty((len(active), n_samples), dtype=np.intp)
        base = np.arange(n_samples)
        for row in range(len(active)):
            order = base.copy()
            if cfg.shuffle:
                rngs[row].shuffle(order)
            orders[row] = order
        x_all = x_train[orders]
        y_all = y_train[orders]

        total_loss = np.zeros(len(active))
        n_batches = 0
        for start in range(0, n_samples, cfg.batch_size):
            x_batch = x_all[:, start : start + cfg.batch_size]
            y_batch = y_all[:, start : start + cfg.batch_size]
            self._apply_pack(pack, params)

            # Forward, remembering each layer's input.
            layer_inputs = []
            out = x_batch
            for is_dense, dense_index, activation in self._plan:
                layer_inputs.append(out)
                if is_dense:
                    view = views[dense_index]
                    out = np.matmul(out, view["weights"])
                    if view["bias"] is not None:
                        out += view["bias"][:, None, :]
                else:
                    out = activation.forward(out)

            losses, grad = sparse_softmax_cross_entropy_with_grad(out, y_batch)
            total_loss += losses.mean(axis=-1)

            # Backward; per-tensor gradients scattered into the flat stack.
            # The input gradient of the model's literal first layer is dead
            # by definition and never computed (same skip as the serial
            # fused step).
            for plan_index in range(len(self._plan) - 1, -1, -1):
                is_dense, dense_index, activation = self._plan[plan_index]
                layer_input = layer_inputs[plan_index]
                if is_dense:
                    view = views[dense_index]
                    grad_weights = np.matmul(layer_input.transpose(0, 2, 1), grad)
                    weight_segment, bias_segment = self._dense_segments[dense_index]
                    grad_weights *= pack["mask"][:, weight_segment["slice"]].reshape(
                        grad_weights.shape
                    )
                    grad_flat[:, weight_segment["slice"]] = grad_weights.reshape(
                        grad_weights.shape[0], -1
                    )
                    if bias_segment is not None:
                        # Summed over a (B, G*K) copy: the same sequential
                        # fold over the batch as the serial (B, K) sum, with
                        # a wide inner loop instead of a K-wide one per row.
                        n_rows, batch, width = grad.shape
                        grad_flat[:, bias_segment["slice"]] = (
                            grad.transpose(1, 0, 2)
                            .reshape(batch, n_rows * width)
                            .sum(axis=0)
                            .reshape(n_rows, width)
                        )
                    if plan_index != 0:
                        grad = np.matmul(grad, view["weights"].transpose(0, 2, 1))
                else:
                    grad = activation.backward(layer_input, grad)

            optimizer.update(params, grad_flat)
            n_batches += 1

        per_genome_loss = total_loss / max(n_batches, 1)
        for row, genome in enumerate(active):
            histories[genome].train_loss.append(float(per_genome_loss[row]))
        # Re-quantize once for the post-epoch metrics (the serial path's
        # effective-weight cache recompute after the last optimizer step).
        self._apply_pack(pack, params)

    def _segments_for(self, dense_index: int) -> Tuple[dict, Optional[dict]]:
        weight_segment = None
        bias_segment = None
        for segment in self._segments:
            if segment["dense_index"] == dense_index:
                if segment["attribute"] == "weights":
                    weight_segment = segment
                else:
                    bias_segment = segment
        return weight_segment, bias_segment

    def _forward(self, features: np.ndarray, views: List[dict]) -> np.ndarray:
        """Inference over the whole population: ``(G, N, n_classes)`` scores."""
        out = features
        for is_dense, dense_index, activation in self._plan:
            if is_dense:
                view = views[dense_index]
                out = np.matmul(out, view["weights"])
                if view["bias"] is not None:
                    out += view["bias"][:, None, :]
            else:
                out = activation.forward(out)
        return out

    def _maybe_decay_learning_rate(
        self, optimizer: StackedAdam, row: int, epochs_without_improvement: int
    ) -> None:
        cfg = self.config
        if cfg.lr_decay_factor >= 1.0 or cfg.early_stopping_patience is None:
            return
        if epochs_without_improvement == max(cfg.early_stopping_patience // 2, 1):
            current = float(optimizer.learning_rates[row, 0])
            optimizer.learning_rates[row, 0] = max(
                current * cfg.lr_decay_factor, cfg.min_learning_rate
            )

    def _compact_pack(self, pack: dict, keep: np.ndarray) -> None:
        for key in ("mask", "pos_level", "neg_level", "max_levels"):
            pack[key] = pack[key][keep]
        for key in ("masked", "abs", "scale", "effective"):
            pack[key] = np.empty((keep.size, pack[key].shape[1]))

    def _write_back(
        self,
        final_params: List[Optional[np.ndarray]],
        best_params: List[Optional[np.ndarray]],
    ) -> None:
        """Publish trained parameters into the models (best weights restored)."""
        cfg = self.config
        for genome, model in enumerate(self.models):
            flat = final_params[genome]
            if cfg.restore_best_weights and best_params[genome] is not None:
                flat = best_params[genome]
            if flat is None:  # cfg.epochs exhausted before the genome ran (unreachable)
                continue
            dense = model.dense_layers
            for segment in self._segments:
                layer = dense[segment["dense_index"]]
                values = flat[segment["slice"]].reshape(segment["shape"]).copy()
                if segment["attribute"] == "weights":
                    layer.weights = values
                else:
                    layer.bias = values


def finetune_stacked(
    models: Sequence[MLP],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 20,
    learning_rate: float = 0.003,
    batch_size: int = 32,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[TrainingHistory]:
    """Population counterpart of :func:`repro.nn.trainer.finetune`.

    Same hyper-parameter derivation (aggressive early stopping, small LR),
    one stacked trainer instead of G serial ones. Genome ``g`` ends with
    byte-identical weights to ``finetune(models[g], ..., seed=seeds[g])``.
    """
    config = TrainerConfig(
        epochs=epochs,
        batch_size=batch_size,
        early_stopping_patience=max(3, epochs // 3),
        verbose=False,
    )
    trainer = StackedTrainer(models, learning_rate, config=config, seeds=seeds)
    return trainer.fit(x_train, y_train, x_val, y_val)


def finetune_population(
    models: Sequence[MLP],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 20,
    learning_rate: float = 0.003,
    batch_size: int = 32,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[TrainingHistory]:
    """Fine-tune several models with shared hyper-parameters, in place.

    One :func:`finetune_stacked` call when :func:`supports_stacking` allows
    it, otherwise a loop of serial :func:`~repro.nn.trainer.finetune` calls
    (e.g. models with ``Dropout``). Either way model ``g`` ends with the
    weights ``finetune(models[g], ..., seed=seeds[g])`` gives it.
    """
    models = list(models)
    if seeds is None:
        seeds = [None] * len(models)
    if supports_stacking(models):
        return finetune_stacked(
            models,
            x_train,
            y_train,
            x_val,
            y_val,
            epochs=epochs,
            learning_rate=learning_rate,
            batch_size=batch_size,
            seeds=seeds,
        )
    return [
        finetune(
            model,
            x_train,
            y_train,
            x_val,
            y_val,
            epochs=epochs,
            learning_rate=learning_rate,
            batch_size=batch_size,
            seed=seed,
        )
        for model, seed in zip(models, seeds)
    ]


def predict_stacked(
    models: Sequence[MLP],
    features: np.ndarray,
) -> np.ndarray:
    """Batched class predictions for a population of same-topology models.

    Stacks each model's *effective* (masked + quantized) parameters — built
    per model with the exact serial ``effective_weights()`` path — and runs
    one batched forward pass; returns ``(G, n_samples)`` predicted classes,
    byte-identical to calling ``model.predict`` per model.
    """
    if not models:
        raise ValueError("Cannot predict with an empty population")
    features = np.asarray(features, dtype=np.float64)
    out = features
    n_layers = len(models[0].layers)
    for index in range(n_layers):
        layer = models[0].layers[index]
        if isinstance(layer, Dense):
            weights = np.stack(
                [model.layers[index].effective_weights() for model in models]
            )
            out = np.matmul(out, weights)
            if layer.use_bias:
                bias = np.stack(
                    [model.layers[index].effective_bias() for model in models]
                )
                out = out + bias[:, None, :]
        elif isinstance(layer, ActivationLayer):
            out = layer.activation.forward(out)
        else:
            raise ValueError(f"Unsupported layer for stacked inference: {layer!r}")
    return np.argmax(out, axis=-1)
