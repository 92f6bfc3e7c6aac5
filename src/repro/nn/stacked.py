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

``tests/test_stacked_trainer.py`` asserts exact byte equality of weights and
training histories against the serial path, including heterogeneous
early-stopping populations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.backend import ArrayBackend, resolve_backend
from .layers import ActivationLayer, Dense
from .network import MLP
from .optimizers import StackedAdam
from .trainer import TrainerConfig, TrainingHistory, _one_hot, finetune


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


class StackedTrainer:
    """Trains G same-architecture MLPs as one stacked tensor program.

    Args:
        models: the population's models (modified in place at the end of
            :meth:`fit`, exactly as the serial trainer leaves its model).
        learning_rate: initial learning rate, shared by every genome (each
            genome then decays its own copy independently).
        config: training hyper-parameters, shared by the population.
        seeds: per-genome shuffle seeds (``None`` entries mean unseeded).
        backend: array backend for the stacked tensor ops (name, instance,
            or ``None`` = resolve via :func:`repro.core.backend.resolve_backend`).
            The numpy backend reproduces the serial trainer byte for byte;
            see ``docs/backends.md`` for other backends' guarantees.

    Use :func:`supports_stacking` first; construction raises ``ValueError``
    for unstackable populations.
    """

    def __init__(
        self,
        models: Sequence[MLP],
        learning_rate: float,
        config: Optional[TrainerConfig] = None,
        seeds: Optional[Sequence[Optional[int]]] = None,
        backend: Optional[Union[str, ArrayBackend]] = None,
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
        self.ops = resolve_backend(backend)
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
        seg_max = self.ops.segment_max(abs_buf, pack["seg_starts"])
        # derive_scale vectorized: same IEEE divide, same degenerate-tensor
        # fallbacks (all-zero -> 1.0, underflow-to-zero -> 1.0).
        seg_scale = np.where(seg_max > 0, seg_max / pack["max_levels"], 1.0)
        seg_scale = np.where(seg_scale == 0.0, 1.0, seg_scale)
        self.ops.take(seg_scale, pack["seg_map"], out=scale)
        self.ops.quantize(
            masked, scale, pack["neg_level"], pack["pos_level"], out=effective
        )
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
        x_train = np.asarray(x_train, dtype=np.float64)
        y_train = np.asarray(y_train).reshape(-1).astype(int)
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError(
                f"x_train has {x_train.shape[0]} rows but y_train has {y_train.shape[0]}"
            )
        n_classes = self.models[0].topology()[-1]
        targets = _one_hot(y_train, n_classes)
        has_val = x_val is not None and y_val is not None
        if has_val:
            x_val = np.asarray(x_val, dtype=np.float64)
            y_val = np.asarray(y_val).reshape(-1).astype(int)
            val_targets = _one_hot(y_val, n_classes)

        n_models = len(self.models)
        n_samples = x_train.shape[0]
        params = self._gather_stack()
        pack = self._build_pack()
        grad_flat = np.empty_like(params)
        optimizer = StackedAdam([self.learning_rate] * n_models, backend=self.ops)
        rngs = [np.random.default_rng(seed) for seed in self.seeds]

        # Per-genome bookkeeping, indexed by ORIGINAL genome position.
        histories = [TrainingHistory() for _ in range(n_models)]
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
                x_train, targets, n_samples, histories,
            )
            # Post-epoch evaluation on the freshly re-quantized parameters.
            train_scores = self._forward(x_train, views)
            train_predictions = self.ops.argmax(train_scores)
            train_accuracies = (train_predictions == y_train).mean(axis=-1)
            if has_val:
                val_scores = self._forward(x_val, views)
                val_losses = _softmax_cross_entropy_rows(val_scores, val_targets)
                val_accuracies = (self.ops.argmax(val_scores) == y_val).mean(axis=-1)

            stopped_rows: List[int] = []
            for row, genome in enumerate(active):
                history = histories[genome]
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
                keep = np.array(
                    [row for row in range(len(active)) if row not in set(stopped_rows)],
                    dtype=np.intp,
                )
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
        targets: np.ndarray,
        n_samples: int,
        histories: List[TrainingHistory],
    ) -> np.ndarray:
        """One stacked epoch; returns the post-epoch effective parameters."""
        cfg = self.config
        orders = np.empty((len(active), n_samples), dtype=np.intp)
        base = np.arange(n_samples)
        for row in range(len(active)):
            order = base.copy()
            if cfg.shuffle:
                rngs[row].shuffle(order)
            orders[row] = order
        x_all = x_train[orders]
        y_all = targets[orders]

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
                    out = self.ops.matmul(out, view["weights"])
                    if view["bias"] is not None:
                        out = out + view["bias"][:, None, :]
                else:
                    out = activation.forward(out)

            # Fused softmax cross-entropy, row-wise over the population.
            shifted = out - out.max(axis=-1, keepdims=True)
            exp = np.exp(shifted, out=shifted)
            probs = exp / exp.sum(axis=-1, keepdims=True)
            clipped = np.minimum(np.maximum(probs, 1e-12), 1.0)
            total_loss += (-(y_batch * np.log(clipped)).sum(axis=-1)).mean(axis=-1)
            grad = (probs - y_batch) / out.shape[1]

            # Backward; per-tensor gradients scattered into the flat stack.
            # The input gradient of the model's literal first layer is dead
            # by definition and never computed (same skip as the serial
            # fused step).
            for plan_index in range(len(self._plan) - 1, -1, -1):
                is_dense, dense_index, activation = self._plan[plan_index]
                layer_input = layer_inputs[plan_index]
                if is_dense:
                    view = views[dense_index]
                    grad_weights = self.ops.matmul(layer_input.transpose(0, 2, 1), grad)
                    weight_segment, bias_segment = self._dense_segments[dense_index]
                    grad_weights *= pack["mask"][:, weight_segment["slice"]].reshape(
                        grad_weights.shape
                    )
                    grad_flat[:, weight_segment["slice"]] = grad_weights.reshape(
                        grad_weights.shape[0], -1
                    )
                    if bias_segment is not None:
                        grad_flat[:, bias_segment["slice"]] = grad.sum(axis=1)
                    if plan_index != 0:
                        grad = self.ops.matmul(grad, view["weights"].transpose(0, 2, 1))
                else:
                    grad = activation.backward(layer_input, grad)

            optimizer.update(params, grad_flat)
            n_batches += 1

        per_genome_loss = total_loss / max(n_batches, 1)
        for row, genome in enumerate(active):
            histories[genome].train_loss.append(float(per_genome_loss[row]))
        # Re-quantize once for the post-epoch metrics (the serial path's
        # effective-weight cache recompute after the last optimizer step).
        return self._apply_pack(pack, params)

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
                out = self.ops.matmul(out, view["weights"])
                if view["bias"] is not None:
                    out = out + view["bias"][:, None, :]
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


def _softmax_cross_entropy_rows(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-genome SoftmaxCrossEntropy.forward over ``(G, N, C)`` scores.

    Replicates :meth:`repro.nn.losses.SoftmaxCrossEntropy.forward` (including
    its ``np.clip``) per population row; returns a ``(G,)`` loss vector.
    """
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / np.sum(exp, axis=-1, keepdims=True)
    probs = np.clip(probs, 1e-12, 1.0)
    per_sample = -np.sum(targets * np.log(probs), axis=-1)
    return np.mean(per_sample, axis=-1)


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
    backend: Optional[Union[str, ArrayBackend]] = None,
) -> List[TrainingHistory]:
    """Population counterpart of :func:`repro.nn.trainer.finetune`.

    Same hyper-parameter derivation (aggressive early stopping, small LR),
    one stacked trainer instead of G serial ones. Genome ``g`` ends with
    byte-identical weights to ``finetune(models[g], ..., seed=seeds[g])``
    on the (default) numpy backend.
    """
    config = TrainerConfig(
        epochs=epochs,
        batch_size=batch_size,
        early_stopping_patience=max(3, epochs // 3),
        verbose=False,
    )
    trainer = StackedTrainer(
        models, learning_rate, config=config, seeds=seeds, backend=backend
    )
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
    weights ``finetune(models[g], ..., seed=seeds[g])`` gives it. The stack
    always runs on the numpy backend, whatever ``REPRO_BACKEND`` says: it
    stands in for the serial trainer, which has no backend.
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
            backend="numpy",
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
    backend: Optional[Union[str, ArrayBackend]] = None,
) -> np.ndarray:
    """Batched class predictions for a population of same-topology models.

    Stacks each model's *effective* (masked + quantized) parameters — built
    per model with the exact serial ``effective_weights()`` path — and runs
    one batched forward pass; returns ``(G, n_samples)`` predicted classes,
    byte-identical to calling ``model.predict`` per model on the (default)
    numpy backend.
    """
    if not models:
        raise ValueError("Cannot predict with an empty population")
    ops = resolve_backend(backend)
    features = np.asarray(features, dtype=np.float64)
    out = features
    n_layers = len(models[0].layers)
    for index in range(n_layers):
        layer = models[0].layers[index]
        if isinstance(layer, Dense):
            weights = np.stack(
                [model.layers[index].effective_weights() for model in models]
            )
            out = ops.matmul(out, weights)
            if layer.use_bias:
                bias = np.stack(
                    [model.layers[index].effective_bias() for model in models]
                )
                out = out + bias[:, None, :]
        elif isinstance(layer, ActivationLayer):
            out = layer.activation.forward(out)
        else:
            raise ValueError(f"Unsupported layer for stacked inference: {layer!r}")
    return ops.argmax(out)
