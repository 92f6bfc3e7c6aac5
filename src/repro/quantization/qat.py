"""Quantization-aware training (QAT).

This mirrors the paper's QKeras flow: fake-quantizers are attached to every
Dense layer so the forward pass sees quantized weights, while gradients flow
to full-precision shadow weights (the straight-through estimator implemented
by :class:`repro.nn.layers.Dense`). A short retraining pass then recovers
most of the accuracy lost to the precision reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..datasets.preprocessing import PreparedData
from ..nn.network import MLP
from ..nn.stacked import finetune_population
from ..nn.trainer import TrainingHistory
from .quantizers import Quantizer, SymmetricQuantizer


@dataclass(frozen=True)
class QATConfig:
    """Configuration of a quantization-aware (re)training pass.

    Attributes:
        weight_bits: weight bit-width; single int or per-layer sequence.
        quantize_bias: also quantize biases (at ``weight_bits + 4`` bits,
            reflecting the wider accumulator grid biases live on).
        epochs: fine-tuning epochs.
        learning_rate: fine-tuning learning rate.
        batch_size: fine-tuning batch size.
    """

    weight_bits: Union[int, Sequence[int]] = 4
    quantize_bias: bool = True
    epochs: int = 20
    learning_rate: float = 0.003
    batch_size: int = 32

    def bits_for_layer(self, layer_index: int, n_layers: int) -> int:
        if isinstance(self.weight_bits, int):
            return self.weight_bits
        bits = list(self.weight_bits)
        if len(bits) != n_layers:
            raise ValueError(
                f"weight_bits has {len(bits)} entries but the model has {n_layers} Dense layers"
            )
        return int(bits[layer_index])


def attach_quantizers(
    model: MLP,
    weight_bits: Union[int, Sequence[int]],
    quantize_bias: bool = True,
) -> List[Quantizer]:
    """Attach symmetric fake-quantizers to every Dense layer, in place.

    Returns the quantizer objects in layer order (useful for inspecting the
    scales or freezing them later).
    """
    dense_layers = model.dense_layers
    config = QATConfig(weight_bits=weight_bits, quantize_bias=quantize_bias)
    quantizers: List[Quantizer] = []
    for index, layer in enumerate(dense_layers):
        bits = config.bits_for_layer(index, len(dense_layers))
        quantizer = SymmetricQuantizer(bits=bits)
        layer.weight_quantizer = quantizer
        if quantize_bias:
            layer.bias_quantizer = SymmetricQuantizer(bits=bits + 4)
        quantizers.append(quantizer)
    return quantizers


def detach_quantizers(model: MLP) -> None:
    """Remove all quantizer hooks from the model, in place."""
    for layer in model.dense_layers:
        layer.weight_quantizer = None
        layer.bias_quantizer = None


def quantize_aware_train(
    model: MLP,
    data: PreparedData,
    config: Optional[QATConfig] = None,
    seed: Optional[int] = None,
) -> TrainingHistory:
    """Attach quantizers and fine-tune the model on the prepared split.

    The model is modified in place: after the call its ``effective_weights()``
    lie on the quantization grid and the shadow weights hold the QAT result.
    """
    config = config if config is not None else QATConfig()
    return quantize_aware_train_population([model], data, [config], seed=seed)[0]


def quantize_aware_train_population(
    models: Sequence[MLP],
    data: PreparedData,
    configs: Sequence[QATConfig],
    seed: Optional[int] = None,
) -> List[TrainingHistory]:
    """:func:`quantize_aware_train` for several models, one config each, in place.

    The configs may differ in ``weight_bits`` and ``quantize_bias`` only. All
    fine-tuning passes run as one stack
    (:func:`~repro.nn.stacked.finetune_population`), so model ``g`` ends
    with the weights a serial fine-tuning of it alone gives.
    """
    models = list(models)
    configs = list(configs)
    if len(configs) != len(models):
        raise ValueError(f"Got {len(configs)} QAT configs for {len(models)} models")
    if len({(c.epochs, c.learning_rate, c.batch_size) for c in configs}) > 1:
        raise ValueError("QAT configs must share epochs, learning_rate and batch_size")
    for model, config in zip(models, configs):
        attach_quantizers(model, config.weight_bits, config.quantize_bias)
    if not models:
        return []
    return finetune_population(
        models,
        data.train.features,
        data.train.labels,
        data.validation.features,
        data.validation.labels,
        epochs=configs[0].epochs,
        learning_rate=configs[0].learning_rate,
        batch_size=configs[0].batch_size,
        seeds=[seed] * len(models),
    )


def quantized_copy(
    model: MLP,
    weight_bits: Union[int, Sequence[int]],
    data: Optional[PreparedData] = None,
    epochs: int = 20,
    seed: Optional[int] = None,
) -> MLP:
    """Return a quantized clone of ``model`` (original left untouched).

    When ``data`` is provided a QAT fine-tuning pass runs on the clone;
    otherwise the clone is post-training quantized only.
    """
    clone = model.clone()
    if data is None:
        attach_quantizers(clone, weight_bits)
        return clone
    quantize_aware_train(
        clone,
        data,
        QATConfig(weight_bits=weight_bits, epochs=epochs),
        seed=seed,
    )
    return clone


def weight_bits_used(model: MLP) -> List[Optional[int]]:
    """Bit-widths of the quantizers attached to each Dense layer (None = float)."""
    bits: List[Optional[int]] = []
    for layer in model.dense_layers:
        quantizer = layer.weight_quantizer
        bits.append(getattr(quantizer, "bits", None) if quantizer is not None else None)
    return bits
