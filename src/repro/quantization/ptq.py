"""Post-training quantization (PTQ).

PTQ quantizes an already-trained model without any retraining. The paper
uses QAT (via QKeras) for its quantization Pareto fronts; PTQ is the cheaper
alternative ``quantization_sweep(use_qat=False)`` runs for the ``qat_vs_ptq``
ablation. The genetic search never calls it, fine-tuning or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..datasets.preprocessing import PreparedData
from ..nn.network import MLP
from .quantizers import SymmetricQuantizer


@dataclass(frozen=True)
class PTQResult:
    """Outcome of a post-training quantization pass."""

    model: MLP
    weight_bits: List[int]
    scales: List[float]
    accuracy: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "weight_bits": list(self.weight_bits),
            "scales": list(self.scales),
            "accuracy": self.accuracy,
        }


def post_training_quantize(
    model: MLP,
    weight_bits: Union[int, Sequence[int]],
    data: Optional[PreparedData] = None,
    quantize_bias: bool = True,
) -> PTQResult:
    """Quantize a trained model's weights with calibrated, frozen scales.

    Unlike QAT the scales are calibrated once from the trained weights and
    frozen, and no retraining happens. Returns a new model (clone); the
    original is untouched.

    Args:
        model: trained float model.
        weight_bits: single bit-width or per-layer sequence.
        data: optional prepared split used to report test accuracy.
        quantize_bias: also quantize biases (at ``bits + 4``).
    """
    clone = model.clone()
    dense_layers = clone.dense_layers
    if isinstance(weight_bits, int):
        per_layer = [weight_bits] * len(dense_layers)
    else:
        per_layer = [int(b) for b in weight_bits]
        if len(per_layer) != len(dense_layers):
            raise ValueError(
                f"weight_bits has {len(per_layer)} entries but the model has "
                f"{len(dense_layers)} Dense layers"
            )

    scales: List[float] = []
    for layer, bits in zip(dense_layers, per_layer):
        weights = layer.weights if layer.mask is None else layer.weights * layer.mask
        quantizer = SymmetricQuantizer(bits=bits).calibrate(weights)
        layer.weight_quantizer = quantizer
        if quantize_bias:
            layer.bias_quantizer = SymmetricQuantizer(bits=bits + 4).calibrate(layer.bias)
        scales.append(float(quantizer.scale))

    accuracy = None
    if data is not None:
        accuracy = clone.evaluate_accuracy(data.test.features, data.test.labels)
    return PTQResult(model=clone, weight_bits=per_layer, scales=scales, accuracy=accuracy)
