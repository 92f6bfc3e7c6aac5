"""Quantization: symmetric fixed-point quantizers, QAT, PTQ and bit-width sweeps."""

from .ptq import PTQResult, post_training_quantize
from .qat import (
    QATConfig,
    attach_quantizers,
    detach_quantizers,
    quantize_aware_train,
    quantize_aware_train_population,
    quantized_copy,
    weight_bits_used,
)
from .quantizers import Quantizer, SymmetricQuantizer, quantize_tensor
from .sweep import PAPER_BIT_RANGE, quantization_sweep

__all__ = [
    "PAPER_BIT_RANGE",
    "PTQResult",
    "QATConfig",
    "Quantizer",
    "SymmetricQuantizer",
    "attach_quantizers",
    "detach_quantizers",
    "post_training_quantize",
    "quantize_aware_train",
    "quantize_aware_train_population",
    "quantize_tensor",
    "quantized_copy",
    "quantization_sweep",
    "weight_bits_used",
]
