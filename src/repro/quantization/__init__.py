"""Quantization: symmetric fixed-point quantizers, QAT, PTQ and bit-width sweeps."""

from .ptq import (
    PTQResult,
    layer_quantization_error,
    post_training_quantize,
    ptq_bitwidth_sensitivity,
)
from .qat import (
    QATConfig,
    attach_quantizers,
    detach_quantizers,
    quantization_snr,
    quantize_aware_train,
    quantize_aware_train_population,
    quantized_copy,
    weight_bits_used,
)
from .quantizers import (
    PowerOfTwoQuantizer,
    Quantizer,
    SymmetricQuantizer,
    quantize_tensor,
)
from .sweep import PAPER_BIT_RANGE, quantization_sweep

__all__ = [
    "PAPER_BIT_RANGE",
    "PTQResult",
    "PowerOfTwoQuantizer",
    "QATConfig",
    "Quantizer",
    "SymmetricQuantizer",
    "attach_quantizers",
    "detach_quantizers",
    "layer_quantization_error",
    "post_training_quantize",
    "ptq_bitwidth_sensitivity",
    "quantization_snr",
    "quantize_aware_train",
    "quantize_aware_train_population",
    "quantize_tensor",
    "quantized_copy",
    "quantization_sweep",
    "weight_bits_used",
]
