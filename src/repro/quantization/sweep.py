"""Bit-width sweeps: the quantization Pareto curve of Figure 1.

The paper generates its quantization Pareto points by evaluating designs
whose quantized weight precision ranges from 2 to 7 bits, each obtained with
QAT. :func:`quantization_sweep` reproduces exactly that loop and returns one
:class:`~repro.core.results.DesignPoint` per bit-width, synthesized with the
bespoke area model. The QAT passes of all bit-widths run as one stacked
fine-tuning (:func:`~repro.quantization.qat.quantize_aware_train_population`),
with the same weights per bit-width as a separate
:func:`~repro.quantization.qat.quantize_aware_train`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bespoke.circuit import BespokeConfig
from ..bespoke.synthesis import synthesize_cost_only
from ..core.results import DesignPoint
from ..datasets.preprocessing import PreparedData
from ..hardware.technology import TechnologyLibrary
from ..nn.network import MLP
from .qat import QATConfig, quantize_aware_train_population
from .ptq import post_training_quantize

#: Bit-widths examined by the paper's quantization sweep.
PAPER_BIT_RANGE: Sequence[int] = (2, 3, 4, 5, 6, 7)


def quantization_sweep(
    model: MLP,
    data: PreparedData,
    bit_range: Sequence[int] = PAPER_BIT_RANGE,
    input_bits: int = 4,
    use_qat: bool = True,
    qat_epochs: int = 20,
    tech: Optional[TechnologyLibrary] = None,
    seed: Optional[int] = None,
) -> List[DesignPoint]:
    """Evaluate one quantized design per bit-width.

    Args:
        model: trained float baseline (never modified; clones are used).
        data: prepared dataset split (scaled, input-quantized).
        bit_range: weight bit-widths to evaluate (paper: 2..7).
        input_bits: circuit input bit-width.
        use_qat: retrain after attaching quantizers (paper behaviour); when
            False plain post-training quantization is used.
        qat_epochs: fine-tuning epochs per bit-width.
        tech: technology library for synthesis (EGT by default).
        seed: fine-tuning seed.

    Returns:
        One :class:`DesignPoint` per bit-width with test accuracy and the
        synthesized bespoke area.
    """
    if use_qat:
        candidates = [model.clone() for _ in bit_range]
        quantize_aware_train_population(
            candidates,
            data,
            [QATConfig(weight_bits=int(bits), epochs=qat_epochs) for bits in bit_range],
            seed=seed,
        )
    else:
        candidates = [post_training_quantize(model.clone(), int(bits)).model for bits in bit_range]
    points: List[DesignPoint] = []
    for bits, candidate in zip(bit_range, candidates):
        accuracy = candidate.evaluate_accuracy(data.test.features, data.test.labels)
        report = synthesize_cost_only(
            candidate,
            config=BespokeConfig(input_bits=input_bits, weight_bits=int(bits)),
            tech=tech,
            name=f"{data.train.name}_q{bits}",
        )
        points.append(
            DesignPoint(
                technique="quantization",
                accuracy=float(accuracy),
                area=report.area,
                power=report.power,
                delay=report.delay,
                parameters={"weight_bits": int(bits), "use_qat": use_qat},
                report=report,
            )
        )
    return points
