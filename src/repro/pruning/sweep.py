"""Sparsity sweeps: the pruning Pareto curve of Figure 1.

The paper examines unstructured pruning with sparsity between 20 % and 60 %.
Each sparsity level is evaluated independently: clone the trained baseline,
prune, fine-tune, measure test accuracy, and synthesize the bespoke circuit
(pruned connections produce no multipliers and shrink the adder trees). The
fine-tuning passes of all levels run as one stacked fine-tuning
(:func:`~repro.pruning.schedules.one_shot_pruning_population`), with the same
weights per level as a separate :func:`~repro.pruning.schedules.one_shot_pruning`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bespoke.circuit import BespokeConfig
from ..bespoke.synthesis import synthesize
from ..core.results import DesignPoint
from ..datasets.preprocessing import PreparedData
from ..hardware.technology import TechnologyLibrary
from ..nn.network import MLP
from .schedules import one_shot_pruning_population

#: Sparsity levels examined by the paper's pruning sweep (20 % .. 60 %).
PAPER_SPARSITY_RANGE: Sequence[float] = (0.2, 0.3, 0.4, 0.5, 0.6)


def pruning_sweep(
    model: MLP,
    data: PreparedData,
    sparsity_range: Sequence[float] = PAPER_SPARSITY_RANGE,
    input_bits: int = 4,
    weight_bits: int = 8,
    finetune_epochs: int = 15,
    tech: Optional[TechnologyLibrary] = None,
    seed: Optional[int] = None,
) -> List[DesignPoint]:
    """Evaluate one pruned design per sparsity level.

    Args:
        model: trained float baseline (cloned per level).
        data: prepared dataset split.
        sparsity_range: unstructured sparsity levels (paper: 0.2..0.6).
        input_bits: circuit input bit-width.
        weight_bits: weight bit-width of the pruned design (the baseline's
            8 bits — pruning alone does not change precision).
        finetune_epochs: post-pruning fine-tuning epochs.
        tech: technology library for synthesis.
        seed: fine-tuning seed.
    """
    candidates = [model.clone() for _ in sparsity_range]
    results = one_shot_pruning_population(
        candidates, sparsity_range, data=data, finetune_epochs=finetune_epochs, seed=seed
    )
    points: List[DesignPoint] = []
    for sparsity, candidate, result in zip(sparsity_range, candidates, results):
        accuracy = candidate.evaluate_accuracy(data.test.features, data.test.labels)
        report = synthesize(
            candidate,
            config=BespokeConfig(input_bits=input_bits, weight_bits=weight_bits),
            tech=tech,
            name=f"{data.train.name}_p{int(round(sparsity * 100))}",
        )
        points.append(
            DesignPoint(
                technique="pruning",
                accuracy=float(accuracy),
                area=report.area,
                power=report.power,
                delay=report.delay,
                parameters={
                    "target_sparsity": float(sparsity),
                    "achieved_sparsity": result.achieved_sparsity,
                    "weight_bits": weight_bits,
                },
                report=report,
            )
        )
    return points
