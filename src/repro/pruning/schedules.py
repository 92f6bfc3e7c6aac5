"""One-shot magnitude pruning: the paper's prune-then-fine-tune flow."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..datasets.preprocessing import PreparedData
from ..nn.network import MLP
from ..nn.stacked import finetune_population
from .magnitude import PruningResult, prune_by_magnitude


def one_shot_pruning(
    model: MLP,
    sparsity: float,
    data: Optional[PreparedData] = None,
    finetune_epochs: int = 15,
    learning_rate: float = 0.003,
    seed: Optional[int] = None,
) -> PruningResult:
    """Prune once to ``sparsity`` and (optionally) fine-tune — the paper's flow."""
    return one_shot_pruning_population(
        [model],
        [sparsity],
        data=data,
        finetune_epochs=finetune_epochs,
        learning_rate=learning_rate,
        seed=seed,
    )[0]


def one_shot_pruning_population(
    models: Sequence[MLP],
    sparsities: Sequence[float],
    data: Optional[PreparedData] = None,
    finetune_epochs: int = 15,
    learning_rate: float = 0.003,
    seed: Optional[int] = None,
) -> List[PruningResult]:
    """:func:`one_shot_pruning` for several models, one sparsity each, in place.

    Every model is pruned on its own; the fine-tuning passes then run as one
    stack (:func:`~repro.nn.stacked.finetune_population`), so model ``g``
    ends with the weights a serial fine-tuning of it alone gives.
    """
    models = list(models)
    if len(sparsities) != len(models):
        raise ValueError(f"Got {len(sparsities)} sparsity levels for {len(models)} models")
    results = [
        prune_by_magnitude(model, float(sparsity)) for model, sparsity in zip(models, sparsities)
    ]
    if data is not None and finetune_epochs > 0:
        finetune_population(
            models,
            data.train.features,
            data.train.labels,
            data.validation.features,
            data.validation.labels,
            epochs=finetune_epochs,
            learning_rate=learning_rate,
            seeds=[seed] * len(models),
        )
    return results
