"""Pruning schedules: one-shot and gradual magnitude pruning.

The paper's sweep uses one-shot pruning followed by fine-tuning at each
sparsity level. Gradual (iterative) pruning — prune a little, fine-tune,
repeat — usually reaches the same sparsity with less accuracy loss and is
provided for the extension benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


from ..datasets.preprocessing import PreparedData
from ..nn.network import MLP
from ..nn.stacked import finetune_population
from ..nn.trainer import finetune
from .magnitude import PruningResult, prune_by_magnitude


@dataclass(frozen=True)
class PruningScheduleConfig:
    """Configuration of :func:`gradual_magnitude_pruning`.

    Attributes:
        target_sparsity: final overall sparsity.
        n_steps: number of prune/fine-tune iterations.
        epochs_per_step: fine-tuning epochs after each pruning step.
        learning_rate: fine-tuning learning rate.
        cubic: use the cubic sparsity ramp of Zhu & Gupta (2018) instead of
            a linear ramp.
    """

    target_sparsity: float
    n_steps: int = 4
    epochs_per_step: int = 8
    learning_rate: float = 0.003
    cubic: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError(
                f"target_sparsity must be in [0, 1), got {self.target_sparsity}"
            )
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.epochs_per_step < 0:
            raise ValueError(f"epochs_per_step must be >= 0, got {self.epochs_per_step}")

    def sparsity_at_step(self, step: int) -> float:
        """Sparsity target after ``step`` (1-based) of ``n_steps`` steps."""
        if not 1 <= step <= self.n_steps:
            raise ValueError(f"step must be in [1, {self.n_steps}], got {step}")
        progress = step / self.n_steps
        if self.cubic:
            ramp = 1.0 - (1.0 - progress) ** 3
        else:
            ramp = progress
        return self.target_sparsity * ramp


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


def gradual_magnitude_pruning(
    model: MLP,
    data: PreparedData,
    config: PruningScheduleConfig,
    seed: Optional[int] = None,
) -> List[PruningResult]:
    """Iteratively prune and fine-tune until the target sparsity is reached.

    Returns the :class:`PruningResult` of each step (the last one reflects
    the final state).
    """
    results: List[PruningResult] = []
    for step in range(1, config.n_steps + 1):
        step_sparsity = config.sparsity_at_step(step)
        result = prune_by_magnitude(model, step_sparsity)
        results.append(result)
        if config.epochs_per_step > 0:
            finetune(
                model,
                data.train.features,
                data.train.labels,
                data.validation.features,
                data.validation.labels,
                epochs=config.epochs_per_step,
                learning_rate=config.learning_rate,
                seed=None if seed is None else seed + step,
            )
    return results


def sparsity_accuracy_curve(
    model: MLP,
    data: PreparedData,
    sparsities: List[float],
    finetune_epochs: int = 15,
    seed: Optional[int] = None,
) -> List[dict]:
    """Accuracy after one-shot pruning + fine-tuning at each sparsity level.

    Each level starts from a fresh clone of the original model (levels are
    independent, matching how the paper's Figure 1 pruning points are built).
    """
    curve = []
    for sparsity in sparsities:
        candidate = model.clone()
        result = one_shot_pruning(
            candidate,
            float(sparsity),
            data=data,
            finetune_epochs=finetune_epochs,
            seed=seed,
        )
        accuracy = candidate.evaluate_accuracy(data.test.features, data.test.labels)
        curve.append(
            {
                "target_sparsity": float(sparsity),
                "achieved_sparsity": result.achieved_sparsity,
                "accuracy": float(accuracy),
            }
        )
    return curve
