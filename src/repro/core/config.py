"""Configuration objects for the end-to-end minimization pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

#: Default sweep ranges, matching the paper's evaluation section.
DEFAULT_BIT_RANGE: Tuple[int, ...] = (2, 3, 4, 5, 6, 7)
DEFAULT_SPARSITY_RANGE: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.5, 0.6)
DEFAULT_CLUSTER_RANGE: Tuple[int, ...] = (2, 3, 4, 6, 8)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to reproduce one dataset's evaluation.

    Attributes:
        dataset: dataset name (``"whitewine"``, ``"redwine"``, ``"pendigits"``,
            ``"seeds"`` or a registered custom dataset).
        seed: master seed for data splitting, training and fine-tuning.
        input_bits: unsigned bit-width of the circuit inputs.
        baseline_weight_bits: weight precision of the un-minimized baseline.
        technology: technology library name (``"egt"`` or ``"silicon"``).
        train_epochs: float-baseline training epochs (``None`` = dataset default).
        finetune_epochs: fine-tuning epochs used inside each sweep step.
        bit_range: quantization sweep bit-widths.
        sparsity_range: pruning sweep sparsity levels.
        cluster_range: clustering sweep cluster budgets.
        val_fraction / test_fraction: data split proportions.
        n_samples: optional dataset-size override (smaller = faster benches).
        max_accuracy_loss: accuracy budget for headline area-gain numbers.
        n_workers: worker processes for search fitness evaluation
            (1 = serial, 0 = every available core), used unless the GA's own
            ``GAConfig.n_workers`` is set. Parallel runs produce
            bit-identical results to serial ones. Every other search knob
            lives on :class:`~repro.search.ga.GAConfig` or the search call.
    """

    dataset: str
    seed: int = 0
    input_bits: int = 4
    baseline_weight_bits: int = 8
    technology: str = "egt"
    train_epochs: Optional[int] = None
    finetune_epochs: int = 15
    bit_range: Sequence[int] = field(default=DEFAULT_BIT_RANGE)
    sparsity_range: Sequence[float] = field(default=DEFAULT_SPARSITY_RANGE)
    cluster_range: Sequence[int] = field(default=DEFAULT_CLUSTER_RANGE)
    val_fraction: float = 0.15
    test_fraction: float = 0.25
    n_samples: Optional[int] = None
    max_accuracy_loss: float = 0.05
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.input_bits < 1:
            raise ValueError(f"input_bits must be >= 1, got {self.input_bits}")
        if self.baseline_weight_bits < 2:
            raise ValueError(
                f"baseline_weight_bits must be >= 2, got {self.baseline_weight_bits}"
            )
        if self.finetune_epochs < 0:
            raise ValueError(f"finetune_epochs must be >= 0, got {self.finetune_epochs}")
        if not 0.0 < self.max_accuracy_loss < 1.0:
            raise ValueError(
                f"max_accuracy_loss must be in (0, 1), got {self.max_accuracy_loss}"
            )
        if any(b < 2 for b in self.bit_range):
            raise ValueError("bit_range entries must be >= 2")
        if any(not 0.0 <= s < 1.0 for s in self.sparsity_range):
            raise ValueError("sparsity_range entries must be in [0, 1)")
        if any(c < 1 for c in self.cluster_range):
            raise ValueError("cluster_range entries must be >= 1")


def fast_config(dataset: str, seed: int = 0, n_workers: int = 1) -> PipelineConfig:
    """A reduced-cost configuration used by tests and quick examples.

    Smaller dataset realizations, fewer fine-tuning epochs and coarser sweep
    grids — the trends stay the same, the wall-clock drops by roughly an
    order of magnitude compared to :class:`PipelineConfig` defaults.
    """
    return PipelineConfig(
        dataset=dataset,
        seed=seed,
        train_epochs=40,
        finetune_epochs=6,
        bit_range=(2, 3, 4, 6),
        sparsity_range=(0.2, 0.4, 0.6),
        cluster_range=(2, 4, 8),
        n_samples=600 if dataset.lower() != "seeds" else None,
        n_workers=n_workers,
    )
