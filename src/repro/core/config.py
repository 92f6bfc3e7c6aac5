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
            (1 = serial, 0 = every available core). Parallel runs produce
            bit-identical results to serial ones.
        stacked: evaluate search populations as stacked tensor programs
            (whole generations batched through shared ``(G, ...)`` array
            ops). Byte-identical to per-genome evaluation; on by default.
        cache_size: LRU bound on the search's genome evaluation cache
            (``None`` = unbounded, the historical behavior). Long searches
            over large spaces can bound memory at the cost of occasionally
            re-evaluating evicted genomes (deterministic, so results are
            unchanged).
        fault_rate: fraction of hard-wired connections hit per Monte-Carlo
            fault-injection trial during search evaluation. Together with
            ``n_fault_trials`` > 0 this enables robustness-aware search:
            every design point gains ``robust_accuracy``/``accuracy_std``
            and the GA optimizes fault tolerance as a third objective.
            Default 0.0 (off — results byte-identical to a robustness-free
            build).
        n_fault_trials: Monte-Carlo trials per design point (0 = off).
        fault_model: defect mechanism injected (``"open"``, ``"short"`` or
            ``"level_shift"`` — see :mod:`repro.reliability`).
        surrogate: surrogate model for surrogate-assisted search
            (``"ridge"`` or ``"mlp"``; ``None`` = off, the default). A
            cheap online-trained predictor prefilters GA offspring so only
            promising genomes get real evaluations; reported fronts contain
            only measured points. See :mod:`repro.surrogate` and
            ``docs/surrogate.md``. Like every surrogate knob this changes
            *which* genomes are evaluated, never what an evaluation
            returns, so it does not enter the campaign cache's
            evaluation-context key.
        surrogate_candidates: surrogate candidate-pool multiplier (the
            predictor scores this many times ``population_size`` offspring
            per generation).
        surrogate_prefilter: fraction of the population size receiving a
            real full-budget evaluation per generation, in ``(0, 1]``.
        halving_budgets: ascending short fine-tuning budgets (epochs) for
            successive-halving races between the surrogate prefilter and
            full evaluation (``None`` = no halving).
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
    stacked: bool = True
    cache_size: Optional[int] = None
    fault_rate: float = 0.0
    n_fault_trials: int = 0
    fault_model: str = "open"
    surrogate: Optional[str] = None
    surrogate_candidates: int = 4
    surrogate_prefilter: float = 0.25
    halving_budgets: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        # Mirrors repro.surrogate.SURROGATE_MODELS (not imported here: core
        # must stay dependency-free of the search/surrogate stack).
        if self.surrogate is not None and self.surrogate not in ("ridge", "mlp"):
            raise ValueError(
                f"surrogate must be one of ('ridge', 'mlp'), got '{self.surrogate}'"
            )
        if self.surrogate_candidates < 1:
            raise ValueError(
                f"surrogate_candidates must be >= 1, got {self.surrogate_candidates}"
            )
        if not 0.0 < self.surrogate_prefilter <= 1.0:
            raise ValueError(
                f"surrogate_prefilter must be in (0, 1], got {self.surrogate_prefilter}"
            )
        if self.halving_budgets is not None:
            budgets = tuple(self.halving_budgets)
            if any(int(b) != b or b < 1 for b in budgets):
                raise ValueError(
                    f"halving_budgets must be positive integers, got {budgets}"
                )
            if any(a >= b for a, b in zip(budgets, budgets[1:])):
                raise ValueError(
                    f"halving_budgets must be strictly increasing, got {budgets}"
                )
        # Mirrors repro.reliability.FAULT_MODELS (not imported here: core
        # must stay dependency-free of the nn/bespoke stack).
        if self.fault_model not in ("open", "short", "level_shift"):
            raise ValueError(
                "fault_model must be one of ('open', 'short', 'level_shift'), "
                f"got '{self.fault_model}'"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.n_fault_trials < 0:
            raise ValueError(
                f"n_fault_trials must be >= 0, got {self.n_fault_trials}"
            )
        if self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.cache_size is not None and self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
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
