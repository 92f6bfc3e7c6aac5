"""Evaluation settings and the single resolver that produces them.

Evaluation knobs historically arrived through three doors — direct
:class:`EvaluationSettings` construction, ``None``-inheriting
:class:`~repro.search.ga.GAConfig` fields, and campaign-spec entries — each
with its own resolution code. This module is now the one place those paths
meet: :func:`resolve_evaluation_settings` implements the inheritance rules
(GA knob → pipeline knob → default), and every
caller — :class:`~repro.search.ga.HardwareAwareGA`, the campaign runner,
the CLI — goes through it, so the knobs can never resolve differently
between subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..reliability.fault_injection import FAULT_MODELS, FaultInjectionConfig


@dataclass(frozen=True)
class EvaluationSettings:
    """Knobs of the per-genome evaluation.

    Attributes:
        finetune_epochs: joint fine-tuning epochs (0 = no retraining, pure
            post-training evaluation — used by the GA ablation).
        finetune_learning_rate: learning rate of the joint fine-tuning pass.
        per_position_clustering: cluster per input position (paper scheme).
        simulate_accuracy: measure test accuracy on the bit-accurate
            fixed-point simulator (batched integer datapath) instead of the
            float software model, so the search optimizes the deployed
            circuit's accuracy rather than its floating-point proxy.
        fault_rate: fraction of hard-wired connections hit per Monte-Carlo
            fault-injection trial. With ``n_fault_trials`` > 0 every design
            point gains ``robust_accuracy``/``accuracy_std``, measured on
            the deployed circuit's integer datapath with per-(genome, trial)
            SHA-256-derived fault patterns. Default 0.0 — robustness off,
            evaluation byte-identical to earlier versions. These settings
            are part of the campaign cache's evaluation-context key, so
            robust and non-robust evaluations can never collide in a shared
            persistent cache.
        n_fault_trials: Monte-Carlo trials per design point (0 = off).
        fault_model: defect mechanism injected (one of
            :data:`repro.reliability.FAULT_MODELS`).
    """

    finetune_epochs: int = 8
    finetune_learning_rate: float = 0.003
    per_position_clustering: bool = True
    simulate_accuracy: bool = False
    fault_rate: float = 0.0
    n_fault_trials: int = 0
    fault_model: str = "open"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.n_fault_trials < 0:
            raise ValueError(f"n_fault_trials must be >= 0, got {self.n_fault_trials}")
        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"fault_model must be one of {FAULT_MODELS}, got '{self.fault_model}'"
            )

    @property
    def robustness_enabled(self) -> bool:
        """True when evaluations measure Monte-Carlo fault tolerance."""
        return self.fault_rate > 0.0 and self.n_fault_trials > 0

    def fault_config(self, seed: Optional[int]) -> FaultInjectionConfig:
        """The per-design fault campaign these settings describe.

        ``seed`` is the design's derived evaluation seed — each (genome,
        trial) pair then gets its own SHA-256-derived fault pattern via
        :func:`repro.reliability.fault_trial_seed`. ``weight_bits`` is
        irrelevant here (the simulator's own formats define the level grid).
        """
        return FaultInjectionConfig(
            fault_rate=self.fault_rate,
            fault_model=self.fault_model,
            n_trials=self.n_fault_trials,
            seed=0 if seed is None else int(seed),
        )


def resolve_evaluation_settings(
    pipeline_config=None, ga_config=None
) -> EvaluationSettings:
    """Resolve every evaluation knob through the one documented precedence.

    Each knob takes the first non-``None`` value of: the GA config field,
    the pipeline config field, the :class:`EvaluationSettings` default.

    Either config may be ``None``: ``resolve_evaluation_settings()`` yields
    the defaults, ``resolve_evaluation_settings(config)``
    is the non-GA campaign path, and passing both is the GA path (the same
    inheritance the ``stacked``/``cache_size``/``n_workers`` knobs use).
    """

    def _knob(name, default):
        ga_value = getattr(ga_config, name, None) if ga_config is not None else None
        if ga_value is not None:
            return ga_value
        pipeline_value = (
            getattr(pipeline_config, name, None) if pipeline_config is not None else None
        )
        return pipeline_value if pipeline_value is not None else default

    return EvaluationSettings(
        finetune_epochs=_knob("finetune_epochs", 8),
        fault_rate=_knob("fault_rate", 0.0),
        n_fault_trials=_knob("n_fault_trials", 0),
        fault_model=_knob("fault_model", "open"),
    )


__all__ = [
    "EvaluationSettings",
    "resolve_evaluation_settings",
]
